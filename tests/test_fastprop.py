"""Tests for the array propagation engine and the compiled topology.

The headline invariant: the ``"array"`` engine is *bit-identical* to
the ``"object"`` engine — same routes, same capture fractions, same
RNG consumption — on every scenario shape, including the PR 2 golden
specs whose numbers are pinned in ``tests/test_exper.py``.
"""

from __future__ import annotations

import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp import (
    DEFAULT_ENGINE,
    AsTopology,
    CompiledTopology,
    Seed,
    VrpIndex,
    coerce_engine,
    evaluate_attack_seeds,
    propagate_prefix,
    propagate_prefix_array,
)
from repro.bgp.fastprop import (
    PropagationWorkspace,
    _propagate,
    _single_seed_outcome,
)
from repro.data import read_caida_compiled, write_caida
from repro.data.asgraph import TopologyProfile, generate_topology
from repro.exper import ExperimentRunner, ExperimentSpec
from repro.netbase import Prefix
from repro.netbase.errors import ReproError
from repro.obs import MetricsRegistry
from repro.rpki import Vrp

PFX = Prefix.parse("168.122.0.0/16")
SUB = Prefix.parse("168.122.0.0/24")


@pytest.fixture(scope="module")
def topology():
    """Big enough for interesting structure, fast enough to sweep."""
    return generate_topology(TopologyProfile(ases=250), random.Random(8))


@pytest.fixture(scope="module")
def cast(topology):
    stubs = sorted(topology.stub_ases())
    return stubs[1], stubs[-2], stubs[5]  # victim, attacker, attacker 2


class TestCompiledTopology:
    def test_indices_follow_asn_order(self, topology):
        compiled = topology.compiled()
        assert list(compiled.asns) == sorted(topology.ases)
        assert all(
            compiled.index_of[asn] == i
            for i, asn in enumerate(compiled.asns)
        )

    def test_csr_rows_match_object_views(self, topology):
        compiled = topology.compiled()
        for i, asn in enumerate(compiled.asns):
            for rows, view in (
                (compiled.provider_rows, topology.providers_of),
                (compiled.customer_rows, topology.customers_of),
                (compiled.peer_rows, topology.peers_of),
            ):
                neighbors = tuple(compiled.asns[j] for j in rows[i])
                assert neighbors == tuple(sorted(view(asn)))
                assert list(rows[i]) == sorted(rows[i])

    def test_csr_flat_arrays_are_consistent(self, topology):
        compiled = topology.compiled()
        assert compiled.provider_indptr[0] == 0
        assert compiled.provider_indptr[-1] == len(compiled.provider_indices)
        assert compiled.edge_count() == topology.edge_count()

    def test_compile_is_cached_and_invalidated(self, topology):
        compiled = topology.compiled()
        assert topology.compiled() is compiled
        mutated = generate_topology(TopologyProfile(ases=20), random.Random(0))
        first = mutated.compiled()
        mutated.add_as(9999)
        assert mutated.compiled() is not first
        assert 9999 in mutated.compiled()

    def test_pickle_drops_the_compiled_cache(self, topology):
        topology.compiled()
        clone = pickle.loads(pickle.dumps(topology))
        assert clone._compiled is None
        assert clone.ases == topology.ases
        assert len(clone.compiled()) == len(topology)

    def test_validation_mask(self, topology):
        compiled = topology.compiled()
        assert sum(compiled.validation_mask(None)) == len(compiled)
        chosen = frozenset(list(compiled.asns)[:7])
        mask = compiled.validation_mask(chosen)
        assert sum(mask) == 7
        # ASNs outside the topology are ignored, not an error.
        assert sum(compiled.validation_mask(frozenset({999999}))) == 0

    def test_read_caida_compiled(self, topology, tmp_path):
        path = tmp_path / "rel.txt"
        write_caida(topology, path)
        loaded, compiled = read_caida_compiled(path)
        assert loaded.ases == topology.ases
        assert loaded.compiled() is compiled
        assert compiled.asns == topology.compiled().asns


def _scenarios(victim, attacker, attacker2):
    """The scenario shapes both engines must agree on."""
    return [
        ([Seed.origin(victim)], None, None),
        ([Seed.origin(victim), Seed.origin(attacker)], None, None),
        (
            [Seed.origin(victim), Seed.forged_origin(attacker, victim)],
            VrpIndex([Vrp(PFX, 16, victim)]),
            None,
        ),
        (
            [Seed.forged_origin(attacker, victim)],
            VrpIndex([Vrp(PFX, 24, victim)]),
            None,
        ),
        (
            [Seed.origin(attacker), Seed.forged_origin(attacker2, victim)],
            VrpIndex([Vrp(PFX, 16, victim)]),
            "half",
        ),
        (
            # Prepended forged-origin announcement.
            [Seed(attacker, (attacker, attacker, attacker, victim))],
            VrpIndex([Vrp(PFX, 24, victim)]),
            "half",
        ),
    ]


class TestRouteEquivalence:
    @pytest.mark.parametrize("case", range(6))
    @pytest.mark.parametrize("prefix", [PFX, SUB], ids=["same", "sub"])
    @pytest.mark.parametrize("seeded", [False, True], ids=["det", "rng"])
    def test_routes_bit_identical(self, topology, cast, case, prefix, seeded):
        victim, attacker, attacker2 = cast
        seeds, vrps, val = _scenarios(victim, attacker, attacker2)[case]
        if val == "half":
            val = frozenset(
                random.Random(case).sample(sorted(topology.ases), 120)
            )
        rng_a = random.Random(40 + case) if seeded else None
        rng_b = random.Random(40 + case) if seeded else None
        by_object = propagate_prefix(
            topology, prefix, seeds,
            vrp_index=vrps, validating_ases=val, rng=rng_a,
        )
        by_array = propagate_prefix_array(
            topology, prefix, seeds,
            vrp_index=vrps, validating_ases=val, rng=rng_b,
        )
        assert by_object == by_array
        if seeded:
            # Not just the same routes: the same randomness consumed.
            assert rng_a.getstate() == rng_b.getstate()

    def test_accepts_a_precompiled_topology(self, topology, cast):
        victim = cast[0]
        assert propagate_prefix_array(
            topology.compiled(), PFX, [Seed.origin(victim)]
        ) == propagate_prefix(topology, PFX, [Seed.origin(victim)])

    def test_seed_errors_match_object_engine(self, topology):
        from repro.bgp import SimulationError

        with pytest.raises(SimulationError, match="not in topology"):
            propagate_prefix_array(topology, PFX, [Seed.origin(10**9)])
        victim = min(topology.stub_ases())
        with pytest.raises(SimulationError, match="duplicate seed"):
            propagate_prefix_array(
                topology, PFX, [Seed.origin(victim), Seed.origin(victim)]
            )

    def test_shuffled_edge_order_agrees_across_engines(self, topology):
        """The tie-break bugfix's purpose: engines agree no matter how
        the topology was assembled."""
        edges = [
            (a, b, "c2p" if kind.value == "customer" else "p2p")
            for a, b, kind in topology.edges()
        ]
        random.Random(13).shuffle(edges)
        rebuilt = AsTopology.from_edges(edges)
        origin = min(topology.stub_ases())
        for seed in range(3):
            assert propagate_prefix(
                rebuilt, PFX, [Seed.origin(origin)], rng=random.Random(seed)
            ) == propagate_prefix_array(
                rebuilt, PFX, [Seed.origin(origin)], rng=random.Random(seed)
            )


class TestEvaluateEquivalence:
    @pytest.mark.parametrize("case", range(6))
    @pytest.mark.parametrize("attack_prefix", [PFX, SUB], ids=["same", "sub"])
    def test_fractions_bit_identical(self, topology, cast, case, attack_prefix):
        victim, attacker, attacker2 = cast
        seeds, vrps, val = _scenarios(victim, attacker, attacker2)[case]
        seeds = [s for s in seeds if s.asn != victim] or [
            Seed.origin(attacker)
        ]
        if val == "half":
            val = frozenset(
                random.Random(case).sample(sorted(topology.ases), 120)
            )
        rng_a, rng_b = random.Random(case), random.Random(case)
        by_object = evaluate_attack_seeds(
            topology, victim, PFX, attack_prefix, seeds,
            vrp_index=vrps, validating_ases=val, rng=rng_a,
            engine="object",
        )
        by_array = evaluate_attack_seeds(
            topology, victim, PFX, attack_prefix, seeds,
            vrp_index=vrps, validating_ases=val, rng=rng_b,
            engine="array",
        )
        assert by_object == by_array
        assert rng_a.getstate() == rng_b.getstate()

    def test_unknown_engine_rejected(self, topology, cast):
        victim, attacker, _ = cast
        with pytest.raises(ReproError, match="unknown propagation engine"):
            evaluate_attack_seeds(
                topology, victim, PFX, SUB, [Seed.origin(attacker)],
                engine="quantum",
            )
        with pytest.raises(ReproError):
            coerce_engine("quantum")

    def test_tiny_topology_rejected(self):
        tiny = AsTopology.from_edges([(1, 2, "c2p")])
        with pytest.raises(ReproError, match="too small"):
            evaluate_attack_seeds(
                tiny, 1, PFX, PFX, [Seed.origin(2)], engine="array"
            )


class TestExperimentEngineField:
    def test_spec_round_trips_engine(self):
        from repro.exper import MinimalRoa, ScenarioCell

        spec = ExperimentSpec(
            cells=(ScenarioCell("forged-origin", MinimalRoa()),),
            trials=2,
            engine="array",
        )
        assert ExperimentSpec.from_json(spec.to_json()) == spec
        assert '"engine": "array"' in spec.to_json()
        # A spec that names no engine gets the default one, the same
        # for a constructed spec and for a spec file without the field.
        legacy = ExperimentSpec.from_json(
            '{"cells": [{"kind": "forged-origin"}], "trials": 1}'
        )
        assert legacy.engine == DEFAULT_ENGINE == "array"
        assert legacy.engine == ExperimentSpec(
            cells=spec.cells, trials=1
        ).engine

    def test_bad_engine_rejected(self):
        from repro.exper import MinimalRoa, ScenarioCell

        with pytest.raises(ReproError, match="unknown propagation engine"):
            ExperimentSpec(
                cells=(ScenarioCell("forged-origin", MinimalRoa()),),
                trials=1,
                engine="quantum",
            )

    def test_golden_specs_byte_identical_across_engines(self, topology):
        """The acceptance criterion: on the PR 2 golden specs, the
        array engine's aggregated ExperimentResult equals the object
        engine's exactly — bootstrap CIs and all."""
        import dataclasses

        from repro.analysis.deployment import deployment_sweep_spec
        from repro.analysis.hijack_eval import hijack_study_spec

        for spec in (
            hijack_study_spec(samples=5, seed=42),
            deployment_sweep_spec(fractions=(0.5,), samples=3, seed=9),
        ):
            by_object = ExperimentRunner(
                topology, dataclasses.replace(spec, engine="object")
            ).run(bootstrap_resamples=100)
            by_array = ExperimentRunner(
                topology, dataclasses.replace(spec, engine="array")
            ).run(bootstrap_resamples=100)
            assert by_object == by_array

    def test_array_engine_reproduces_golden_numbers(self):
        """Same pinned values as tests/test_exper.py, array engine."""
        from repro.analysis import run_hijack_study

        replay = generate_topology(TopologyProfile(ases=150), random.Random(5))
        result = run_hijack_study(replay, samples=7, seed=42, engine="array")
        assert result.subprefix_no_rpki == 1.0
        assert result.forged_subprefix_nonminimal == 1.0
        assert result.forged_subprefix_minimal == 0.0
        assert result.forged_origin_minimal == 0.27413127413127414

    def test_array_engine_with_process_executor(self, topology):
        """Engine and executor axes compose: array × worker processes
        (the sharded executor; the test id predates the pool's removal)
        equals array × serial equals object × serial."""
        from repro.exper import MaxLengthLooseRoa, ScenarioCell

        spec = ExperimentSpec(
            cells=(
                ScenarioCell("forged-origin-subprefix", MaxLengthLooseRoa()),
            ),
            trials=4,
            seed=3,
            engine="array",
        )
        serial = ExperimentRunner(topology, spec).run(bootstrap_resamples=50)
        parallel = ExperimentRunner(
            topology, spec, executor="sharded", workers=2
        ).run(bootstrap_resamples=50)
        assert serial == parallel


#: An ASN no generated world contains (worlds use multiples of 10).
_OUTSIDE = 7


@st.composite
def _single_seed_worlds(draw):
    """A small random AS graph, one seed, a validator set, a verdict.

    Every AS pair independently gets no edge, a customer→provider edge
    in either direction (so provider cycles occur too: reachability
    does not care) or a peering.  The seed is a plain origination, a
    forged origin, prepended, or names an AS outside the graph.
    """
    count = draw(st.integers(3, 12))
    asns = [10 * (i + 1) for i in range(count)]
    world = AsTopology()
    for asn in asns:
        world.add_as(asn)
    for i, low in enumerate(asns):
        for high in asns[i + 1:]:
            edge = draw(st.sampled_from(
                ("none", "none", "up", "down", "peer")
            ))
            if edge == "up":
                world.add_customer_provider(low, high)
            elif edge == "down":
                world.add_customer_provider(high, low)
            elif edge == "peer":
                world.add_peering(low, high)

    sender = draw(st.sampled_from(asns))
    tail = draw(st.lists(
        st.sampled_from(asns + [_OUTSIDE]), max_size=2
    ))
    seed = Seed(
        sender, (sender,) * draw(st.integers(1, 3)) + tuple(tail)
    )
    validators = draw(st.one_of(
        st.none(),                                   # universal
        st.just(frozenset()),                        # nobody
        st.frozensets(st.sampled_from(asns + [_OUTSIDE])),  # partial
    ))
    verdict = draw(st.sampled_from(("unchecked", "valid", "invalid")))
    if verdict == "unchecked":
        vrps = None
    else:
        origin = seed.path[-1] if verdict == "valid" else 64999
        vrps = VrpIndex([Vrp(PFX, 16, origin)])
    return world, seed, validators, vrps, draw(st.integers(0, 2 ** 16))


class TestSingleSeedClosure:
    """With one seed, who adopts is reachability: the set-algebra
    closure equals the ordered sweep's adopted set, whatever the
    tie-break draws were."""

    @settings(max_examples=300, deadline=None)
    @given(_single_seed_worlds())
    def test_closure_equals_ordered_sweep(self, case):
        world, seed, validators, vrps, tie_seed = case
        compiled = world.compiled()
        registry = MetricsRegistry()
        workspace = PropagationWorkspace(compiled, registry=registry)
        workspace.begin(validators)
        closure = _single_seed_outcome(workspace, PFX, seed, vrps)
        counters = registry.snapshot()
        assert counters["fastprop.closures"] == 1
        assert counters["fastprop.sweeps"] == 0
        assert counters["fastprop.touched_ases"] == len(closure)

        for rng in (None, random.Random(tie_seed)):
            state, lane = _propagate(
                compiled, PFX, [seed], vrps, validators, rng
            )
            assert closure == frozenset(lane.touched)
            assert len(closure) == state.counts[0]
            assert closure == {
                i for i in range(len(compiled)) if state.adopted[i]
            }
