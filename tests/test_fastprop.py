"""Tests for the set-closure propagation engine and the compiled
topology.

The headline invariant: the engine — the product path — agrees with
the object engine, the readable reference kept as its oracle
(``propagate_prefix``, ``reference_attack_seeds`` and the
``reference_engine`` fixture) — every AS adopts the same seed, every
capture fraction is the same — on every scenario shape, including the
golden specs whose numbers are pinned in ``tests/test_exper.py``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.bgp.fastprop as fastprop
from repro.bgp import (
    AsTopology,
    CompiledTopology,
    Seed,
    SimulationError,
    VrpIndex,
    evaluate_attack_seeds,
    propagate_prefix,
    reference_attack_seeds,
)
from repro.bgp.fastprop import (
    _PROFILE_CAP,
    PropagationWorkspace,
    _race,
    _single_seed_outcome,
)
from repro.data import read_caida_compiled, write_caida
from repro.data.asgraph import TopologyProfile, generate_topology
from repro.cli import (
    _experiment_spec_from_args,
    _topology_from_args,
    build_parser,
)
from repro.exper import (
    ExperimentRunner,
    ExperimentSpec,
    MaxLengthLooseRoa,
    MinimalRoa,
    NoRoa,
    ScenarioCell,
    evaluate_trial,
    materialize_trials,
)
from repro.netbase import Prefix
from repro.netbase.errors import ReproError
from repro.obs import MetricsRegistry, use_registry
from repro.results import JsonlSink
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
        """Who validates: the workspace's index of an epoch's
        validators."""
        compiled = topology.compiled()
        workspace = PropagationWorkspace(compiled)
        workspace.begin(None)  # universal
        assert workspace.validators() is None
        assert workspace.validates(compiled.asns[-1])
        chosen = frozenset(list(compiled.asns)[:7])
        workspace.begin(chosen)
        assert workspace.validators() == frozenset(range(7))
        # ASNs outside the topology are ignored, not an error.
        workspace.begin(frozenset({999999}))
        assert workspace.validators() == frozenset()
        assert not workspace.anyone_validates()

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


def _race_seeds(
    topology, prefix, seeds, *, vrp_index=None, validating_ases=None,
    tie_seed=None, workspace=None,
):
    """:func:`fastprop._race` read as ``{asn: seed asn}`` — each AS
    adopting in exactly one seed's bitset."""
    if workspace is None:
        workspace = PropagationWorkspace(topology)
    workspace.begin(validating_ases)
    asns = workspace.compiled.asns
    adopted = {}
    raced = _race(workspace, prefix, seeds, vrp_index, tie_seed)
    for seed, bits in zip(seeds, raced):
        for i in _members(bits):
            assert asns[i] not in adopted
            adopted[asns[i]] = seed.asn
    return adopted


def _route_seeds(routes):
    """The oracle's routes, read for the seed each AS adopted."""
    return {asn: route.seed for asn, route in routes.items()}


class TestRouteEquivalence:
    """The race's per-seed bitsets are the oracle's routes, read for
    their seeds, bit for bit — with no tie seed (lowest neighbor) and
    with one (the ``rng`` ids)."""

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
        options = dict(
            vrp_index=vrps, validating_ases=val,
            tie_seed=40 + case if seeded else None,
        )
        by_object = propagate_prefix(topology, prefix, seeds, **options)
        assert _race_seeds(topology, prefix, seeds, **options) == (
            _route_seeds(by_object)
        )

    def test_accepts_a_precompiled_topology(self, topology, cast):
        victim, attacker, _ = cast
        seeds = [Seed.origin(victim), Seed.origin(attacker)]
        assert _race_seeds(
            topology.compiled(), PFX, seeds, tie_seed=1
        ) == _route_seeds(propagate_prefix(topology, PFX, seeds, tie_seed=1))

    def test_seed_errors_match_object_engine(self, topology):
        victim = min(topology.stub_ases())
        for seeds, message in (
            ([Seed.origin(10**9)], "not in topology"),
            ([Seed.origin(victim), Seed.origin(victim)], "duplicate seed"),
        ):
            for propagate in (_race_seeds, propagate_prefix):
                with pytest.raises(SimulationError, match=message):
                    propagate(topology, PFX, seeds)

    def test_shuffled_edge_order_agrees_across_engines(self, topology):
        """The tie-break's purpose: engines agree no matter how the
        topology was assembled."""
        edges = [
            (a, b, "c2p" if kind.value == "customer" else "p2p")
            for a, b, kind in topology.edges()
        ]
        random.Random(13).shuffle(edges)
        rebuilt = AsTopology.from_edges(edges)
        stubs = sorted(topology.stub_ases())
        seeds = [Seed.origin(stubs[0]), Seed.forged_origin(stubs[-1], stubs[0])]
        for tie_seed in range(3):
            expected = _route_seeds(
                propagate_prefix(topology, PFX, seeds, tie_seed=tie_seed)
            )
            assert _route_seeds(
                propagate_prefix(rebuilt, PFX, seeds, tie_seed=tie_seed)
            ) == expected
            assert _race_seeds(
                rebuilt, PFX, seeds, tie_seed=tie_seed
            ) == expected


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
        by_object = reference_attack_seeds(
            topology, victim, PFX, attack_prefix, seeds,
            vrp_index=vrps, validating_ases=val, tie_seed=case,
        )
        by_array = evaluate_attack_seeds(
            topology, victim, PFX, attack_prefix, seeds,
            vrp_index=vrps, validating_ases=val, tie_seed=case,
        )
        assert by_object == by_array

    def test_tiny_topology_rejected(self):
        tiny = AsTopology.from_edges([(1, 2, "c2p")])
        for measure in (evaluate_attack_seeds, reference_attack_seeds):
            with pytest.raises(ReproError, match="too small"):
                measure(tiny, 1, PFX, PFX, [Seed.origin(2)])


class TestExperimentEngineField:
    """An experiment runs the one engine; through the runner, the
    reference engine (the ``reference_engine`` fixture) gives the same
    records and the same aggregated result."""

    def test_golden_specs_byte_identical_across_engines(
        self, topology, reference_engine
    ):
        """On the golden specs, the product's aggregated
        ExperimentResult equals the oracle's exactly — bootstrap CIs
        and all."""
        from repro.analysis.deployment import deployment_sweep_spec
        from repro.analysis.hijack_eval import hijack_study_spec

        for spec in (
            hijack_study_spec(samples=5, seed=42),
            deployment_sweep_spec(fractions=(0.5,), samples=3, seed=9),
        ):
            by_array = ExperimentRunner(topology, spec).run(
                bootstrap_resamples=100
            )
            with reference_engine():
                by_object = ExperimentRunner(topology, spec).run(
                    bootstrap_resamples=100
                )
            assert by_object == by_array

    def test_default_kinds_grid_matches_the_oracle(
        self, reference_engine, tmp_path
    ):
        """The CLI's default kinds × policies grid — same-prefix cells
        included — at 12 trials, 150 ASes and fractions 0/0.5/1: the
        product and the oracle write the same run file, 144 records
        under one header, and aggregate to the same result."""
        args = build_parser().parse_args([
            "experiment", "--trials", "12", "--ases", "150",
            "--fractions", "0,0.5,1",
        ])
        spec = _experiment_spec_from_args(args)
        topology = _topology_from_args(args)

        def run(path):
            sink = JsonlSink(path)
            try:
                result = ExperimentRunner(topology, spec, sink=sink).run()
            finally:
                sink.close()
            return result, path.read_bytes()

        with use_registry(MetricsRegistry()) as registry:
            shipped, shipped_bytes = run(tmp_path / "shipped.jsonl")
        counters = registry.snapshot()
        # The product path ran the engine: a race per same-prefix cell
        # and trial, the subprefix cells as closures.
        assert counters["fastprop.sweeps"] == 2 * spec.total_trials
        assert counters["fastprop.closures"] > 0
        with reference_engine():
            reference, reference_bytes = run(tmp_path / "oracle.jsonl")
        assert shipped_bytes.count(b"\n") == 1 + 144
        assert reference_bytes == shipped_bytes
        assert reference == shipped

    def test_array_engine_reproduces_golden_numbers(self):
        """Same pinned values as tests/test_exper.py, array engine."""
        from repro.analysis import run_hijack_study

        replay = generate_topology(TopologyProfile(ases=150), random.Random(5))
        result = run_hijack_study(replay, samples=7, seed=42)
        assert result.subprefix_no_rpki == 1.0
        assert result.forged_subprefix_nonminimal == 1.0
        assert result.forged_subprefix_minimal == 0.0
        assert result.forged_origin_minimal == 0.4189189189189189

    def test_array_engine_with_process_executor(self, topology):
        """The engine under worker processes (the sharded executor;
        the test id predates the pool's removal) equals it serial."""
        from repro.exper import MaxLengthLooseRoa, ScenarioCell

        spec = ExperimentSpec(
            cells=(
                ScenarioCell("forged-origin-subprefix", MaxLengthLooseRoa()),
            ),
            trials=4,
            seed=3,
        )
        serial = ExperimentRunner(topology, spec).run(bootstrap_resamples=50)
        parallel = ExperimentRunner(
            topology, spec, executor="sharded", workers=2
        ).run(bootstrap_resamples=50)
        assert serial == parallel


#: An ASN no generated world contains (worlds use multiples of 10).
_OUTSIDE = 7


def _members(bits: int) -> set[int]:
    """The AS indices an adopted bitset holds."""
    return {i for i in range(bits.bit_length()) if bits >> i & 1}


def _walking(workspace: PropagationWorkspace) -> PropagationWorkspace:
    """``workspace`` with its cones withheld, so every closure walks
    the core — what a topology whose core has a provider cycle gets."""
    workspace.cones = lambda: None
    return workspace


def _draw_world(draw, min_ases=3):
    """A small random AS graph, and whether it has a provider cycle.

    Every AS pair independently gets no edge, a customer→provider edge
    in either direction or a peering; about half the graphs first get a
    customer→provider ring of three or more ASes, a cycle through the
    core (reachability does not care; the cones do, and stand down).
    """
    count = draw(st.integers(min_ases, 12))
    asns = [10 * (i + 1) for i in range(count)]
    world = AsTopology()
    for asn in asns:
        world.add_as(asn)
    ring = draw(st.one_of(
        st.just([]),
        st.lists(st.sampled_from(asns), min_size=3, max_size=5, unique=True),
    ))
    for customer, provider in zip(ring, ring[1:] + ring[:1]):
        world.add_customer_provider(customer, provider)
    for i, low in enumerate(asns):
        for high in asns[i + 1:]:
            if high in world.neighbors_of(low):
                continue
            edge = draw(st.sampled_from(
                ("none", "none", "up", "down", "peer")
            ))
            if edge == "up":
                world.add_customer_provider(low, high)
            elif edge == "down":
                world.add_customer_provider(high, low)
            elif edge == "peer":
                world.add_peering(low, high)
    return world, asns, bool(ring)


def _draw_validators(draw, asns):
    """Everyone, nobody, or a sample that may name an AS outside."""
    return draw(st.one_of(
        st.none(),                                   # universal
        st.just(frozenset()),                        # nobody
        st.frozensets(st.sampled_from(asns + [_OUTSIDE])),  # partial
    ))


@st.composite
def _single_seed_worlds(draw):
    """A small random AS graph, one seed, a validator set, a verdict.

    The seed is a plain origination, a forged origin, prepended, names
    an AS outside the graph, or runs its path through the core.
    """
    world, asns, cyclic = _draw_world(draw)
    sender = draw(st.sampled_from(asns))
    core = [asn for asn in asns if world.customers_of(asn)]
    hops = st.sampled_from(asns + [_OUTSIDE])
    tail = draw(st.lists(
        st.one_of(st.sampled_from(core), hops) if core else hops,
        max_size=2,
    ))
    seed = Seed(
        sender, (sender,) * draw(st.integers(1, 3)) + tuple(tail)
    )
    validators = _draw_validators(draw, asns)
    verdict = draw(st.sampled_from(("unchecked", "valid", "invalid")))
    if verdict == "unchecked":
        vrps = None
    else:
        origin = seed.path[-1] if verdict == "valid" else 64999
        vrps = VrpIndex([Vrp(PFX, 16, origin)])
    return (world, cyclic, seed, validators, vrps,
            draw(st.integers(0, 2 ** 16)))


class TestSingleSeedClosure:
    """With one seed, who adopts is reachability: the closure's bitset
    — through the cones or by the walk — holds exactly the ASes the
    oracle's ordered sweep gives a route, under any tie seed, and the
    race of that one seed."""

    @settings(max_examples=300, deadline=None)
    @given(_single_seed_worlds())
    def test_closure_equals_ordered_sweep(self, case):
        world, cyclic, seed, validators, vrps, tie_seed = case
        compiled = world.compiled()
        registry = MetricsRegistry()
        workspace = PropagationWorkspace(compiled, registry=registry)
        workspace.begin(validators)
        closure = _single_seed_outcome(workspace, PFX, seed, vrps)
        counters = registry.snapshot()
        assert counters["fastprop.closures"] == 1
        assert counters["fastprop.sweeps"] == 0
        assert counters["fastprop.touched_ases"] == closure.bit_count()
        walker = _walking(PropagationWorkspace(compiled))
        walker.begin(validators)
        assert _single_seed_outcome(walker, PFX, seed, vrps) == closure
        if cyclic:
            assert workspace.cones() is None

        assert closure < 1 << len(compiled)
        adopted = {compiled.asns[i] for i in _members(closure)}
        for ties in (None, tie_seed):
            assert adopted == set(propagate_prefix(
                world, PFX, [seed], vrp_index=vrps,
                validating_ases=validators, tie_seed=ties,
            ))
        assert _race(workspace, PFX, [seed], vrps, tie_seed) == [closure]


@st.composite
def _race_worlds(draw):
    """A small random AS graph and a victim with one or two rivals.

    A rival originates the victim's prefix, forges the victim's
    origin, or prepends (with or without the forged origin).  The VRP
    makes the forged claim valid or not and the rest invalid, or every
    claim invalid; the validators are everyone, nobody or a sample,
    and often include the last rival's own AS — an invalid seed its
    own origin drops.
    """
    world, asns, _cyclic = _draw_world(draw, min_ases=4)
    senders = draw(st.lists(
        st.sampled_from(asns), min_size=2, max_size=3, unique=True
    ))
    victim = senders[0]
    seeds = [Seed.origin(victim)]
    for sender in senders[1:]:
        shape = draw(st.sampled_from(("origin", "forged", "prepend")))
        if shape == "origin":
            seeds.append(Seed.origin(sender))
        elif shape == "forged":
            seeds.append(Seed.forged_origin(sender, victim))
        else:
            head = (sender,) * draw(st.integers(2, 3))
            seeds.append(Seed(sender, head + draw(
                st.sampled_from(((), (victim,)))
            )))
    validators = _draw_validators(draw, asns)
    if validators is not None and draw(st.booleans()):
        validators |= {seeds[-1].asn}
    vrps = draw(st.sampled_from((
        None,
        VrpIndex([Vrp(PFX, 16, victim)]),
        VrpIndex([Vrp(PFX, 24, victim)]),
        VrpIndex([Vrp(PFX, 16, 64999)]),
    )))
    tie_seed = draw(st.one_of(st.none(), st.integers(0, 2 ** 32 - 1)))
    return world, seeds, validators, vrps, tie_seed


class TestRace:
    """Where seeds compete, the race is the oracle: every AS adopts the
    seed ``propagate_prefix`` gives it, and both branches of the
    measurement — a same-prefix attack and a subprefix attack by the
    rivals — have the oracle's fractions and ``filtered`` flag."""

    @settings(max_examples=300, deadline=None)
    @given(_race_worlds())
    def test_race_equals_the_oracle(self, case):
        world, seeds, validators, vrps, tie_seed = case
        registry = MetricsRegistry()
        workspace = PropagationWorkspace(world, registry=registry)
        options = dict(
            vrp_index=vrps, validating_ases=validators, tie_seed=tie_seed
        )
        assert _race_seeds(
            world, PFX, seeds, workspace=workspace, **options
        ) == _route_seeds(propagate_prefix(world, PFX, seeds, **options))
        assert registry.snapshot()["fastprop.sweeps"] == 1

        for attack_prefix in (PFX, SUB):
            args = (world, seeds[0].asn, PFX, attack_prefix, seeds[1:])
            assert evaluate_attack_seeds(
                *args, workspace=workspace, **options
            ) == reference_attack_seeds(*args, **options)

    def test_the_race_reads_the_tie_seed_only_at_contested_ases(
        self, topology, cast, monkeypatch
    ):
        """An AS offered equally good routes by one seed needs no
        choice; the tie rule runs only where several seeds tie."""
        victim, attacker, _ = cast
        contested = []
        rule = fastprop.tie_winner

        def counted(tie_seed, asn, neighbors):
            assert len(set(seeds_of[n] for n in neighbors)) >= 2
            contested.append(asn)
            return rule(tie_seed, asn, neighbors)

        seeds = [Seed.origin(victim), Seed.forged_origin(attacker, victim)]
        routes = propagate_prefix(topology, PFX, seeds, tie_seed=9)
        seeds_of = {asn: route.seed for asn, route in routes.items()}
        monkeypatch.setattr(fastprop, "tie_winner", counted)
        assert _race_seeds(topology, PFX, seeds, tie_seed=9) == seeds_of
        assert contested and len(contested) == len(set(contested))


def _transit_world():
    """A graph whose interesting ASes are *not* stubs — what an
    ``AnyAsPairSampler`` draws and the stub-heavy grids never reach.

    ::

        1 ===== 2            tier 1, peering        70 ~~~ 10 (peer only)
        |  \\   |
        10  20  30           transit; 20 is a customer of 1, 10 and 30
        |   | \\  |
        11  21 22 31         21 hangs off 20 alone, 22 off 20 and 30
    """
    return AsTopology.from_edges([
        (1, 2, "p2p"), (70, 10, "p2p"),
        (10, 1, "c2p"), (20, 1, "c2p"), (30, 2, "c2p"),
        (20, 10, "c2p"), (20, 30, "c2p"),
        (11, 10, "c2p"), (21, 20, "c2p"),
        (22, 20, "c2p"), (22, 30, "c2p"), (31, 30, "c2p"),
    ])


class TestClosureOffTheStubs:
    """The closure against the object engine where the cast is transit
    ASes: the forged path names an AS with customers, the origin has
    nothing but a peer."""

    def _adopters(self, world, workspace, seed, vrps, validators):
        workspace.begin(validators)
        closure = _single_seed_outcome(workspace, SUB, seed, vrps)
        walker = _walking(PropagationWorkspace(world))
        walker.begin(validators)
        assert _single_seed_outcome(walker, SUB, seed, vrps) == closure
        by_object = propagate_prefix(
            world, SUB, [seed], vrp_index=vrps, validating_ases=validators,
        )
        asns = world.compiled().asns
        assert {asns[i] for i in _members(closure)} == set(by_object)
        return set(by_object)

    def test_blocked_transit_as_cuts_its_cone_and_is_struck(self):
        world = _transit_world()
        workspace = PropagationWorkspace(world)
        # 11 forges a path through transit AS 20.  Core members 1, 10
        # and 30 all list 20 as a customer, so the one union over their
        # rows takes 20 in and the blocked set must strike it; 21 is
        # reachable through 20 only and is cut with it; 22 is served
        # by 30 instead.
        adopters = self._adopters(
            world, workspace, Seed.forged_origin(11, 20), None, None
        )
        assert adopters == {11, 10, 70, 1, 2, 30, 31, 22}
        # The same attack, RFC 6811-invalid, with transit AS 30
        # validating: 30's cone goes too, and 22 with it.
        adopters = self._adopters(
            world, workspace, Seed.forged_origin(11, 20),
            VrpIndex([Vrp(PFX, 16, 20)]), frozenset({30}),
        )
        assert adopters == {11, 10, 70, 1, 2}

    def test_peer_only_origin(self):
        world = _transit_world()
        workspace = PropagationWorkspace(world)
        # 70's route crosses its one peering and can only descend.
        adopters = self._adopters(
            world, workspace, Seed.origin(70), None, None
        )
        assert adopters == {70, 10, 11, 20, 21, 22}
        # And 70 is offered only what 10 holds as a customer route.
        adopters = self._adopters(
            world, workspace, Seed.origin(31), None, None
        )
        assert 70 not in adopters and 10 in adopters
        assert 70 in self._adopters(
            world, workspace, Seed.origin(21), None, None
        )

    @pytest.mark.parametrize("victim,attacker", [
        (20, 11), (20, 70), (70, 20), (30, 10), (10, 22), (1, 21),
    ])
    def test_fractions_match_the_object_engine(self, victim, attacker):
        world = _transit_world()
        for workspace in (
            PropagationWorkspace(world),
            _walking(PropagationWorkspace(world)),
        ):
            for seed in (
                Seed.forged_origin(attacker, victim), Seed.origin(attacker)
            ):
                for vrps in (None, VrpIndex([Vrp(PFX, 16, victim)]),
                             VrpIndex([Vrp(PFX, 24, victim)])):
                    for validators in (None, frozenset(), frozenset({1, 30}),
                                       frozenset({10, 20, 2})):
                        args = (world, victim, PFX, SUB, [seed])
                        kwargs = dict(
                            vrp_index=vrps, validating_ases=validators
                        )
                        assert evaluate_attack_seeds(
                            *args, **kwargs, workspace=workspace,
                        ) == reference_attack_seeds(*args, **kwargs)

    def test_invalid_seed_where_nobody_validates_is_the_valid_seed(self):
        world = _transit_world()
        registry = MetricsRegistry()
        workspace = PropagationWorkspace(world, registry=registry)
        workspace.begin(frozenset())
        seed = Seed.forged_origin(11, 20)
        valid = _single_seed_outcome(
            workspace, SUB, seed, VrpIndex([Vrp(PFX, 24, 20)])
        )
        invalid = _single_seed_outcome(
            workspace, SUB, seed, VrpIndex([Vrp(PFX, 16, 20)])
        )
        assert invalid is valid and valid
        counters = registry.snapshot()
        assert counters["fastprop.closures"] == 1
        assert counters["fastprop.profile_misses"] == 1
        assert counters["fastprop.profile_hits"] == 1
        # Universal validation is not an empty validator set.
        workspace.begin(None)
        assert _single_seed_outcome(
            workspace, SUB, seed, VrpIndex([Vrp(PFX, 16, 20)])
        ) == 0


class TestWhatIsBuiltWhen:
    """The workspace's lazy state: the customer cones and the validator
    index are built only where a closure uses them."""

    @pytest.fixture()
    def cone_builds(self, monkeypatch):
        builds = []
        build = fastprop._customer_cones

        def counted(*args):
            builds.append(args)
            return build(*args)

        monkeypatch.setattr(fastprop, "_customer_cones", counted)
        return builds

    def _run(self, topology, workspace, kinds, fractions=(0.0, 0.5, 1.0)):
        spec = ExperimentSpec(
            cells=tuple(ScenarioCell(kind, MinimalRoa()) for kind in kinds),
            trials=4, seed=6, fractions=fractions,
        )
        for trial in materialize_trials(spec, topology):
            evaluate_trial(topology, spec, trial, workspace=workspace)

    def test_cones_built_once_and_never_by_a_sweep(
        self, topology, cone_builds
    ):
        registry = MetricsRegistry()
        workspace = PropagationWorkspace(topology, registry=registry)
        self._run(topology, workspace, ("prefix-hijack", "forged-origin"))
        counters = registry.snapshot()
        assert counters["fastprop.sweeps"] > 0
        assert counters.get("fastprop.closures", 0) == 0
        assert cone_builds == []
        for _ in range(2):
            self._run(topology, workspace, (
                "forged-origin-subprefix", "subprefix-hijack",
            ))
        assert registry.snapshot()["fastprop.closures"] > 0
        assert len(cone_builds) == 1

    def test_a_transit_origin_takes_the_cones(self):
        """The origin is on its own path, so in its blocked set, but
        blocks nothing below it: a transit AS's own announcement is
        still one OR of cones, and walks nothing."""
        world = _transit_world()
        workspace = PropagationWorkspace(world)
        workspace.begin(None)
        assert workspace.cones() is not None

        def no_walk():
            raise AssertionError("the closure walked the core")

        workspace.transit_rows = no_walk
        adopted = _single_seed_outcome(workspace, SUB, Seed.origin(20), None)
        asns = world.compiled().asns
        assert {asns[i] for i in _members(adopted)} == set(
            propagate_prefix(world, SUB, [Seed.origin(20)])
        )

    def test_invalid_closures_alone_build_no_cones(
        self, topology, cast, cone_builds
    ):
        """An invalid seed's blocked set holds the validators, core
        ASes among them, so it walks — and leaves the cones unbuilt."""
        victim, attacker, _ = cast
        registry = MetricsRegistry()
        workspace = PropagationWorkspace(topology, registry=registry)
        workspace.begin(frozenset(topology.ases - {attacker}))
        adopted = _single_seed_outcome(
            workspace, SUB, Seed.forged_origin(attacker, victim),
            VrpIndex([Vrp(PFX, 16, victim)]),
        )
        assert adopted.bit_count() == 1  # the attacker alone
        assert registry.snapshot()["fastprop.closures"] == 1
        assert cone_builds == []

    def test_validator_index_built_only_in_epochs_that_walk(
        self, topology, cast
    ):
        victim, attacker, _ = cast
        registry = MetricsRegistry()
        workspace = PropagationWorkspace(topology, registry=registry)
        invalid_seed = Seed.forged_origin(attacker, victim)
        vrps = VrpIndex([Vrp(PFX, 16, victim)])

        def epoch(validators):
            workspace.begin(validators)
            for prefix in (PFX, SUB):  # two closures an epoch
                _single_seed_outcome(workspace, prefix, invalid_seed, vrps)
                _single_seed_outcome(
                    workspace, prefix, Seed.origin(victim), vrps
                )
            return registry.snapshot().get("fastprop.mask_builds", 0)

        # Nobody validates; everybody does; the attacker does: no walk
        # around validators, no index.
        assert epoch(frozenset()) == 0
        assert epoch(None) == 0
        assert epoch(frozenset(topology.ases)) == 0
        # The attacker does not validate: the invalid seed walks around
        # the validators, indexed once for the epoch.
        assert epoch(frozenset(topology.ases - {attacker})) == 1
        assert epoch(frozenset(topology.ases - {attacker})) == 2

    def test_only_outside_validators_share_the_valid_profile(self):
        world = _transit_world()
        registry = MetricsRegistry()
        workspace = PropagationWorkspace(world, registry=registry)
        workspace.begin(frozenset({_OUTSIDE, 64999}))
        seed = Seed.forged_origin(11, 20)
        valid = _single_seed_outcome(
            workspace, SUB, seed, VrpIndex([Vrp(PFX, 24, 20)])
        )
        invalid = _single_seed_outcome(
            workspace, SUB, seed, VrpIndex([Vrp(PFX, 16, 20)])
        )
        assert invalid is valid and valid
        counters = registry.snapshot()
        assert counters["fastprop.closures"] == 1
        assert counters["fastprop.profile_hits"] == 1
        assert counters.get("fastprop.mask_builds", 0) == 0


#: The ledger's ``grid_10k`` cells: the §4/§5 granularity sweep of a
#: forged-origin subprefix attack, plus the plain subprefix hijack.
_LEDGER_CELLS = [
    {"kind": "forged-origin-subprefix", "policy": policy}
    for policy in (
        "minimal", "maxlength-17", "maxlength-18", "maxlength-19",
        "maxlength-20", "maxlength-22", "maxlength-loose",
        {"partial": {"base": "minimal", "coverage": 0.5}}, "none",
    )
] + [{"kind": "subprefix-hijack", "policy": "minimal"}]


def _ledger_spec(trials: int, sampler: str) -> ExperimentSpec:
    return ExperimentSpec.from_json(json.dumps({
        "cells": _LEDGER_CELLS, "trials": trials, "seed": 2017,
        "fractions": [0.0, 0.5, 1.0], "sampler": sampler,
    }))


@pytest.fixture(scope="module")
def world_10k():
    """The ledger's 10 000-AS topology (seed 2017): a core of 1 256
    ASes, where the cones are not trivial."""
    return generate_topology(
        TopologyProfile(ases=10_000), random.Random(2017)
    )


class TestRealScale:
    """Tier-1's other closures run on graphs with a handful of core
    ASes; these run the ledger's grid at its 10 000 ASes."""

    @pytest.mark.parametrize("sampler", ["stubs", "any"])
    def test_cones_equal_the_walk_for_every_seed(self, world_10k, sampler):
        compiled = world_10k.compiled()
        spec = _ledger_spec(5, sampler)
        workspace = PropagationWorkspace(compiled)
        walker = _walking(PropagationWorkspace(compiled))
        for trial in materialize_trials(spec, world_10k):
            records = evaluate_trial(
                compiled, spec, trial, workspace=workspace
            )
            assert evaluate_trial(
                compiled, spec, trial, workspace=walker
            ) == records
            # Every closure of the trial, cone for walk, bit for bit.
            assert workspace._profiles == walker._profiles
        assert len(workspace.cones()) == len(workspace.has_customers())

    @pytest.mark.parametrize("sampler,digest", [
        pytest.param(
            "stubs",
            "51d2a8510e74119529eb48fcb036ff0988cec6956ba6c91dd33a0fb192b066d2",
            id="stubs",
        ),
        pytest.param(
            "any",
            "362933b51bf930790725561063c95afa801d2a78abda479d5dc58e742a5e6947",
            id="any",
        ),
    ])
    def test_ledger_grid_run_file_bytes(
        self, world_10k, sampler, digest, tmp_path
    ):
        """3 fractions × 2 trials × 10 cells: the sha256 of the record
        lines (the run file past its header, which a header-schema bump
        may move).  The records have not moved since before closures
        became bitsets."""
        path = tmp_path / "run.jsonl"
        sink = JsonlSink(path)
        try:
            ExperimentRunner(
                world_10k, _ledger_spec(2, sampler), sink=sink
            ).run()
        finally:
            sink.close()
        records = path.read_bytes().split(b"\n", 1)[1]
        assert records.count(b"\n") == 60
        assert hashlib.sha256(records).hexdigest() == digest


class TestLongEpoch:
    def test_counts_stay_exact_after_profile_eviction(self, topology):
        """Trials that share one validator-set object share an epoch
        (every fraction-0 trial does wherever the empty frozenset is a
        singleton), and the profile cache (cap 32) evicts inside it.
        Every record still equals a fresh workspace's, and the shares
        of each sum to one."""
        spec = ExperimentSpec(
            cells=(
                ScenarioCell("forged-origin-subprefix", MinimalRoa()),
                ScenarioCell("forged-origin-subprefix", MaxLengthLooseRoa()),
                ScenarioCell("forged-origin-subprefix", NoRoa()),
                ScenarioCell("subprefix-hijack", MinimalRoa()),
            ),
            trials=120,
            seed=24,
            fractions=(0.0,),
        )
        nobody = frozenset()
        trials = [
            dataclasses.replace(trial, validating_ases=nobody)
            for trial in materialize_trials(spec, topology)
        ]
        assert len({(t.victim, t.attackers) for t in trials}) >= 100
        registry = MetricsRegistry()
        workspace = PropagationWorkspace(topology, registry=registry)
        shared = [
            evaluate_trial(topology, spec, trial, workspace=workspace)
            for trial in trials
        ]
        counters = registry.snapshot()
        assert counters["fastprop.epochs"] == 1
        # Far more distinct profiles than the cap: it evicted, often.
        assert counters["fastprop.profile_misses"] > 3 * _PROFILE_CAP
        assert len(workspace._profiles) == _PROFILE_CAP
        assert shared == [
            evaluate_trial(topology, spec, trial) for trial in trials
        ]
        for records in shared:
            for record in records:
                assert (
                    record.attacker_fraction + record.victim_fraction
                    + record.disconnected_fraction
                ) == pytest.approx(1.0)
                assert 0.0 <= record.victim_fraction <= 1.0
