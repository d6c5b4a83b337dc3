"""Tests for the repro.exper experiment engine.

Covers the scenario grammar, deterministic seed derivation, serial /
serial/sharded executor equivalence, the aggregation layer, and the
scenario diversity the legacy loops could not express (multi-attacker,
path prepending, per-AS partial ROA coverage).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random

import pytest

from repro.data.asgraph import TopologyProfile, generate_topology
from repro.exper import (
    AnyAsPairSampler,
    AttackConfig,
    CustomRoa,
    ExperimentRunner,
    ExperimentSpec,
    FixedPairSampler,
    MaxLengthLooseRoa,
    MinimalRoa,
    NoRoa,
    PartialCoverageRoa,
    ScenarioCell,
    StubPairSampler,
    TrialSpec,
    aggregate_records,
    derive_trial_seed,
    evaluate_trial,
    materialize_trials,
    policy_from_name,
)
from repro.netbase import Prefix
from repro.netbase.errors import ReproError
from repro.rpki import Vrp

from ci_table import beside, cell_cis


@pytest.fixture(scope="module")
def engine_topology():
    """A 120-AS topology: big enough to be interesting, fast to sweep."""
    return generate_topology(TopologyProfile(ases=120), random.Random(8))


def two_cell_spec(**kwargs) -> ExperimentSpec:
    defaults = dict(
        cells=(
            ScenarioCell("forged-origin-subprefix", MinimalRoa()),
            ScenarioCell("forged-origin-subprefix", MaxLengthLooseRoa()),
        ),
        trials=4,
        seed=5,
    )
    defaults.update(kwargs)
    return ExperimentSpec(**defaults)


class TestSeedDerivation:
    def test_deterministic(self):
        assert derive_trial_seed(7, 0, 3) == derive_trial_seed(7, 0, 3)

    def test_distinct_across_coordinates(self):
        seeds = {
            derive_trial_seed(seed, fraction, trial)
            for seed in range(3)
            for fraction in range(3)
            for trial in range(10)
        }
        assert len(seeds) == 3 * 3 * 10

    def test_trials_are_self_contained(self, engine_topology):
        """Derived seeding: trial t does not depend on how many trials
        surround it — the property sharded runs rely on."""
        short = materialize_trials(two_cell_spec(trials=3), engine_topology)
        long = materialize_trials(two_cell_spec(trials=6), engine_topology)
        assert long[:3] == short

    def test_materialization_is_reproducible(self, engine_topology):
        spec = two_cell_spec(fractions=(0.0, 0.5))
        assert materialize_trials(spec, engine_topology) == (
            materialize_trials(spec, engine_topology)
        )

    def test_validators_only_drawn_for_fractions(self, engine_topology):
        universal = materialize_trials(two_cell_spec(), engine_topology)
        assert all(t.validating_ases is None for t in universal)
        partial = materialize_trials(
            two_cell_spec(fractions=(0.5,)), engine_topology
        )
        expected = round(0.5 * len(engine_topology))
        assert all(
            len(t.validating_ases) == expected for t in partial
        )


class TestExecutorEquivalence:
    def test_process_matches_serial(self, engine_topology):
        """The headline property: byte-identical aggregated results
        from worker processes (the sharded executor; the test id
        predates the pool executor's removal)."""
        spec = two_cell_spec(trials=6, fractions=(0.0, 0.5, None))
        serial = ExperimentRunner(
            engine_topology, spec, executor="serial"
        ).run(bootstrap_resamples=100)
        parallel = ExperimentRunner(
            engine_topology, spec, executor="sharded", workers=2
        ).run(bootstrap_resamples=100)
        assert serial == parallel

    def test_record_streams_carry_same_set(self, engine_topology):
        spec = two_cell_spec(trials=5)
        serial = list(
            ExperimentRunner(engine_topology, spec).iter_records()
        )
        parallel = list(
            ExperimentRunner(
                engine_topology, spec, executor="sharded", workers=2,
            ).iter_records()
        )
        key = lambda r: r.sort_key  # noqa: E731
        assert sorted(parallel, key=key) == sorted(serial, key=key)
        # More than the same set: every executor streams in grid order.
        assert parallel == serial == sorted(serial, key=key)

    def test_unknown_executor_rejected(self, engine_topology):
        with pytest.raises(ReproError, match="unknown executor"):
            ExperimentRunner(
                engine_topology, two_cell_spec(), executor="threads"
            )

    def test_bad_worker_counts_rejected(self, engine_topology):
        with pytest.raises(ReproError):
            ExperimentRunner(engine_topology, two_cell_spec(), workers=0)
        with pytest.raises(ReproError):
            ExperimentRunner(engine_topology, two_cell_spec(), shards=0)
        with pytest.raises(TypeError):  # the pool's knob went with it
            ExperimentRunner(engine_topology, two_cell_spec(), batch_size=2)


class TestSpecValidation:
    def test_empty_grid_rejected(self):
        with pytest.raises(ReproError):
            ExperimentSpec(cells=(), trials=1)

    def test_zero_trials_rejected(self):
        with pytest.raises(ReproError):
            two_cell_spec(trials=0)

    def test_bad_fraction_rejected(self):
        with pytest.raises(ReproError):
            two_cell_spec(fractions=(1.5,))

    def test_duplicate_cell_names_rejected(self):
        with pytest.raises(ReproError, match="duplicate cell names"):
            ExperimentSpec(
                cells=(
                    ScenarioCell("forged-origin", MinimalRoa()),
                    ScenarioCell("forged-origin", MinimalRoa()),
                ),
                trials=1,
            )

    def test_unknown_seeding_rejected(self):
        """No spec field names a seeding any more; a stored
        ``"seeding"`` still refuses a value no version wrote."""
        with pytest.raises(TypeError):
            two_cell_spec(seeding="derived")
        spec = json.loads(two_cell_spec().to_json())
        with pytest.raises(
            ReproError, match="retired spec key 'seeding' holds 'chaotic'"
        ):
            ExperimentSpec.from_json_dict({**spec, "seeding": "chaotic"})

    def test_unknown_attack_kind_rejected(self):
        with pytest.raises(ReproError, match="unknown attack kind"):
            AttackConfig("route-leak")

    def test_attack_prefix_outside_victim_rejected(self):
        with pytest.raises(ReproError):
            two_cell_spec(attack_prefix=Prefix.parse("9.9.9.0/24"))

    def test_derived_attack_prefix_extends_by_8(self):
        assert two_cell_spec().effective_attack_prefix == (
            Prefix.parse("168.122.0.0/24")
        )

    def test_grid_cross_product(self):
        spec = ExperimentSpec.grid(
            ("subprefix-hijack", "forged-origin-subprefix"),
            (NoRoa(), MinimalRoa()),
            trials=2,
        )
        assert [cell.name for cell in spec.cells] == [
            "subprefix-hijack/none",
            "subprefix-hijack/minimal",
            "forged-origin-subprefix/none",
            "forged-origin-subprefix/minimal",
        ]


class TestJsonRoundTrip:
    def test_full_round_trip(self):
        spec = ExperimentSpec(
            cells=(
                ScenarioCell(
                    AttackConfig("forged-origin", attackers=2, prepend=1),
                    # 1/3 has no short decimal form: pins that the JSON
                    # form carries the exact float, not a rounded label.
                    PartialCoverageRoa(MinimalRoa(), 1 / 3),
                ),
                ScenarioCell(
                    "subprefix-hijack",
                    CustomRoa(
                        (Vrp(Prefix.parse("10.0.0.0/16"), 24, 65001),),
                        name="lab",
                    ),
                ),
            ),
            trials=3,
            seed=9,
            fractions=(0.5, None),
            sampler=FixedPairSampler(111, (666, 667)),
            victim_prefix=Prefix.parse("10.0.0.0/16"),
        )
        assert ExperimentSpec.from_json(spec.to_json()) == spec

    def test_policy_names(self):
        assert policy_from_name("minimal") == MinimalRoa()
        assert policy_from_name("maxlength-loose") == MaxLengthLooseRoa()
        assert policy_from_name("maxlength-22") == MaxLengthLooseRoa(22)
        assert policy_from_name("none") == NoRoa()
        assert policy_from_name("minimal@0.3") == (
            PartialCoverageRoa(MinimalRoa(), 0.3)
        )
        with pytest.raises(ReproError):
            policy_from_name("maximal")

    def test_partial_over_custom_round_trips(self):
        spec = ExperimentSpec(
            cells=(
                ScenarioCell(
                    "subprefix-hijack",
                    PartialCoverageRoa(
                        CustomRoa(
                            (Vrp(Prefix.parse("10.0.0.0/16"), 24, 65001),),
                        ),
                        0.75,
                    ),
                ),
            ),
            trials=1,
        )
        assert ExperimentSpec.from_json(spec.to_json()) == spec

    def test_bad_spec_json_rejected(self):
        with pytest.raises(ReproError):
            ExperimentSpec.from_json("[1, 2]")
        with pytest.raises(ReproError):
            ExperimentSpec.from_json("{bad json")
        with pytest.raises(ReproError, match="missing key"):
            ExperimentSpec.from_json('{"cells": [{"kind": "forged-origin"}]}')
        with pytest.raises(ReproError, match="bad spec JSON value"):
            ExperimentSpec.from_json(
                '{"cells": [{"kind": "forged-origin"}], "trials": "many"}'
            )
        with pytest.raises(ReproError, match="bad cell entry"):
            ExperimentSpec.from_json(
                '{"cells": [{"kind": "forged-origin", '
                '"attackers": "two"}], "trials": 1}'
            )


class TestStrictSpecJson:
    """The spec decoder is an outside-input path (``--spec``, ``POST
    /experiments``, ``jobs submit``, ``shard-worker``): it takes exact
    JSON types and only the spec's own keys, and still reads every
    retired value a stored spec can hold."""

    BASE = {"cells": [{"kind": "subprefix-hijack"}], "trials": 2}

    def decode(self, **fields):
        return ExperimentSpec.from_json(json.dumps({**self.BASE, **fields}))

    @pytest.mark.parametrize("fields", [
        pytest.param({"trials": 2.9}, id="trials-float"),
        pytest.param({"trials": True}, id="trials-bool"),
        pytest.param({"trials": "3"}, id="trials-string"),
        pytest.param({"seed": 1.5}, id="seed-float"),
        pytest.param({"fractions": [True]}, id="fraction-bool"),
        pytest.param({"fractions": ["0.5"]}, id="fraction-string"),
        pytest.param({"fractions": "0.5"}, id="fractions-string"),
        pytest.param({"stop_ci_width": "0.1"}, id="width-string"),
        pytest.param({"stop_min_trials": 4.0}, id="min-trials-float"),
        pytest.param({"stop_check_every": False}, id="check-every-bool"),
        pytest.param({"victim_prefix": 5}, id="victim-prefix-int"),
        pytest.param(
            {"attack_prefix": ["168.122.0.0/24"]}, id="attack-prefix-list"
        ),
        pytest.param(
            {"sampler": {"victim": 1.5, "attackers": [2]}},
            id="sampler-victim-float",
        ),
        pytest.param(
            {"sampler": {"victim": 1, "attackers": "2"}},
            id="sampler-attackers-string",
        ),
        pytest.param(
            {"cells": [{"kind": "subprefix-hijack", "policy": {
                "partial": {"base": "minimal", "coverage": "0.5"},
            }}]},
            id="coverage-string",
        ),
    ])
    def test_inexact_types_rejected(self, fields):
        with pytest.raises(ReproError, match="bad spec JSON value"):
            self.decode(**fields)

    def test_inexact_types_inside_cells_rejected(self):
        with pytest.raises(ReproError, match="bad cell entry"):
            self.decode(cells=[{"kind": "forged-origin", "attackers": 2.0}])
        with pytest.raises(ReproError, match="bad cell entry"):
            self.decode(cells={"kind": "subprefix-hijack"})
        with pytest.raises(ReproError, match="bad custom VRP row"):
            self.decode(cells=[{"kind": "subprefix-hijack", "policy": {
                "custom": [{"prefix": "168.122.0.0/16",
                            "max_length": 24.0, "asn": 111}],
            }}])

    def test_exact_types_accepted(self):
        spec = self.decode(
            seed=7, fractions=[0, 0.5, 1, None], stop_ci_width=1,
        )
        assert spec.fractions == (0.0, 0.5, 1.0, None)
        assert spec.stop_ci_width == 1.0 and spec.trials == 2

    def test_unknown_keys_rejected(self):
        with pytest.raises(ReproError, match=r"unknown keys \['stoping'\]"):
            self.decode(stoping="ci")

    @pytest.mark.parametrize("engine", ["array", "object"])
    def test_stored_engine_read_and_ignored(self, engine):
        assert self.decode(engine=engine) == self.decode()
        assert "engine" not in self.decode(engine=engine).to_json_dict()

    def test_unknown_engine_still_rejected(self):
        with pytest.raises(
            ReproError, match="retired spec key 'engine' holds 'quantum'"
        ):
            self.decode(engine="quantum")
        with pytest.raises(ReproError, match="retired spec key 'engine'"):
            self.decode(engine=["array"])

    def test_stored_stream_seeding_read_as_retired(self):
        """A spec stored when ``"stream"`` seeding was selectable
        decodes (so a queue or run file holding one stays readable),
        re-encodes without the key, and hashes apart from what it was
        stored under (the second literal is its hash then)."""
        spec = self.decode(seeding="stream")
        assert spec == self.decode()
        assert "seeding" not in spec.to_json_dict()
        assert spec.spec_hash() == "e6be1dcf5e7b127d7b9b9b20624691de"
        assert spec.spec_hash() != "0569137fcbbf27da87c7f7fdb3654a4e"

    def test_spec_hash_and_json_form_unchanged(self):
        """The JSON form is the spec's twelve keys, in this order, and
        its hash is pinned: both moved once, when ``"engine"`` and
        ``"seeding"`` left (the hash was ``f520dbe4…`` before)."""
        spec = self.decode()
        assert spec.spec_hash() == "e6be1dcf5e7b127d7b9b9b20624691de"
        assert list(spec.to_json_dict()) == [
            "cells", "trials", "seed", "fractions", "sampler",
            "victim_prefix", "attack_prefix", "executor", "stopping",
            "stop_ci_width", "stop_min_trials", "stop_check_every",
        ]

    def test_emit_spec_bytes_unchanged(self, capsys):
        """``experiment --emit-spec`` prints the pinned bytes (digest
        taken when ``"engine"`` and ``"seeding"`` left the JSON form);
        the hidden ``--engine`` still parses, and changes nothing."""
        from repro.cli import main

        assert main(["experiment", "--emit-spec"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "c5c007f964c92f832354f14688965e24"
            "e39208f717a86ef6321c58bb5292e4a7"
        )
        for engine in ("object", "array"):
            assert main(
                ["experiment", "--emit-spec", "--engine", engine]
            ) == 0
            assert capsys.readouterr().out == out


class TestScenarioDiversity:
    """The scenario space the hand-rolled loops could not express."""

    @pytest.fixture(scope="class")
    def diversity_result(self, engine_topology):
        spec = ExperimentSpec(
            cells=(
                ScenarioCell(AttackConfig("forged-origin"), MinimalRoa()),
                ScenarioCell(
                    AttackConfig("forged-origin", attackers=3), MinimalRoa()
                ),
                ScenarioCell(
                    AttackConfig("forged-origin", prepend=3), MinimalRoa()
                ),
                ScenarioCell(
                    "forged-origin-subprefix",
                    PartialCoverageRoa(MinimalRoa(), 0.5),
                ),
            ),
            trials=8,
            seed=3,
        )
        return ExperimentRunner(engine_topology, spec).run(
            bootstrap_resamples=100
        )

    def test_more_attackers_capture_more(self, diversity_result):
        single = diversity_result.cell("forged-origin/minimal")
        triple = diversity_result.cell("forged-origin+x3/minimal")
        assert triple.mean > single.mean

    def test_prepending_weakens_the_attack(self, diversity_result):
        plain = diversity_result.cell("forged-origin/minimal")
        prepended = diversity_result.cell("forged-origin+prepend3/minimal")
        assert prepended.mean < plain.mean

    def test_partial_coverage_mixes_outcomes(self, diversity_result):
        """Each trial's victim either issued the minimal ROA (capture 0)
        or did not (capture 1): the average sits strictly between."""
        partial = diversity_result.cell(
            "forged-origin-subprefix/minimal@0.5"
        )
        assert set(partial.values) <= {0.0, 1.0}
        assert 0.0 < partial.mean < 1.0

    def test_partial_coverage_validates(self):
        with pytest.raises(ReproError):
            PartialCoverageRoa(MinimalRoa(), 1.5)
        with pytest.raises(ReproError, match="nest"):
            PartialCoverageRoa(PartialCoverageRoa(MinimalRoa(), 0.5), 0.5)

    def test_fixed_pair_sampler_pins_the_cast(self, engine_topology):
        stubs = sorted(engine_topology.stub_ases())
        victim, attacker = stubs[0], stubs[-1]
        spec = ExperimentSpec(
            cells=(ScenarioCell("subprefix-hijack", NoRoa()),),
            trials=3,
            sampler=FixedPairSampler(victim, (attacker,)),
        )
        records = list(
            ExperimentRunner(engine_topology, spec).iter_records()
        )
        assert {(r.victim, r.attackers) for r in records} == {
            (victim, (attacker,))
        }

    def test_fixed_pair_sampler_rejects_overlap(self):
        with pytest.raises(ReproError, match="distinct"):
            FixedPairSampler(1, (1,))

    def test_any_as_sampler_uses_whole_topology(self, engine_topology):
        pool = AnyAsPairSampler().population(engine_topology)
        assert pool == tuple(sorted(engine_topology.ases))
        assert len(pool) > len(StubPairSampler().population(engine_topology))

    def test_sampler_rejects_tiny_population(self):
        with pytest.raises(ReproError, match="cannot cast"):
            StubPairSampler().sample((1,), random.Random(0), 1)


class TestAggregation:
    def test_single_trial_stats(self, engine_topology):
        spec = two_cell_spec(trials=1)
        result = ExperimentRunner(engine_topology, spec).run(
            bootstrap_resamples=50
        )
        stats = result.stats[0][0]
        assert stats.trials == 1
        assert stats.stdev == 0.0
        assert stats.ci_low == stats.ci_high == stats.mean

    def test_ci_brackets_the_mean(self, engine_topology):
        spec = ExperimentSpec(
            cells=(ScenarioCell("forged-origin", MinimalRoa()),),
            trials=10,
            seed=2,
        )
        stats = ExperimentRunner(engine_topology, spec).run(
            bootstrap_resamples=300
        ).stats[0][0]
        assert min(stats.values) <= stats.ci_low <= stats.mean
        assert stats.mean <= stats.ci_high <= max(stats.values)

    def test_fractions_sum_to_one(self, engine_topology):
        spec = two_cell_spec(trials=2)
        for record in ExperimentRunner(engine_topology, spec).iter_records():
            total = (
                record.attacker_fraction
                + record.victim_fraction
                + record.disconnected_fraction
            )
            assert total == pytest.approx(1.0)

    def test_filtered_fraction_full_deployment(self, engine_topology):
        spec = ExperimentSpec(
            cells=(ScenarioCell("subprefix-hijack", MinimalRoa()),),
            trials=3,
        )
        stats = ExperimentRunner(engine_topology, spec).run(
            bootstrap_resamples=50
        ).stats[0][0]
        assert stats.filtered_fraction == 1.0
        assert stats.mean == 0.0

    def test_missing_records_rejected(self, engine_topology):
        spec = two_cell_spec(trials=2)
        records = list(
            ExperimentRunner(engine_topology, spec).iter_records()
        )
        with pytest.raises(ReproError, match="1 of 2 trials"):
            aggregate_records(spec, records[:-2])

    def test_duplicate_records_rejected(self, engine_topology):
        spec = two_cell_spec(trials=1)
        records = list(
            ExperimentRunner(engine_topology, spec).iter_records()
        )
        with pytest.raises(ReproError, match="duplicate record"):
            aggregate_records(spec, records + records)

    def test_cell_lookup_errors(self, engine_topology):
        result = ExperimentRunner(
            engine_topology, two_cell_spec(trials=1)
        ).run(bootstrap_resamples=50)
        with pytest.raises(ReproError, match="no cell named"):
            result.cell("nonexistent")
        with pytest.raises(ReproError, match="no fraction"):
            result.cell("forged-origin-subprefix/minimal", 0.3)

    def test_render_mentions_every_cell(self, engine_topology):
        result = ExperimentRunner(
            engine_topology, two_cell_spec(trials=2, fractions=(0.0, 1.0))
        ).run(bootstrap_resamples=50)
        text = result.render()
        assert "forged-origin-subprefix/minimal" in text
        assert "0%" in text and "100%" in text
        assert "bootstrap CI" in text


class TestLegacyReplay:
    """The study adapters' seeded numbers, pinned exactly.

    Golden values were captured from the original hand-rolled loops
    (one sequential ``random.Random`` stream per study) before the
    engine rewrite, re-pinned three times as the same-prefix tie-break
    changed (``forged_origin_minimal`` only; the subprefix numbers
    never moved), and once more when the studies left the shared
    stream for per-trial derived seeds, which draws new casts:
    ``forged_origin_minimal`` 0.3407335907335907 → 0.4189189189189189,
    deployment point 0 (subprefix and forged-subprefix vs minimal)
    0.28378378378378377 → 0.3621621621621621, point 1 subprefix
    0.0 → 0.005405405405405406.  Each holds on both engines, the
    product path and the reference engine, which
    ``test_goldens_hold_on_the_object_engine`` runs.
    """

    @pytest.fixture(scope="class")
    def replay_topology(self):
        return generate_topology(TopologyProfile(ases=150), random.Random(5))

    def test_hijack_study_golden(self, replay_topology):
        from repro.analysis import run_hijack_study

        result = run_hijack_study(replay_topology, samples=7, seed=42)
        assert result.subprefix_no_rpki == 1.0
        assert result.forged_subprefix_nonminimal == 1.0
        assert result.forged_subprefix_minimal == 0.0
        assert result.forged_origin_minimal == 0.4189189189189189

    def test_deployment_sweep_golden(self, replay_topology):
        from repro.analysis import run_deployment_sweep

        sweep = run_deployment_sweep(
            replay_topology, fractions=(0.25, 0.75), samples=5, seed=9
        )
        assert sweep.points[0].subprefix_hijack == 0.3621621621621621
        assert sweep.points[0].forged_subprefix_vs_minimal == (
            0.3621621621621621
        )
        assert sweep.points[0].forged_subprefix_vs_nonminimal == 1.0
        assert sweep.points[1].subprefix_hijack == 0.005405405405405406

    def test_goldens_hold_on_the_object_engine(
        self, replay_topology, reference_engine
    ):
        """The two goldens above run the product path; the reference
        engine is pinned to the same numbers directly, not only
        through the comparisons of invariant 3."""
        from repro.analysis import run_deployment_sweep, run_hijack_study

        with reference_engine():
            result = run_hijack_study(replay_topology, samples=7, seed=42)
            sweep = run_deployment_sweep(
                replay_topology, fractions=(0.25, 0.75), samples=5, seed=9,
            )
        assert result.subprefix_no_rpki == 1.0
        assert result.forged_subprefix_nonminimal == 1.0
        assert result.forged_subprefix_minimal == 0.0
        assert result.forged_origin_minimal == 0.4189189189189189

        assert sweep.points[0].subprefix_hijack == 0.3621621621621621
        assert sweep.points[0].forged_subprefix_vs_minimal == (
            0.3621621621621621
        )
        assert sweep.points[0].forged_subprefix_vs_nonminimal == 1.0
        assert sweep.points[1].subprefix_hijack == 0.005405405405405406

    def test_studies_identical_across_executors(self, replay_topology):
        from repro.analysis import run_deployment_sweep, run_hijack_study

        assert run_hijack_study(
            replay_topology, samples=4, seed=1
        ) == run_hijack_study(
            replay_topology, samples=4, seed=1,
            executor="sharded", workers=2,
        )
        assert run_deployment_sweep(
            replay_topology, fractions=(0.5,), samples=3, seed=2
        ) == run_deployment_sweep(
            replay_topology, fractions=(0.5,), samples=3, seed=2,
            executor="sharded", workers=2,
        )


class TestEvaluateTrial:
    def test_records_carry_grid_coordinates(self, engine_topology):
        spec = two_cell_spec(trials=1, fractions=(0.0, 1.0))
        trials = materialize_trials(spec, engine_topology)
        records = evaluate_trial(engine_topology, spec, trials[-1])
        assert [r.cell_index for r in records] == [0, 1]
        assert all(r.fraction_index == 1 for r in records)
        assert all(r.fraction == 1.0 for r in records)
        assert records[0].cell == "forged-origin-subprefix/minimal"

    def test_cells_share_the_trial_tie_seed(self, engine_topology):
        """The paired design: every cell of a trial breaks ties with
        the trial's one tie seed, so cell 1 evaluated alone — the same
        cast, the same tie seed — has the record it has beside cell 0
        (whose ties consume nothing it reads)."""
        spec = ExperimentSpec(
            cells=(
                ScenarioCell("forged-origin", MinimalRoa()),
                ScenarioCell("forged-origin", NoRoa()),
            ),
            trials=3,
            seed=0,
        )
        solo_spec = ExperimentSpec(cells=(spec.cells[1],), trials=3, seed=0)
        for trial in materialize_trials(spec, engine_topology):
            paired = evaluate_trial(engine_topology, spec, trial)
            solo = evaluate_trial(engine_topology, solo_spec, TrialSpec(
                fraction_index=0, trial_index=trial.trial_index,
                victim=trial.victim, attackers=trial.attackers,
                validating_ases=None, tie_seed=trial.tie_seed,
            ))
            assert solo == [dataclasses.replace(paired[1], cell_index=0)]

    def test_cell_order_leaves_records_unchanged(self, engine_topology):
        """Reordering a spec's cells moves no same-prefix or
        multi-attacker record: a tie-break is a function of (tie seed,
        AS, neighbor), not a position in a stream the cells share."""
        cells = (
            ScenarioCell("forged-origin", MinimalRoa()),
            ScenarioCell(
                AttackConfig("forged-origin-subprefix", attackers=2),
                MaxLengthLooseRoa(),
            ),
            ScenarioCell("prefix-hijack", NoRoa()),
            ScenarioCell(AttackConfig("forged-origin", prepend=1), NoRoa()),
            ScenarioCell(
                AttackConfig("prefix-hijack", attackers=2), MinimalRoa()
            ),
        )
        spec = ExperimentSpec(
            cells=cells, trials=6, seed=4, fractions=(0.0, 0.5, None)
        )

        def by_cell(spec):
            return {
                (record.cell, record.fraction_index, record.trial_index):
                    dataclasses.replace(record, cell_index=0)
                for trial in materialize_trials(spec, engine_topology)
                for record in evaluate_trial(engine_topology, spec, trial)
            }

        forward = by_cell(spec)
        assert by_cell(dataclasses.replace(spec, cells=cells[::-1])) == (
            forward
        )
        assert len(forward) == 5 * 3 * 6
        assert len({
            record.attacker_fraction for record in forward.values()
        }) > 5


#: Each cell's mean and 95 % bootstrap CI on the default-kinds grid
#: (fractions 0.2/0.5/0.8 × 25 trials, spec seed 2017) at 1 000 ASes,
#: captured with ``tests/ci_table.py`` under the stream tie-break that
#: the keyed hash replaced: ``(cell, fraction, mean, ci_low, ci_high)``.
_STREAM_RULE_CIS = {
    2017: (
        ("forged-origin-subprefix/minimal", 0.2, 0.40264529058116233,
         0.2827655310621242, 0.5172344689378758),
        ("forged-origin-subprefix/maxlength-loose", 0.2, 1.0, 1.0, 1.0),
        ("forged-origin/minimal", 0.2, 0.32541082164328655,
         0.22440881763527057, 0.4371943887775551),
        ("forged-origin/maxlength-loose", 0.2, 0.3218436873747495,
         0.22416833667334668, 0.4268537074148297),
        ("forged-origin-subprefix/minimal", 0.5, 0.05234468937875752,
         0.022845691382765536, 0.087374749498998),
        ("forged-origin-subprefix/maxlength-loose", 0.5, 1.0, 1.0, 1.0),
        ("forged-origin/minimal", 0.5, 0.2818036072144289,
         0.20921843687374747, 0.3593987975951904),
        ("forged-origin/maxlength-loose", 0.5, 0.2867735470941884,
         0.2088176352705411, 0.3749098196392786),
        ("forged-origin-subprefix/minimal", 0.8, 0.0, 0.0, 0.0),
        ("forged-origin-subprefix/maxlength-loose", 0.8, 1.0, 1.0, 1.0),
        ("forged-origin/minimal", 0.8, 0.3814028056112224,
         0.28380761523046094, 0.47334669338677365),
        ("forged-origin/maxlength-loose", 0.8, 0.43839679358717437,
         0.3375551102204408, 0.5466533066132265),
    ),
    11: (
        ("forged-origin-subprefix/minimal", 0.2, 0.35238476953907816,
         0.2476152304609218, 0.45062124248496993),
        ("forged-origin-subprefix/maxlength-loose", 0.2, 1.0, 1.0, 1.0),
        ("forged-origin/minimal", 0.2, 0.3329058116232465,
         0.2533466933867736, 0.41683366733466926),
        ("forged-origin/maxlength-loose", 0.2, 0.34220440881763525,
         0.26669338677354704, 0.41547094188376754),
        ("forged-origin-subprefix/minimal", 0.5, 0.03398797595190381,
         0.007855711422845692, 0.06484969939879759),
        ("forged-origin-subprefix/maxlength-loose", 0.5, 1.0, 1.0, 1.0),
        ("forged-origin/minimal", 0.5, 0.37983967935871743,
         0.2839679358717435, 0.4890581162324649),
        ("forged-origin/maxlength-loose", 0.5, 0.32921843687374747,
         0.244128256513026, 0.434308617234469),
        ("forged-origin-subprefix/minimal", 0.8, 0.0009619238476953908,
         0.0, 0.0028857715430861725),
        ("forged-origin-subprefix/maxlength-loose", 0.8, 1.0, 1.0, 1.0),
        ("forged-origin/minimal", 0.8, 0.3232865731462926,
         0.23098196392785567, 0.4171943887775551),
        ("forged-origin/maxlength-loose", 0.8, 0.3034068136272545,
         0.21070140280561125, 0.3947895791583166),
    ),
}


class TestSamePrefixDistribution:
    """The tie-break changed how attacker and victim split a prefix,
    not the distribution of the split: every same-prefix mean lies
    inside the stream rule's 95 % bootstrap CI, and no subprefix mean
    moved at all."""

    @pytest.mark.parametrize("topology_seed", sorted(_STREAM_RULE_CIS))
    def test_means_inside_the_stream_rule_cis(self, topology_seed):
        reference = {
            (cell, fraction): (mean, low, high)
            for cell, fraction, mean, low, high
            in _STREAM_RULE_CIS[topology_seed]
        }
        rows = beside(reference, cell_cis(1000, topology_seed))
        assert sum(row.same_prefix for row in rows) == 6
        for row in rows:
            if row.same_prefix:
                assert row.inside, row
            else:
                assert row.mean == row.reference_mean, row


def _reference_bootstrap_ci(values, rng, resamples, confidence):
    """``_bootstrap_ci`` as it read before ``rng.choices`` was inlined."""
    n = len(values)
    if n == 1:
        return values[0], values[0]
    means = sorted(
        sum(rng.choices(values, k=n)) / n for _ in range(resamples)
    )
    tail = (1.0 - confidence) / 2.0
    low_index = min(int(tail * resamples), resamples - 1)
    high_index = max(int((1.0 - tail) * resamples) - 1, 0)
    return means[low_index], means[high_index]


class _CountingRandom(random.Random):
    """A subclass: the draws must go through its own ``sample``."""

    calls = 0

    def sample(self, population, k, **kwargs):
        type(self).calls += 1
        return super().sample(population, k, **kwargs)


class TestInlinedStdlibDraws:
    """The two stdlib calls written out in the trial loop, against the
    one-line originals: same values, same random stream."""

    @pytest.mark.parametrize("values", [
        (0.25, 0.5),
        (0.0, 1.0, 0.0, 0.0, 1.0),
        tuple(i / 97 for i in range(25)),
        [0.1] * 24 + [0.30000000000000004],
        tuple(map(random.Random(3).uniform, [0.0] * 64, [1.0] * 64)),
    ], ids=["pair", "binary", "ramp", "one-off", "uniform"])
    @pytest.mark.parametrize("resamples,confidence", [
        (1, 0.95), (50, 0.95), (250, 0.9), (1000, 0.99),
    ])
    def test_bootstrap_equals_rng_choices(self, values, resamples, confidence):
        from repro.exper.aggregate import _bootstrap_ci

        inlined, reference = random.Random(11), random.Random(11)
        assert _bootstrap_ci(
            values, inlined, resamples, confidence
        ) == _reference_bootstrap_ci(values, reference, resamples, confidence)
        assert inlined.getstate() == reference.getstate()

    @pytest.mark.parametrize("values", [
        (0.0,), (1.0,), (0.1,) * 3, (0.1,) * 25, [1 / 3] * 7, (0.7,) * 64,
    ])
    def test_constant_sample_draws_nothing(self, values):
        from repro.exper.aggregate import _bootstrap_ci

        rng = random.Random(5)
        before = rng.getstate()
        assert _bootstrap_ci(values, rng, 200, 0.95) == (
            _reference_bootstrap_ci(values, random.Random(5), 200, 0.95)
        )
        assert rng.getstate() == before

    def test_prefix_ci_width_unchanged(self):
        from repro.exper.aggregate import _stop_seed, prefix_ci_width

        rng = random.Random(9)
        values = [rng.random() for _ in range(40)]
        for prefix in (1, 2, 8, 40):
            head = values[:prefix]
            low, high = _reference_bootstrap_ci(
                head, random.Random(_stop_seed(5, 1, 2, prefix)), 250, 0.95
            )
            assert prefix_ci_width(head, 5, 1, 2) == high - low
        assert prefix_ci_width([0.3] * 16, 5, 0, 0) == 0.0

    #: Population sizes on both sides of ``random.sample``'s switch from
    #: a swapped pool to a set of picked indices, for small and large k.
    SIZES = (1, 7, 21, 22, 85, 86, 277, 278, 1000, 5000)

    @staticmethod
    def _counts(n):
        return sorted({0, 1, 5, 6, n // 2, n - 1, n} & set(range(n + 1)))

    @pytest.mark.parametrize("n", SIZES)
    def test_validator_draw_equals_rng_sample(self, n):
        from repro.exper.spec import _draw_validators

        population = tuple(range(100, 100 + 3 * n, 3))
        for count in self._counts(n):
            inlined, reference = random.Random(n + count), random.Random(n + count)
            drawn = _draw_validators(inlined, population, count)
            expected = frozenset(reference.sample(population, count))
            assert drawn == expected and isinstance(drawn, frozenset)
            # Same picks in the same order, not merely the same set: a
            # set's iteration order can depend on insertion order.
            assert list(drawn) == list(expected)
            assert inlined.getstate() == reference.getstate()

    def test_validator_draw_inlines_where_sample_pools(self, monkeypatch):
        from repro.exper import spec as spec_module

        assert spec_module._FAST_SAMPLE  # CPython 3.11 / 3.12
        # The inlined branch really runs (else the tests above compare
        # rng.sample with itself): no call reaches rng.sample ...
        monkeypatch.setattr(
            random.Random, "sample",
            lambda *a, **k: pytest.fail("rng.sample called"),
        )
        population = tuple(range(10_000))
        for count in (2_500, 5_000, 10_000):
            assert len(
                spec_module._draw_validators(
                    random.Random(1), population, count
                )
            ) == count

    @pytest.mark.parametrize("n", (21, 64, 278, 1000))
    def test_validator_draw_falls_back(self, n, monkeypatch):
        from repro.exper import spec as spec_module

        population = tuple(range(n))
        # ... a Random subclass keeps its own sample() ...
        for count in self._counts(n):
            _CountingRandom.calls = 0
            inlined, reference = _CountingRandom(n), random.Random(n)
            assert spec_module._draw_validators(
                inlined, population, count
            ) == frozenset(reference.sample(population, count))
            assert _CountingRandom.calls == 1
            assert inlined.getstate() == reference.getstate()
        # ... and so does everything when the import probe failed.
        monkeypatch.setattr(spec_module, "_FAST_SAMPLE", False)
        monkeypatch.setattr(
            spec_module, "_pool_sample",
            lambda *a: pytest.fail("inlined draw used"),
        )
        for count in self._counts(n):
            inlined, reference = random.Random(n), random.Random(n)
            assert spec_module._draw_validators(
                inlined, population, count
            ) == frozenset(reference.sample(population, count))
            assert inlined.getstate() == reference.getstate()

    def test_trials_are_those_of_rng_sample(self, engine_topology, monkeypatch):
        from repro.exper import spec as spec_module

        spec = two_cell_spec(trials=3, fractions=(0.0, 0.05, 0.5, 1.0, None))
        drawn = materialize_trials(spec, engine_topology)
        monkeypatch.setattr(spec_module, "_FAST_SAMPLE", False)
        assert drawn == materialize_trials(spec, engine_topology)
