"""Tests for the trial-throughput overhaul.

Two pillars:

* the :class:`PropagationWorkspace` path — batched/workspace-reusing
  evaluation is byte-identical to per-trial allocation, including on
  the PR 2/PR 3 golden specs;
* the executor overhaul — local shard workers match the serial run,
  surface their exceptions and leave no process or temporary shard
  store behind, trials stream lazily, and CI-width early stopping is
  deterministic across executors while ``stopping="none"`` stays
  byte-identical to the pre-stopping engine.
"""

from __future__ import annotations

import contextlib
import dataclasses
import glob
import multiprocessing
import os
import random
import tempfile
import types

import pytest

from repro.bgp import (
    AsTopology,
    PropagationWorkspace,
    Seed,
    VrpIndex,
    evaluate_attack_seeds,
    reference_attack_seeds,
)
from repro.data.asgraph import TopologyProfile, generate_topology
from repro.exper import (
    ExperimentRunner,
    ExperimentSpec,
    FixedPairSampler,
    MaxLengthLooseRoa,
    MinimalRoa,
    ScenarioCell,
    evaluate_trial,
    evaluate_trials,
    iter_trials,
    materialize_trials,
)
from repro.netbase import Prefix
from repro.netbase.errors import ReproError
from repro.obs import MetricsRegistry
from repro.rpki import Vrp

PFX = Prefix.parse("168.122.0.0/16")
SUB = Prefix.parse("168.122.0.0/24")


@pytest.fixture(scope="module")
def topology():
    return generate_topology(TopologyProfile(ases=200), random.Random(8))


def stopping_spec(**kwargs) -> ExperimentSpec:
    defaults = dict(
        cells=(
            ScenarioCell("forged-origin-subprefix", MinimalRoa()),
            ScenarioCell("forged-origin-subprefix", MaxLengthLooseRoa()),
        ),
        trials=40,
        seed=5,
        stopping="ci",
        stop_ci_width=0.4,
        stop_min_trials=6,
        stop_check_every=3,
    )
    defaults.update(kwargs)
    return ExperimentSpec(**defaults)


class TestWorkspaceEquivalence:
    """Workspace reuse is byte-identical to a transient workspace per
    call, and both to the reference engine (independent code)."""

    def _scenario_grid(self, topology):
        stubs = sorted(topology.stub_ases())
        victim, attacker, attacker2 = stubs[1], stubs[-2], stubs[5]
        half = frozenset(
            random.Random(3).sample(sorted(topology.ases), 100)
        )
        return victim, [
            (SUB, (Seed.forged_origin(attacker, victim),),
             VrpIndex([Vrp(PFX, 16, victim)]), None),
            (SUB, (Seed.forged_origin(attacker, victim),),
             VrpIndex([Vrp(PFX, 24, victim)]), None),
            (SUB, (Seed.origin(attacker),), None, None),
            (SUB, (Seed.origin(attacker),),
             VrpIndex([Vrp(PFX, 20, victim)]), half),
            (PFX, (Seed.forged_origin(attacker, victim),),
             VrpIndex([Vrp(PFX, 16, victim)]), half),
            (SUB, (Seed.origin(attacker),
                   Seed.forged_origin(attacker2, victim)),
             VrpIndex([Vrp(PFX, 16, victim)]), None),
        ]

    def test_results_identical(self, topology):
        victim, cases = self._scenario_grid(topology)
        workspace = PropagationWorkspace(topology)
        # Two passes through the same workspace: the second is served
        # from cached profiles, and must still match the transient one
        # — and the reference engine, which shares no code with either.
        for tie_seed in (11, 12):
            for attack_prefix, seeds, vrps, validators in cases:
                options = dict(
                    vrp_index=vrps, validating_ases=validators,
                    tie_seed=tie_seed,
                )
                with_ws = evaluate_attack_seeds(
                    topology, victim, PFX, attack_prefix, seeds,
                    workspace=workspace, **options,
                )
                fresh = evaluate_attack_seeds(
                    topology, victim, PFX, attack_prefix, seeds, **options
                )
                reference = reference_attack_seeds(
                    topology, victim, PFX, attack_prefix, seeds, **options
                )
                assert with_ws == fresh == reference

    def test_all_subprefix_trials_never_sweep(
        self, topology, reference_engine
    ):
        """A sec. 4/5 grid — every cell a subprefix attack — is closures
        throughout, with the records of the reference engine."""
        spec = ExperimentSpec(
            cells=(
                ScenarioCell("forged-origin-subprefix", MinimalRoa()),
                ScenarioCell("forged-origin-subprefix", MaxLengthLooseRoa()),
                ScenarioCell("subprefix-hijack", MinimalRoa()),
            ),
            trials=3,
            seed=21,
            fractions=(0.0, 0.5, None),
        )
        trials = materialize_trials(spec, topology)
        registry = MetricsRegistry()
        workspace = PropagationWorkspace(topology, registry=registry)
        records = list(
            evaluate_trials(topology, spec, trials, workspace=workspace)
        )
        with reference_engine():
            assert records == [
                record
                for trial in trials
                for record in evaluate_trial(topology, spec, trial)
            ]
        counters = registry.snapshot()
        assert counters["fastprop.sweeps"] == 0
        assert counters["fastprop.closures"] == (
            counters["fastprop.profile_misses"]
        )
        assert counters["fastprop.profile_hits"] > 0

    def test_default_kinds_grid_sweeps_only_same_prefix_cells(self, topology):
        """The CLI's default kinds × policies grid: one race per
        same-prefix cell and trial, and at most three closures a trial
        (the covering route, the attack once per RFC 6811 verdict)."""
        cells = tuple(
            ScenarioCell(kind, policy)
            for kind in ("forged-origin-subprefix", "forged-origin")
            for policy in (MinimalRoa(), MaxLengthLooseRoa())
        )
        spec = ExperimentSpec(
            cells=cells, trials=4, seed=21, fractions=(0.0, 0.5, None),
        )
        trials = materialize_trials(spec, topology)
        registry = MetricsRegistry()
        workspace = PropagationWorkspace(topology, registry=registry)
        for _ in evaluate_trials(topology, spec, trials, workspace=workspace):
            pass
        counters = registry.snapshot()
        assert counters["fastprop.sweeps"] == 2 * len(trials)
        assert 0 < counters["fastprop.closures"] <= 3 * len(trials)

    @pytest.mark.parametrize("engine", ["object", "array"])
    def test_same_prefix_records_ignore_preceding_cells(
        self, topology, engine, reference_engine
    ):
        """Cell-order independence: a same-prefix cell behind
        subprefix cells has the records it has when it is the grid's
        only cell.  On the product path and on the reference engine."""
        same_prefix = ScenarioCell("forged-origin", MinimalRoa())
        alone = ExperimentSpec(
            cells=(same_prefix,), trials=4, seed=21,
            fractions=(0.0, 0.5, None),
        )
        behind = dataclasses.replace(alone, cells=(
            ScenarioCell("forged-origin-subprefix", MinimalRoa()),
            ScenarioCell("subprefix-hijack", MaxLengthLooseRoa()),
            same_prefix,
        ))

        def same_prefix_records(spec):
            return [
                dataclasses.replace(record, cell_index=0)
                for trial in materialize_trials(spec, topology)
                for record in evaluate_trial(topology, spec, trial)
                if record.cell == same_prefix.name
            ]

        with (
            reference_engine() if engine == "object"
            else contextlib.nullcontext()
        ):
            records = same_prefix_records(alone)
            assert same_prefix_records(behind) == records
        assert len(records) == 12
        assert len({record.attacker_fraction for record in records}) > 1

    @pytest.mark.parametrize("golden", ["hijack", "deployment"])
    def test_golden_specs_byte_identical(self, topology, golden):
        """The PR 2/PR 3 golden specs through the workspace path."""
        from repro.analysis.deployment import deployment_sweep_spec
        from repro.analysis.hijack_eval import hijack_study_spec

        if golden == "hijack":
            spec = hijack_study_spec(samples=5, seed=42)
        else:
            spec = deployment_sweep_spec(fractions=(0.5,), samples=3, seed=9)
        trials = materialize_trials(spec, topology)
        per_trial = [
            record
            for trial in trials
            for record in evaluate_trial(topology, spec, trial)
        ]
        workspace_records = list(
            evaluate_trials(topology, spec, trials)
        )
        assert workspace_records == per_trial

    def test_workspace_survives_seed_errors(self, topology):
        workspace = PropagationWorkspace(topology)
        victim = min(topology.stub_ases())
        with pytest.raises(Exception):
            evaluate_attack_seeds(
                topology, victim, PFX, SUB, [Seed.origin(10 ** 9)],
                workspace=workspace,
            )
        # Nothing of the failed call lingers: later evaluations match.
        attacker = max(topology.stub_ases())
        assert evaluate_attack_seeds(
            topology, victim, PFX, SUB, [Seed.origin(attacker)],
            workspace=workspace,
        ) == evaluate_attack_seeds(
            topology, victim, PFX, SUB, [Seed.origin(attacker)],
        )


class TestLazyTrials:
    def test_iter_trials_is_lazy(self, topology):
        spec = stopping_spec(stopping="none")
        trials = iter_trials(spec, topology)
        assert isinstance(trials, types.GeneratorType)
        head = [next(trials) for _ in range(3)]
        assert head == materialize_trials(spec, topology)[:3]

    def test_runner_streams_on_demand(self, topology, monkeypatch):
        """The serial runner pulls trials as it evaluates them; it
        never materializes the grid up front."""
        import repro.exper.runner as runner_module

        produced: list = []
        real = runner_module.iter_trials

        def spy(spec, topo, **kwargs):
            for trial in real(spec, topo, **kwargs):
                produced.append(trial)
                yield trial

        monkeypatch.setattr(runner_module, "iter_trials", spy)
        spec = stopping_spec(stopping="none", trials=50)
        records = ExperimentRunner(topology, spec).iter_records()
        next(records)
        assert len(produced) <= 2
        records.close()


class TestSharedMemoryLifecycle:
    """What a local sharded run leaves behind: nothing.  Every worker
    is reaped and the temporary shard store is removed, on shutdown and
    on a worker exception.  (The ids predate the shared-memory segment's
    removal: workers now get the topology as a process argument.)"""

    @contextlib.contextmanager
    def _leaves_nothing(self):
        pattern = os.path.join(tempfile.gettempdir(), "repro-shards-*")
        before = set(glob.glob(pattern))
        yield
        assert multiprocessing.active_children() == []
        assert set(glob.glob(pattern)) == before

    def test_unlinked_on_shutdown(self, topology):
        spec = stopping_spec(stopping="none", trials=4)
        runner = ExperimentRunner(
            topology, spec, executor="sharded", workers=2
        )
        with self._leaves_nothing():
            result = runner.run(bootstrap_resamples=50)
        serial = ExperimentRunner(topology, spec).run(
            bootstrap_resamples=50
        )
        assert result == serial

    def test_unlinked_on_worker_exception(self):
        tiny = AsTopology.from_edges([(1, 2, "c2p")])
        spec = ExperimentSpec(
            cells=(ScenarioCell("forged-origin-subprefix", MinimalRoa()),),
            trials=2,
            sampler=FixedPairSampler(1, (2,)),
        )
        runner = ExperimentRunner(
            tiny, spec, executor="sharded", workers=2
        )
        with self._leaves_nothing():
            with pytest.raises(ReproError, match="too small"):
                list(runner.iter_records())

    def test_object_engine_workers_rebuild_topology(
        self, topology, reference_engine
    ):
        """Workers draw their trials from the coordinator's topology
        (inherited under fork, unpickled and recompiled under spawn)
        and evaluate on its compiled form — and the sharded run equals
        the serial run of the reference engine."""
        spec = stopping_spec(stopping="none", trials=4)
        parallel = ExperimentRunner(
            topology, spec, executor="sharded", workers=2
        ).run(bootstrap_resamples=50)
        with reference_engine():
            serial = ExperimentRunner(topology, spec).run(
                bootstrap_resamples=50
            )
        assert serial == parallel


class TestEarlyStopping:
    def test_stops_below_cap_and_matches_across_executors(self, topology):
        spec = stopping_spec()
        serial = ExperimentRunner(topology, spec).run(
            bootstrap_resamples=100
        )
        parallel = ExperimentRunner(
            topology, spec, executor="sharded", workers=2
        ).run(bootstrap_resamples=100)
        assert serial == parallel
        assert serial.trial_counts[0] < spec.trials
        assert serial.trial_counts[0] >= spec.stop_min_trials
        assert all(
            stats.trials == serial.trial_counts[0]
            for stats in serial.stats[0]
        )

    def test_tight_threshold_never_stops(self, topology):
        spec = stopping_spec(
            stop_ci_width=1e-12, trials=10,
            cells=(ScenarioCell("forged-origin", MinimalRoa()),),
        )
        result = ExperimentRunner(topology, spec).run(
            bootstrap_resamples=100
        )
        assert result.trial_counts == (10,)

    def test_stopping_none_matches_pre_stopping_records(self, topology):
        """stopping="none" is byte-identical to evaluating every trial
        directly — the pre-overhaul contract."""
        spec = stopping_spec(stopping="none", trials=6)
        direct = [
            record
            for trial in materialize_trials(spec, topology)
            for record in evaluate_trial(topology, spec, trial)
        ]
        streamed = list(
            ExperimentRunner(topology, spec).iter_records()
        )
        assert streamed == direct

    def test_early_stop_leaves_later_fractions_unchanged(self, topology):
        """Stopping a fraction early must not change later fractions'
        trials: a trial nobody wants is skipped without drawing, and
        every trial draws from its own derived seed."""
        spec = stopping_spec(
            fractions=(0.0, 1.0), trials=20,
            stop_min_trials=4, stop_check_every=2,
        )
        stopped = ExperimentRunner(topology, spec).run(
            bootstrap_resamples=100
        )
        full = ExperimentRunner(
            topology, dataclasses.replace(spec, stopping="none")
        ).run(bootstrap_resamples=100)
        assert stopped.trial_counts[0] < 20
        count = stopped.trial_counts[1]
        for cell_index in range(len(spec.cells)):
            assert (
                stopped.stats[1][cell_index].values
                == full.stats[1][cell_index].values[:count]
            )

    def test_stopped_result_matches_truncated_full_run(self, topology):
        """Early-stopped values are exactly the full run's prefix."""
        spec = stopping_spec()
        stopped = ExperimentRunner(topology, spec).run(
            bootstrap_resamples=100
        )
        full = ExperimentRunner(
            topology, dataclasses.replace(spec, stopping="none")
        ).run(bootstrap_resamples=100)
        count = stopped.trial_counts[0]
        for cell_index in range(len(spec.cells)):
            assert (
                stopped.stats[0][cell_index].values
                == full.stats[0][cell_index].values[:count]
            )

    def test_streaming_aggregation_recovers_counts(self, topology):
        """The documented streaming pattern works under stopping:
        aggregate_records derives per-fraction counts from the record
        stream itself."""
        from repro.exper import aggregate_records

        spec = stopping_spec()
        runner = ExperimentRunner(topology, spec)
        streamed = aggregate_records(
            spec, runner.iter_records(), bootstrap_resamples=100
        )
        direct = ExperimentRunner(topology, spec).run(
            bootstrap_resamples=100
        )
        assert streamed == direct
        assert streamed.trial_counts[0] < spec.trials

    def test_streaming_aggregation_rejects_gaps(self, topology):
        from repro.exper import aggregate_records

        spec = stopping_spec()
        records = list(
            ExperimentRunner(topology, spec).iter_records()
        )
        # Drop one mid-stream trial: the stray later records must trip
        # the gap check rather than silently shortening the prefix.
        broken = [r for r in records if r.trial_index != 2]
        with pytest.raises(ReproError, match="missing"):
            aggregate_records(spec, broken, bootstrap_resamples=50)

    def test_render_mentions_early_stop(self, topology):
        result = ExperimentRunner(topology, stopping_spec()).run(
            bootstrap_resamples=50
        )
        assert "early-stopped" in result.render()

    def test_spec_validation(self):
        with pytest.raises(ReproError, match="unknown stopping"):
            stopping_spec(stopping="when-bored")
        with pytest.raises(ReproError, match="stop_ci_width"):
            stopping_spec(stop_ci_width=0.0)
        with pytest.raises(ReproError, match="stop_min_trials"):
            stopping_spec(stop_min_trials=1)
        with pytest.raises(ReproError, match="stop_check_every"):
            stopping_spec(stop_check_every=0)

    def test_spec_json_round_trip(self):
        spec = stopping_spec(stop_ci_width=1 / 3)
        clone = ExperimentSpec.from_json(spec.to_json())
        assert clone == spec
        assert '"stopping": "ci"' in spec.to_json()
        # Pre-stopping spec files parse with stopping off.
        legacy = ExperimentSpec.from_json(
            '{"cells": [{"kind": "forged-origin"}], "trials": 1}'
        )
        assert legacy.stopping == "none"
