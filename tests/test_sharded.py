"""repro.exper.sharded: the sharded executor, proven byte-identical.

The pinned invariant (docs/architecture.md): a sharded run's output —
aggregated result *and* recorded sink file — is byte-identical to the
serial executor's, with early stopping on or off, **including** after a shard is killed or raises mid-stream
(the coordinator retries/reassigns) and after the coordinator itself
dies and is resumed.  Also pinned here:

* shard planning tiles the grid's canonical order contiguously —
  under early stopping one fraction at a time, in bounded chunks — and
  shard JSON round-trips;
* ``executor="auto"`` resolves to serial on a single core and to
  sharded otherwise; a stored ``"executor": "process"`` reads as
  sharded without changing the spec hash;
* a property-style sweep of randomized small specs (sampler, stopping
  and its thresholds all drawn) agrees between serial and sharded;
* early stopping reaches the workers: shards past a stop are never
  dispatched, running ones are stopped without counting as failures,
  over local processes and over HTTP;
* crashed shards leak neither shared-memory segments nor temporary
  shard stores;
* the HTTP transport (serve tier shard workers) produces the same
  bytes, reassigns away from dead hosts, and refuses topology
  mismatches.
"""

from __future__ import annotations

import glob
import json
import os
import random
import time
import urllib.request

import pytest

from repro.data import TopologyProfile, generate_topology
from repro.exper import (
    EXECUTORS,
    AnyAsPairSampler,
    ExperimentRunner,
    ExperimentSpec,
    MaxLengthLooseRoa,
    MinimalRoa,
    NoRoa,
    ScenarioCell,
    Shard,
    ShardCoordinator,
    StubPairSampler,
    plan_shards,
    resolve_executor,
)
from repro.faults import (
    PLAN_ENV,
    FaultPlan,
    FaultRule,
    RetryPolicy,
    uninstall,
)
from repro.netbase.errors import ReproError
from repro.results import JsonlSink, ResultsStore, read_run, shard_run_id
from repro.serve import HttpShardTransport, ThreadedShardWorkerServer


@pytest.fixture(scope="module")
def topology():
    return generate_topology(TopologyProfile(ases=150), random.Random(9))


def small_spec(**kwargs) -> ExperimentSpec:
    defaults = dict(
        cells=(
            ScenarioCell("forged-origin-subprefix", MinimalRoa()),
            ScenarioCell("forged-origin-subprefix", MaxLengthLooseRoa()),
        ),
        trials=6,
        seed=4,
        fractions=(None, 0.5),
    )
    defaults.update(kwargs)
    return ExperimentSpec(**defaults)


def shard_fault(shard: int, action: str, after: int) -> str:
    """A plan (as ``PLAN_ENV`` JSON) that hits shard ``shard`` once it
    has written ``after`` records — on its first attempt only, so the
    retry recovers."""
    return FaultPlan(rules=(
        FaultRule(
            site="exper.shard.record", action=action, at=(after,),
            match=(("shard", str(shard)), ("attempt", "0")),
        ),
    )).to_json()


def stopping_spec(**kwargs) -> ExperimentSpec:
    """A grid whose fractions stop after ~3 of 24 trials; with
    ``shards=8`` it plans four 6-trial chunks per fraction."""
    defaults = dict(
        trials=24, stopping="ci", stop_ci_width=0.4, stop_min_trials=3,
        stop_check_every=2,
    )
    defaults.update(kwargs)
    return small_spec(**defaults)


def stall_plan(shard: int, seconds: float, records: int = 1) -> str:
    """A plan that holds shard ``shard`` for ``seconds`` after each of
    its first ``records`` records."""
    return FaultPlan(rules=(
        FaultRule(
            site="exper.shard.record", action="stall", delay=seconds,
            at=tuple(range(1, records + 1)),
            match=(("shard", str(shard)),),
        ),
    )).to_json()


def shard_files(store: ResultsStore) -> dict:
    """Every shard run file in ``store``: name -> bytes."""
    return {
        path.name: path.read_bytes()
        for path in sorted(store.root.glob("*.jsonl"))
    }


def run_recorded(topology, spec, path, **runner_kwargs):
    """A recorded run; returns (result, file bytes)."""
    sink = JsonlSink(path)
    try:
        result = ExperimentRunner(
            topology, spec, sink=sink, **runner_kwargs
        ).run(bootstrap_resamples=200)
    finally:
        sink.close()
    return result, path.read_bytes()


# ----------------------------------------------------------------------
# Planning
# ----------------------------------------------------------------------


class TestPlanning:
    def test_shards_tile_the_grid_contiguously(self):
        spec = small_spec(trials=5, fractions=(None, 0.5))
        plan = plan_shards(spec, 3)
        assert [shard.ranges for shard in plan] == [
            ((0, 0, 4),),
            ((0, 4, 5), (1, 0, 2)),
            ((1, 2, 5),),
        ]
        assert sum(shard.trial_count for shard in plan) == 10
        seen = []
        for fraction_index in range(2):
            for trial_index in range(5):
                owners = [
                    shard.shard_index for shard in plan
                    if shard.contains(fraction_index, trial_index)
                ]
                assert len(owners) == 1
                seen.append(owners[0])
        # Walking the grid in canonical order visits shards in order.
        assert seen == sorted(seen)

    def test_stopping_plan_cuts_each_fraction_into_bounded_chunks(self):
        spec = small_spec(trials=150, stopping="ci")
        plan = plan_shards(spec, 2)
        # ceil(150 / 64) = 3 near-even chunks per fraction, grid order.
        assert [shard.ranges for shard in plan] == [
            ((0, 0, 50),), ((0, 50, 100),), ((0, 100, 150),),
            ((1, 0, 50),), ((1, 50, 100),), ((1, 100, 150),),
        ]
        assert [shard.shard_index for shard in plan] == list(range(6))
        assert {shard.shard_count for shard in plan} == {6}
        # Asking for more shards than that cuts finer, never coarser...
        assert [s.ranges for s in plan_shards(small_spec(
            trials=5, stopping="ci"), 6)] == [
            ((0, 0, 2),), ((0, 2, 4),), ((0, 4, 5),),
            ((1, 0, 2),), ((1, 2, 4),), ((1, 4, 5),),
        ]
        # ...and never below one trial per shard.
        assert len(plan_shards(small_spec(trials=2, stopping="ci"), 50)) == 4
        assert max(
            shard.trial_count
            for shard in plan_shards(small_spec(
                trials=1000, fractions=(None,), stopping="ci"), 1)
        ) <= 64

    def test_plan_without_stopping_is_what_it_always_was(self):
        """``stopping="none"``: one near-even cut of the whole grid,
        crossing fraction boundaries, however many trials."""
        plan = plan_shards(small_spec(trials=150), 2)
        assert [shard.ranges for shard in plan] == [
            ((0, 0, 150),), ((1, 0, 150),),
        ]
        plan = plan_shards(small_spec(trials=100), 3)
        assert [shard.ranges for shard in plan] == [
            ((0, 0, 67),), ((0, 67, 100), (1, 0, 34)), ((1, 34, 100),),
        ]

    def test_plan_clamps_to_total_trials(self):
        spec = small_spec(trials=2, fractions=(None,))
        plan = plan_shards(spec, 10)
        assert len(plan) == 2

    def test_plan_rejects_nonpositive(self):
        with pytest.raises(ReproError, match="positive"):
            plan_shards(small_spec(), 0)

    def test_shard_json_round_trip(self):
        shard = plan_shards(small_spec(trials=5), 3)[1]
        wire = json.loads(json.dumps(shard.to_json_dict()))
        assert Shard.from_json_dict(wire) == shard

    def test_bad_shard_json_rejected(self):
        with pytest.raises(ReproError, match="shard JSON missing key"):
            Shard.from_json_dict({"shard_index": 0})

    def test_shard_run_ids(self):
        assert shard_run_id("grid-abc", 2, 12) == "grid-abc.shard02of12"
        assert [
            shard.run_id("g") for shard in plan_shards(small_spec(), 2)
        ] == ["g.shard0of2", "g.shard1of2"]
        with pytest.raises(ReproError, match="outside the plan|outside"):
            shard_run_id("g", 5, 3)
        with pytest.raises(ReproError, match="bad shard run id"):
            shard_run_id("bad name", 0, 1)


# ----------------------------------------------------------------------
# Executor selection
# ----------------------------------------------------------------------


class TestAutoExecutor:
    def test_auto_falls_back_to_serial_on_one_core(self):
        # Worker processes on one core are pure overhead: auto must
        # never pick them there.
        assert resolve_executor("auto", cpu_count=1) == "serial"

    def test_auto_uses_process_with_parallelism(self):
        """With cores to spare, auto means worker processes — the
        sharded executor (the test id predates the pool's removal)."""
        assert resolve_executor("auto", cpu_count=4) == "sharded"

    def test_auto_respects_explicit_width_of_one(self):
        assert resolve_executor("auto", workers=1, cpu_count=8) == "serial"
        assert resolve_executor("auto", shards=1, cpu_count=8) == "serial"

    def test_concrete_executors_pass_through(self):
        for name in ("serial", "sharded"):
            assert resolve_executor(name, cpu_count=1) == name

    def test_process_executor_is_gone(self, topology):
        assert EXECUTORS == ("serial", "sharded", "auto")
        with pytest.raises(ReproError, match="unknown executor"):
            resolve_executor("process")
        with pytest.raises(ReproError, match="unknown executor"):
            ExperimentRunner(topology, small_spec(), executor="process")
        with pytest.raises(ReproError, match="unknown executor"):
            small_spec(executor="process")

    def test_stored_process_executor_reads_as_sharded(self, tmp_path):
        """Spec files and queue lines written before the pool went
        still load, as the one parallel executor, under the same
        identity."""
        from repro.jobs import JobSpec, JobStore

        sharded = small_spec(executor="sharded")
        stored = sharded.to_json_dict()
        stored["executor"] = "process"
        spec = ExperimentSpec.from_json(json.dumps(stored))
        assert spec == sharded
        assert spec.spec_hash() == sharded.spec_hash()

        store = JobStore(tmp_path / "jobs")
        job_id = store.enqueue(JobSpec(spec=sharded, workers=2))
        queue = store.path.read_bytes()
        assert queue.count(b'"executor":"sharded"') == 1
        store.path.write_bytes(
            queue.replace(b'"executor":"sharded"', b'"executor":"process"'))
        job = store.job(job_id)
        assert job.spec.spec.executor == "sharded"
        assert job.spec.spec_hash == sharded.spec_hash()

    def test_unknown_executor_rejected(self):
        with pytest.raises(ReproError, match="unknown executor"):
            resolve_executor("threads")
        with pytest.raises(ReproError, match="unknown executor"):
            ExperimentSpec(
                cells=(ScenarioCell("forged-origin-subprefix", NoRoa()),),
                trials=1, executor="threads",
            )

    def test_spec_executor_round_trips_but_not_identity(self):
        serial = small_spec(executor="serial")
        sharded = small_spec(executor="sharded")
        assert ExperimentSpec.from_json(
            sharded.to_json()
        ).executor == "sharded"
        # Execution strategy is not run identity: same hash, so runs
        # merge and resume across executors.
        assert serial.spec_hash() == sharded.spec_hash()


# ----------------------------------------------------------------------
# Byte-identity to serial
# ----------------------------------------------------------------------


class TestShardedEquivalence:
    @pytest.mark.parametrize("stopping", ["none", "ci"])
    def test_sharded_matches_serial_bytes(self, topology, tmp_path, stopping):
        spec = small_spec(
            trials=8, stopping=stopping,
            stop_ci_width=0.4, stop_min_trials=3, stop_check_every=2,
        )
        serial, serial_bytes = run_recorded(
            topology, spec, tmp_path / "serial.jsonl", executor="serial")
        sharded, sharded_bytes = run_recorded(
            topology, spec, tmp_path / "sharded.jsonl",
            executor="sharded", shards=3)
        assert sharded == serial
        assert sharded_bytes == serial_bytes

    def test_shard_store_merges_back_to_serial(self, topology, tmp_path):
        spec = small_spec()
        _, serial_bytes = run_recorded(
            topology, spec, tmp_path / "serial.jsonl", executor="serial")
        store = ResultsStore(tmp_path / "shards")
        run_recorded(
            topology, spec, tmp_path / "sharded.jsonl",
            executor="sharded", shards=3, shard_store=store)
        ids = store.run_ids()
        assert len(ids) == 3 and all(".shard" in i for i in ids)
        store.merge("merged", ids)
        assert store.path("merged").read_bytes() == serial_bytes

    def test_property_random_specs_agree_across_executors(
        self, topology, tmp_path
    ):
        """20 seeded random small specs: serial == sharded, in result,
        trial counts and file bytes."""
        rng = random.Random(20250807)
        stopped = 0
        kinds = ("forged-origin-subprefix", "forged-origin")
        policies = (MinimalRoa(), MaxLengthLooseRoa(), NoRoa())
        combos = [(kind, policy) for kind in kinds for policy in policies]
        for case in range(20):
            cells = tuple(
                ScenarioCell(kind, policy)
                for kind, policy in rng.sample(combos, rng.randint(1, 2))
            )
            spec = ExperimentSpec(
                cells=cells,
                trials=rng.randint(2, 9),
                seed=rng.randint(0, 999),
                fractions=tuple(
                    rng.sample([None, 0.0, 0.5, 1.0], rng.randint(1, 2))
                ),
                sampler=rng.choice(
                    [StubPairSampler(), AnyAsPairSampler()]),
                stopping=rng.choice(["none", "ci"]),
                stop_ci_width=rng.choice([0.05, 0.3, 0.5, 1.0]),
                stop_min_trials=rng.randint(2, 4),
                stop_check_every=rng.randint(1, 3),
            )
            serial, serial_bytes = run_recorded(
                topology, spec, tmp_path / f"{case}-serial.jsonl",
                executor="serial")
            sharded, sharded_bytes = run_recorded(
                topology, spec, tmp_path / f"{case}-sharded.jsonl",
                executor="sharded", workers=2,
                shards=rng.randint(2, 9))
            assert sharded == serial, f"case {case}"
            assert sharded.trial_counts == serial.trial_counts
            # The coordinator re-streams in grid order, so the file is
            # byte-for-byte the serial one, stopped or not.
            assert sharded_bytes == serial_bytes, f"case {case}"
            stopped += min(serial.trial_counts) < spec.trials
        assert stopped >= 3  # the draw does exercise early stops


# ----------------------------------------------------------------------
# Early stopping reaches the workers
# ----------------------------------------------------------------------


def stopped_run(topology, spec, tmp_path, name, **runner_kwargs):
    """A recorded sharded run of a stopping grid beside its serial
    twin; returns what the stop tests look at."""
    from repro.obs import MetricsRegistry

    serial, serial_bytes = run_recorded(
        topology, spec, tmp_path / f"{name}-serial.jsonl",
        executor="serial")
    assert max(serial.trial_counts) < spec.trials  # it does stop
    registry = MetricsRegistry()
    store = ResultsStore(tmp_path / f"{name}-shards")
    states: dict = {}
    sharded, sharded_bytes = run_recorded(
        topology, spec, tmp_path / f"{name}-sharded.jsonl",
        executor="sharded", workers=2, shard_store=store,
        registry=registry, shard_progress=states.update,
        **runner_kwargs)
    assert sharded == serial
    assert sharded_bytes == serial_bytes
    counters = registry.snapshot()
    # A coordinator-stopped shard is neither a failure nor a retry.
    assert counters["exper.shards_failed"] == 0
    assert counters["exper.shards_retried"] == 0
    stored = sum(
        len(read_run(path)[1]) for path in store.root.glob("*.jsonl"))
    assert stored < spec.total_trials * len(spec.cells)
    return counters, {i: s["state"] for i, s in states.items()}, store


class TestEarlyStopping:
    def test_shards_past_a_stop_are_never_dispatched(
        self, topology, tmp_path
    ):
        spec = stopping_spec()
        plan = plan_shards(spec, 8)
        counters, states, store = stopped_run(
            topology, spec, tmp_path, "local", shards=8)
        assert len(plan) == 8
        assert counters["exper.shards_dispatched"] < len(plan)
        assert counters["exper.fractions_stopped"] == 2
        # Each fraction's first chunk decided its stop; the rest of it
        # was skipped, and only dispatched shards left a file.
        assert states[0] == states[4] == "done"
        assert set(states.values()) == {"done", "skipped"}
        assert len(store.run_ids()) == counters["exper.shards_dispatched"]

    def test_running_shard_past_a_stop_is_stopped_not_failed(
        self, topology, tmp_path, monkeypatch
    ):
        """Shard 1 is dealt beside shard 0 and hangs after one record;
        shard 0 fixes the stop, and the coordinator ends shard 1
        instead of waiting out its 60 s (or its timeout)."""
        spec = stopping_spec(fractions=(None,))
        monkeypatch.setenv(PLAN_ENV, stall_plan(1, 60.0))
        began = time.monotonic()
        counters, states, store = stopped_run(
            topology, spec, tmp_path, "stall", shards=4)
        assert time.monotonic() - began < 30.0
        assert counters["exper.shards_dispatched"] == 2
        assert counters["exper.shards_completed"] == 1
        assert states == {
            0: "done", 1: "skipped", 2: "skipped", 3: "skipped"}
        # What the stopped worker had written stays a readable partial.
        _, partial = read_run(store.path(plan_shards(spec, 4)[1].run_id(
            f"grid-{spec.spec_hash()[:12]}")))
        assert len(partial) <= 1

    def test_http_workers_stop_early_too(
        self, topology, tmp_path, monkeypatch
    ):
        """The same over HTTP: shard 1 crawls (0.25 s a record, 3 s in
        all); the coordinator cancels it on its host and never sends
        shards 2 and 3."""
        spec = stopping_spec(fractions=(None,))
        monkeypatch.setenv(PLAN_ENV, stall_plan(1, 0.25, records=12))
        try:
            # start() installs the environment's plan process-wide.
            with ThreadedShardWorkerServer(topology) as worker:
                base = f"http://127.0.0.1:{worker.port}"
                counters, states, _ = stopped_run(
                    topology, spec, tmp_path, "http", shards=4,
                    shard_transport=HttpShardTransport([base]))
                deadline = time.monotonic() + 10.0
                while True:
                    with urllib.request.urlopen(
                            f"{base}/shards/1", timeout=5) as reply:
                        remote = json.load(reply)
                    if (remote["state"] != "running"
                            or time.monotonic() > deadline):
                        break
                    time.sleep(0.05)
                dispatches = worker.metrics["shard_dispatches"]
        finally:
            uninstall()
        assert remote["state"] == "cancelled"
        assert remote["records"] < 12
        assert dispatches == counters["exper.shards_dispatched"] == 2
        assert states == {
            0: "done", 1: "skipped", 2: "skipped", 3: "skipped"}

    def test_first_chunk_of_every_fraction_is_dealt_first(self, topology):
        """Early trials decide the stops, so under ``stopping="ci"``
        chunk k of every fraction starts before chunk k + 1 of any —
        while records still come back in grid order."""
        from repro.exper import LocalShardTransport

        spec = stopping_spec(trials=8)
        dealt = []

        class Recording(LocalShardTransport):
            def start(self, shard, *args):
                dealt.append(shard.shard_index)
                super().start(shard, *args)

        transport = Recording(topology, spec)
        try:
            records = list(ShardCoordinator(
                topology, spec, shards=8, transport=transport, parallel=1,
            ).records())
        finally:
            transport.close()
        # No tracker is attached, so nothing stops: the whole grid.
        plain = small_spec(trials=8)
        assert dealt == [0, 4, 1, 5, 2, 6, 3, 7]
        assert records == list(
            ExperimentRunner(topology, plain).iter_records())
        # Without stopping the plan is dealt as it always was.
        dealt.clear()
        transport = Recording(topology, plain)
        try:
            list(ShardCoordinator(
                topology, plain, shards=4, transport=transport, parallel=1,
            ).records())
        finally:
            transport.close()
        assert dealt == [0, 1, 2, 3]


# ----------------------------------------------------------------------
# Fault injection
# ----------------------------------------------------------------------


class TestFaultInjection:
    @pytest.mark.parametrize("action", [
        pytest.param("crash", id="kill"), pytest.param("error", id="raise"),
    ])
    def test_shard_death_mid_stream_retried_byte_identical(
        self, topology, tmp_path, monkeypatch, action
    ):
        spec = small_spec()
        _, serial_bytes = run_recorded(
            topology, spec, tmp_path / "serial.jsonl", executor="serial")
        # Shard 1 dies after 3 records on its first attempt; the
        # retry must pick up from its flushed partial and the merged
        # stream must not show a seam.
        monkeypatch.setenv(PLAN_ENV, shard_fault(1, action, 3))
        sharded, sharded_bytes = run_recorded(
            topology, spec, tmp_path / "sharded.jsonl",
            executor="sharded", shards=3)
        assert sharded_bytes == serial_bytes

    def test_instant_death_and_store_retry_resumes_partial(
        self, topology, tmp_path, monkeypatch
    ):
        spec = small_spec()
        _, serial_bytes = run_recorded(
            topology, spec, tmp_path / "serial.jsonl", executor="serial")
        monkeypatch.setenv(PLAN_ENV, shard_fault(0, "crash", 1))
        store = ResultsStore(tmp_path / "shards")
        _, sharded_bytes = run_recorded(
            topology, spec, tmp_path / "sharded.jsonl",
            executor="sharded", shards=3, shard_store=store)
        assert sharded_bytes == serial_bytes

    def test_no_leaked_segments_or_shard_dirs(
        self, topology, tmp_path, monkeypatch
    ):
        before = set(glob.glob("/tmp/repro-shards-*"))
        spec = small_spec(trials=3)
        monkeypatch.setenv(PLAN_ENV, shard_fault(1, "crash", 2))
        runner = ExperimentRunner(topology, spec, executor="sharded",
                                  shards=2)
        runner.run(bootstrap_resamples=100)
        # The coordinator's temporary shard store is gone...
        assert set(glob.glob("/tmp/repro-shards-*")) == before
        # ...and so is the topology's shared-memory segment.
        segment = runner.last_shared_segment
        if segment is not None:
            from multiprocessing import shared_memory

            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=segment)

    def test_retries_exhausted_raises(self, topology, monkeypatch):
        spec = small_spec(trials=3)
        monkeypatch.setenv(PLAN_ENV, shard_fault(0, "crash", 1))
        coordinator = ShardCoordinator(
            topology, spec, shards=2, retry=RetryPolicy(retries=0))
        with pytest.raises(ReproError, match="failed after 1 attempts"):
            list(coordinator.records())

    def test_retried_shard_file_equals_undisturbed(
        self, topology, tmp_path, monkeypatch
    ):
        """A shard killed mid-trial leaves half a trial's cells in its
        file; the retry must cut them, not record the trial again
        after them — every shard file, not just the merged stream, is
        the bytes an undisturbed worker writes."""
        spec = small_spec()
        calm = ResultsStore(tmp_path / "calm")
        run_recorded(
            topology, spec, tmp_path / "calm.jsonl",
            executor="sharded", shards=3, shard_store=calm)
        # 3 records = one whole trial and the first cell of the next.
        monkeypatch.setenv(PLAN_ENV, shard_fault(1, "crash", 3))
        rough = ResultsStore(tmp_path / "rough")
        run_recorded(
            topology, spec, tmp_path / "rough.jsonl",
            executor="sharded", shards=3, shard_store=rough)
        assert len(shard_files(calm)) == 3
        assert shard_files(rough) == shard_files(calm)


# ----------------------------------------------------------------------
# Coordinator resume
# ----------------------------------------------------------------------


class TestCoordinatorResume:
    def test_killed_coordinator_resumes_byte_identical(
        self, topology, tmp_path
    ):
        spec = small_spec()
        full_path = tmp_path / "full.jsonl"
        full, full_bytes = run_recorded(
            topology, spec, full_path, executor="serial")
        # Rewrite the coordinator's sink as its death would have left
        # it: a complete prefix plus half a record line.
        lines = full_path.read_bytes().splitlines(keepends=True)
        part = tmp_path / "part.jsonl"
        part.write_bytes(b"".join(lines[:8]) + lines[8][: len(lines[8]) // 2])
        sink = JsonlSink(part)
        try:
            resumed = ExperimentRunner(
                topology, spec, executor="sharded", shards=3,
                sink=sink, resume_from=sink,
            ).run(bootstrap_resamples=200)
        finally:
            sink.close()
        assert resumed == full
        # The half-recorded trial is cut when the sink re-opens the
        # file and re-evaluated whole, so the file is byte-for-byte
        # the uninterrupted run (the durable-sink resume contract,
        # same as the serial executor's).
        assert read_run(part) == read_run(full_path)
        assert sorted(set(part.read_bytes().splitlines())) == sorted(
            set(full_bytes.splitlines()))
        assert part.read_bytes() == full_bytes

    def test_resume_with_persistent_store_reuses_shard_files(
        self, topology, tmp_path, monkeypatch
    ):
        """Coordinator death + resume over the same shard store: the
        surviving complete shard files short-circuit re-evaluation."""
        spec = small_spec()
        full_path = tmp_path / "full.jsonl"
        _, full_bytes = run_recorded(
            topology, spec, full_path, executor="serial")
        store = ResultsStore(tmp_path / "shards")
        sink_path = tmp_path / "sharded.jsonl"
        _, sharded_bytes = run_recorded(
            topology, spec, sink_path, executor="sharded", shards=3,
            shard_store=store)
        assert sharded_bytes == full_bytes
        # "Kill" the coordinator: truncate its sink (on a complete
        # trial boundary), keep shard files.
        lines = sink_path.read_bytes().splitlines(keepends=True)
        sink_path.write_bytes(b"".join(lines[:5]))
        sink = JsonlSink(sink_path)
        try:
            resumed = ExperimentRunner(
                topology, spec, executor="sharded", shards=3,
                shard_store=store, sink=sink, resume_from=sink,
            ).run(bootstrap_resamples=200)
        finally:
            sink.close()
        assert sink_path.read_bytes() == full_bytes
        full_result, _ = run_recorded(
            topology, spec, tmp_path / "again.jsonl", executor="serial")
        assert resumed == full_result


# ----------------------------------------------------------------------
# The HTTP transport (serve-tier shard workers)
# ----------------------------------------------------------------------


class TestHttpTransport:
    def test_http_workers_byte_identical(self, topology, tmp_path):
        spec = small_spec(trials=4)
        _, serial_bytes = run_recorded(
            topology, spec, tmp_path / "serial.jsonl", executor="serial")
        with ThreadedShardWorkerServer(topology) as w1, \
                ThreadedShardWorkerServer(topology) as w2:
            transport = HttpShardTransport([
                f"127.0.0.1:{w1.port}", f"http://127.0.0.1:{w2.port}",
            ])
            _, sharded_bytes = run_recorded(
                topology, spec, tmp_path / "http.jsonl",
                executor="sharded", shards=3, shard_transport=transport)
        assert sharded_bytes == serial_bytes

    def test_retried_shard_file_equals_undisturbed(
        self, topology, tmp_path, monkeypatch
    ):
        """The HTTP twin of the local-transport test.  The worker runs
        in this process, so the fault is an ``error`` (a ``crash``
        would take pytest down with it)."""
        spec = small_spec(trials=4)

        def run(name: str) -> tuple:
            store = ResultsStore(tmp_path / name)
            try:
                # start() installs the environment's plan process-wide.
                with ThreadedShardWorkerServer(topology) as worker:
                    transport = HttpShardTransport(
                        [f"127.0.0.1:{worker.port}"])
                    _, run_bytes = run_recorded(
                        topology, spec, tmp_path / f"{name}.jsonl",
                        executor="sharded", shards=3, shard_store=store,
                        shard_transport=transport)
                    failures = worker.metrics["shard_failures"]
            finally:
                uninstall()
            return shard_files(store), run_bytes, failures

        calm_files, calm_bytes, calm_failures = run("calm")
        monkeypatch.setenv(PLAN_ENV, shard_fault(1, "error", 3))
        rough_files, rough_bytes, rough_failures = run("rough")
        assert len(calm_files) == 3
        assert (calm_failures, rough_failures) == (0, 1)
        assert (rough_files, rough_bytes) == (calm_files, calm_bytes)

    def test_dead_host_reassigned(self, topology, tmp_path):
        spec = small_spec(trials=4, fractions=(None,))
        _, serial_bytes = run_recorded(
            topology, spec, tmp_path / "serial.jsonl", executor="serial")
        with ThreadedShardWorkerServer(topology) as worker:
            # Port 9 (discard) is a dead host: its shards fail fast
            # and rotate onto the live worker on retry.
            transport = HttpShardTransport(
                [f"127.0.0.1:{worker.port}", "127.0.0.1:9"],
                request_timeout=2.0,
            )
            assert transport.host_for(1, 0).endswith(":9")
            assert transport.host_for(1, 1).endswith(f":{worker.port}")
            _, sharded_bytes = run_recorded(
                topology, spec, tmp_path / "http.jsonl",
                executor="sharded", shards=2, shard_transport=transport)
        assert sharded_bytes == serial_bytes

    def test_restarted_worker_executes_shards(
        self, topology, tmp_path, monkeypatch
    ):
        scratch = tmp_path / "scratch"
        scratch.mkdir()
        monkeypatch.setattr("tempfile.tempdir", str(scratch))
        spec = small_spec(trials=2, fractions=(None,))
        _, serial_bytes = run_recorded(
            topology, spec, tmp_path / "serial.jsonl", executor="serial")
        worker = ThreadedShardWorkerServer(topology)
        worker.start()
        worker.close()  # takes its scratch directory with it
        with worker:
            transport = HttpShardTransport([f"127.0.0.1:{worker.port}"])
            _, sharded_bytes = run_recorded(
                topology, spec, tmp_path / "http.jsonl",
                executor="sharded", shards=2, shard_transport=transport)
        assert sharded_bytes == serial_bytes
        assert list(scratch.iterdir()) == []  # second directory gone too

    def test_topology_mismatch_refused(self, topology):
        other = generate_topology(
            TopologyProfile(ases=80), random.Random(2))
        spec = small_spec(trials=2, fractions=(None,))
        with ThreadedShardWorkerServer(other) as worker:
            transport = HttpShardTransport([f"127.0.0.1:{worker.port}"])
            coordinator = ShardCoordinator(
                topology, spec, shards=1, transport=transport,
                retry=RetryPolicy(retries=0))
            with pytest.raises(
                ReproError, match="shard worker holds records for topology"
            ):
                list(coordinator.records())

    def test_rule_mismatch_refused(self, topology):
        """A worker records under its own measurement rule, so it
        refuses a dispatch from a coordinator of another."""
        import urllib.error

        from repro.exper import RECORD_RULE
        from repro.results import RunHeader

        spec = small_spec(trials=2, fractions=(None,))
        header = RunHeader.for_spec(spec, topology).to_json_dict()
        body = json.dumps({
            "shard": plan_shards(spec, 1)[0].to_json_dict(),
            "header": {**header, "rule": RECORD_RULE + 1},
        }).encode()
        with ThreadedShardWorkerServer(topology) as worker:
            request = urllib.request.Request(
                f"http://127.0.0.1:{worker.port}/shards", data=body,
                method="POST")
            with pytest.raises(urllib.error.HTTPError) as caught:
                urllib.request.urlopen(request, timeout=5)
            assert caught.value.code == 400
            assert (
                f"measurement rule {RECORD_RULE}, not rule {RECORD_RULE + 1}"
            ) in caught.value.read().decode()

    def test_worker_status_endpoints(self, topology):
        with ThreadedShardWorkerServer(topology) as worker:
            base = f"http://127.0.0.1:{worker.port}"
            with urllib.request.urlopen(f"{base}/status", timeout=5) as r:
                status = json.load(r)
            assert status["topology_hash"] == worker.topology_hash
            assert status["shards"] == 0
            with urllib.request.urlopen(f"{base}/shards", timeout=5) as r:
                assert json.load(r) == {"shards": []}
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(f"{base}/shards/7", timeout=5)
            assert err.value.code == 404


# ----------------------------------------------------------------------
# Runner integration details
# ----------------------------------------------------------------------


class TestRunnerIntegration:
    def test_spec_executor_drives_runner(self, topology):
        spec = small_spec(trials=2, fractions=(None,), executor="sharded")
        runner = ExperimentRunner(topology, spec)
        assert runner.executor == "sharded"
        # An explicit runner argument overrides the spec.
        assert ExperimentRunner(
            topology, spec, executor="serial"
        ).executor == "serial"

    def test_shard_metrics_recorded(self, topology):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        spec = small_spec(trials=3, fractions=(None,))
        ExperimentRunner(
            topology, spec, executor="sharded", shards=2,
            registry=registry,
        ).run(bootstrap_resamples=100)
        snapshot = registry.snapshot()
        assert snapshot["exper.shards_dispatched"] == 2
        assert snapshot["exper.shards_completed"] == 2

    def test_array_engine_sharded_matches_object(
        self, topology, tmp_path, reference_engine
    ):
        """Sharded array ≡ serial oracle: the run file the shard workers'
        records merge into is the reference engine's serial one."""
        spec = small_spec(trials=4, fractions=(None,))
        _, array_bytes = run_recorded(
            topology, spec, tmp_path / "array.jsonl",
            executor="sharded", shards=2)
        with reference_engine():
            _, object_bytes = run_recorded(
                topology, spec, tmp_path / "object.jsonl")
        _, array_records = read_run(tmp_path / "array.jsonl")
        assert array_bytes == object_bytes
        assert array_records == read_run(tmp_path / "object.jsonl")[1]
