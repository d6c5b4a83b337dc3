"""repro.jobs: the durable experiment platform.

The contracts pinned here:

* the queue's wire schema round-trips exactly and refuses versions
  and shapes it does not understand;
* :class:`JobStore` is crash-safe: a partial trailing line (the most
  a SIGKILL mid-append can leave) is dropped on read and truncated
  before the next append, interior corruption is a loud error, and a
  job's status is a pure fold of its events;
* **architecture invariant 8** (docs/architecture.md): a job executed
  by the scheduler produces a run file byte-identical to a direct
  ``repro-roa experiment`` of the same spec — for fresh jobs, for
  jobs resumed after a SIGKILL mid-run (both in-process and through
  the real CLI with an injected crash fault), and with a delay-fault
  plan installed;
* cancel semantics: queued jobs never run, terminal jobs 409;
* the HTTP control plane (``POST /experiments``, ``/jobs`` CRUD) and
  the read side it inherits: ``GET /experiments/<run>/ci`` serves
  exactly the canonical :func:`run_ci_document` bytes, and ``GET
  /diff`` is byte-stable across processes (it shares
  :func:`run_diff_document` + canonical JSON with ``repro-roa jobs
  diff``);
* ``jobs.*`` metrics appear in the registry snapshot and the
  Prometheus rendering, and cost nothing when metrics are disabled;
* ``GET /experiments/<run>`` reads the run file: a job executed by
  another scheduler shows live, a failed job is not left "running",
  and a sharded job's per-shard progress is merged in.
"""

from __future__ import annotations

import asyncio
import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.exper import (
    ExperimentRunner,
    ExperimentSpec,
    MaxLengthLooseRoa,
    MinimalRoa,
    ScenarioCell,
)
from repro.faults import FaultPlan, FaultRule, PLAN_ENV, install, uninstall
from repro.jobs import (
    JobRecord,
    JobScheduler,
    JobSpec,
    JobStore,
    JobsHttpServer,
)
from repro.netbase import Prefix
from repro.netbase.errors import ReproError
from repro.obs import NULL_REGISTRY, MetricsRegistry, use_registry
from repro.results import (
    run_ci_document,
    run_diff_document,
)
from repro.rpki import Vrp
from repro.serve import QueryService

REPO = Path(__file__).resolve().parent.parent


@pytest.fixture(autouse=True)
def no_leftover_plan():
    """Every test starts and ends with no fault plan installed."""
    uninstall()
    yield
    uninstall()


def small_spec(**kwargs) -> ExperimentSpec:
    defaults = dict(
        cells=(
            ScenarioCell("forged-origin-subprefix", MinimalRoa()),
            ScenarioCell("forged-origin-subprefix", MaxLengthLooseRoa()),
        ),
        trials=4,
        seed=4,
        fractions=(None, 0.5),
    )
    defaults.update(kwargs)
    return ExperimentSpec(**defaults)


def job_spec(**kwargs) -> JobSpec:
    defaults = dict(spec=small_spec(), ases=60, topology_seed=11)
    defaults.update(kwargs)
    return JobSpec(**defaults)


def served(scheduler: JobScheduler, path: str) -> dict:
    """``GET path`` from a :class:`JobsHttpServer` around
    ``scheduler``, decoded; any status but 200 fails the test."""
    async def scenario():
        async with JobsHttpServer(QueryService(PAPER_ROAS), scheduler) as http:
            return await http_request(http.host, http.port, "GET", path)

    status, payload = asyncio.run(scenario())
    assert status == 200, payload
    return json.loads(payload)


def direct_run_bytes(jspec: JobSpec, path: Path) -> bytes:
    """The job's spec run directly, the way ``repro-roa experiment``
    would: same topology construction, one JsonlSink."""
    from repro.results import JsonlSink

    sink = JsonlSink(path)
    try:
        ExperimentRunner(
            jspec.build_topology(), jspec.spec,
            workers=jspec.workers, shards=jspec.shards, sink=sink,
        ).run(bootstrap_resamples=200)
    finally:
        sink.close()
    return path.read_bytes()


# ----------------------------------------------------------------------
# Wire schema
# ----------------------------------------------------------------------


class TestJobModel:
    def test_spec_json_round_trip(self):
        jspec = job_spec(run="archive", workers=2, shards=3)
        parsed = JobSpec.from_json_dict(jspec.to_json_dict())
        assert parsed == jspec
        assert parsed.spec_hash == jspec.spec.spec_hash()

    def test_spec_validation(self):
        with pytest.raises(ReproError, match="2 ASes"):
            job_spec(ases=1)
        with pytest.raises(ReproError, match="workers"):
            job_spec(workers=0)
        with pytest.raises(ReproError, match="shards"):
            job_spec(shards=0)
        with pytest.raises(ReproError, match="'spec'"):
            JobSpec.from_json_dict({"run": "x"})

    @pytest.mark.parametrize("field, value", [
        ("ases", 400.9),
        ("workers", "3"),
        ("topology_seed", True),
        ("shards", 2.5),
        ("run", ["a"]),
        ("run", "../x"),
        ("wrokers", 2),  # a misspelled key never runs on its default
    ])
    def test_decoder_takes_exact_types(self, field, value):
        data = {**job_spec().to_json_dict(), field: value}
        with pytest.raises(ReproError, match=field if field != "run"
                           else "run id"):
            JobSpec.from_json_dict(data)

    def test_bad_run_id_refused_at_construction(self, tmp_path, capsys):
        from repro.cli import main

        with pytest.raises(ReproError, match="bad run id"):
            job_spec(run="../x")
        assert main(["jobs", "submit", "--store", str(tmp_path),
                     "--run", "../x", "--trials", "2"]) == 1
        assert "bad run id" in capsys.readouterr().err
        assert not (tmp_path / "queue.jsonl").exists()

    def test_queue_written_before_strict_decoding_replays(self, tmp_path):
        """Queue bytes as the encoder has always written them decode
        to the same job, and the job runs."""
        (tmp_path / "queue.jsonl").write_bytes(
            b'{"kind":"repro.jobs/queue","schema":1}\n'
            b'{"event":"enqueued","job":"job-000001",'
            b'"kind":"repro.jobs/event","schema":1,"spec":{"ases":60,'
            b'"run":"archive","shards":2,"spec":{"attack_prefix":null,'
            b'"cells":[{"kind":"forged-origin-subprefix","policy":'
            b'"minimal"},{"kind":"forged-origin-subprefix","policy":'
            b'"maxlength-loose"}],"executor":"serial","fractions":'
            b'[null,0.5],"sampler":"stubs","seed":4,"stop_check_every":'
            b'8,"stop_ci_width":0.05,"stop_min_trials":16,"stopping":'
            b'"none","trials":4,"victim_prefix":"168.122.0.0/16"},'
            b'"topology_seed":11,"workers":1}}\n'
        )
        store = JobStore(tmp_path)
        expected = job_spec(run="archive", workers=1, shards=2)
        assert store.job("job-000001").spec == expected
        assert JobScheduler(store).run_pending() == 1
        assert store.job("job-000001").status == "done"

    def test_with_run_pins_only_the_run(self):
        jspec = job_spec()
        assert jspec.run is None
        pinned = jspec.with_run("job-000007")
        assert pinned.run == "job-000007"
        assert pinned.spec == jspec.spec

    def test_record_validation(self):
        with pytest.raises(ReproError, match="unknown job event"):
            JobRecord(job="j", event="exploded")
        with pytest.raises(ReproError, match="carry the spec"):
            JobRecord(job="j", event="enqueued")
        line = JobRecord(
            job="j", event="enqueued", spec=job_spec()
        ).to_json_dict()
        assert JobRecord.from_json_dict(line).spec == job_spec()
        with pytest.raises(ReproError, match="schema"):
            JobRecord.from_json_dict({**line, "schema": 99})
        with pytest.raises(ReproError, match="kind"):
            JobRecord.from_json_dict({**line, "kind": "other"})
        with pytest.raises(ReproError, match="job=7"):
            JobRecord.from_json_dict({**line, "job": 7})  # not "7"
        with pytest.raises(ReproError, match="detail=3"):
            JobRecord.from_json_dict({**line, "detail": 3})
        with pytest.raises(ReproError, match=r"unknown keys \['when'\]"):
            JobRecord.from_json_dict({**line, "when": "now"})


# ----------------------------------------------------------------------
# The durable queue
# ----------------------------------------------------------------------


class TestJobStore:
    def test_enqueue_ids_sequential_and_run_adopted(self, tmp_path):
        store = JobStore(tmp_path)
        first = store.enqueue(job_spec())
        second = store.enqueue(job_spec(run="pinned"))
        assert (first, second) == ("job-000001", "job-000002")
        assert store.job(first).spec.run == "job-000001"
        assert store.job(second).spec.run == "pinned"

    def test_fold_and_pending(self, tmp_path):
        store = JobStore(tmp_path)
        a = store.enqueue(job_spec())
        b = store.enqueue(job_spec())
        store.mark(a, "started")
        store.mark(a, "finished")
        jobs = store.jobs()
        assert jobs[a].status == "done"
        assert jobs[a].history == ("enqueued", "started", "finished")
        assert not jobs[a].pending
        assert jobs[b].status == "queued"
        assert [state.job for state in store.pending()] == [b]

    def test_failed_detail_survives_the_fold(self, tmp_path):
        store = JobStore(tmp_path)
        a = store.enqueue(job_spec())
        store.mark(a, "started")
        store.mark(a, "failed", detail="disk full")
        assert store.job(a).status == "failed"
        assert store.job(a).detail == "disk full"

    def test_queued_stream_seeded_job_still_lists(self, tmp_path, capsys):
        """A job queued while ``"seeding": "stream"`` was selectable
        decodes, so the queue holding it stays readable."""
        from repro.cli import main

        store = JobStore(tmp_path)
        a = store.enqueue(job_spec())
        queue = store.path.read_bytes()
        assert queue.count(b'"attack_prefix":null,') == 1
        store.path.write_bytes(queue.replace(
            b'"attack_prefix":null,',
            b'"attack_prefix":null,"seeding":"stream",'))
        assert store.job(a).spec.spec == job_spec().spec
        assert main(["jobs", "list", "--store", str(tmp_path), "--json"]) == 0
        listed = json.loads(capsys.readouterr().out)["jobs"]
        assert [(job["job"], job["status"]) for job in listed] == [
            (a, "queued")]

    def test_partial_tail_dropped_and_truncated(self, tmp_path):
        store = JobStore(tmp_path)
        a = store.enqueue(job_spec())
        complete = store.path.read_bytes()
        store.path.write_bytes(complete + b'{"half a rec')
        # Reads ignore the crash tail entirely.
        assert [r.event for r in store.records()] == ["enqueued"]
        assert store.job(a).status == "queued"
        # The next append truncates it, so lines never fuse.
        store.mark(a, "started")
        assert b"half a rec" not in store.path.read_bytes()
        assert store.job(a).status == "running"

    @pytest.mark.parametrize("moment", ["after_scan", "before_open"])
    def test_peer_append_between_scan_and_open_survives(
        self, tmp_path, monkeypatch, moment
    ):
        # `jobs submit` against a running `serve --jobs`: a second
        # process appends after we read the queue and before we open
        # it (or write to it).  Both events must survive, whole and in
        # arrival order.
        from repro.results import appendlog

        ours, peer = JobStore(tmp_path), JobStore(tmp_path)
        a = ours.enqueue(job_spec())
        before = ours.path.read_bytes()
        target, name = {
            "after_scan": (ours, "_scan"),
            "before_open": (appendlog, "open_shared"),
        }[moment]
        real = getattr(target, name)

        def with_peer_append(*args):
            monkeypatch.setattr(target, name, real)
            if moment == "after_scan":
                result = real(*args)
                peer.mark(a, "started")
                return result
            peer.mark(a, "started")
            return real(*args)

        monkeypatch.setattr(target, name, with_peer_append)
        ours.mark(a, "cancelled")
        assert [r.event for r in ours.records()] == [
            "enqueued", "started", "cancelled"]
        data = ours.path.read_bytes()
        assert data.startswith(before) and data.count(b"\n") == 4

    def test_peer_event_is_not_cut_with_a_torn_tail(self, tmp_path):
        # Only the unterminated tail goes; a peer's complete line that
        # precedes it is durable.
        ours, peer = JobStore(tmp_path), JobStore(tmp_path)
        a = ours.enqueue(job_spec())
        peer.mark(a, "started")
        with open(ours.path, "ab") as handle:
            handle.write(b'{"half a rec')
        ours.mark(a, "finished")
        assert [r.event for r in ours.records()] == [
            "enqueued", "started", "finished"]

    def test_interior_corruption_is_loud(self, tmp_path):
        store = JobStore(tmp_path)
        store.enqueue(job_spec())
        complete = store.path.read_bytes()
        store.path.write_bytes(complete + b"garbage\n")
        with pytest.raises(ReproError, match="corrupt line"):
            store.jobs()
        store.path.write_bytes(complete + b"\n" + complete)
        with pytest.raises(ReproError, match="blank interior"):
            store.jobs()

    def test_wrong_header_refused(self, tmp_path):
        path = tmp_path / "queue.jsonl"
        path.write_bytes(b'{"kind":"other","schema":1}\n')
        with pytest.raises(ReproError, match="job queue"):
            JobStore(tmp_path).jobs()

    @pytest.mark.parametrize("header", [
        b'{"kind":"repro.jobs/queue","schema":1,"wrong":true}',
        b'{"kind":"repro.jobs/queue","schema":true}',
        b'{"kind":"repro.jobs/queue","schema":1.0}',
        b'{"kind":"repro.jobs/queue"}',
    ])
    def test_header_is_read_exactly(self, tmp_path, header):
        """An extra key, or a schema that only compares equal to 1,
        is not a queue header."""
        path = tmp_path / "queue.jsonl"
        path.write_bytes(header + b"\n")
        with pytest.raises(ReproError, match="job queue"):
            JobStore(tmp_path).jobs()

    def test_header_bytes(self, tmp_path):
        store = JobStore(tmp_path)
        store.enqueue(job_spec())
        assert store.path.read_bytes().splitlines()[0] == (
            b'{"kind":"repro.jobs/queue","schema":1}')

    def test_event_before_enqueued_is_an_error(self, tmp_path):
        store = JobStore(tmp_path)
        store.enqueue(job_spec())
        orphan = JobRecord(job="job-999999", event="started")
        with open(store.path, "ab") as handle:
            handle.write(
                json.dumps(
                    orphan.to_json_dict(), sort_keys=True,
                    separators=(",", ":"),
                ).encode() + b"\n"
            )
        with pytest.raises(ReproError, match="before 'enqueued'"):
            store.jobs()

    def test_mark_unknown_job_raises(self, tmp_path):
        store = JobStore(tmp_path)
        with pytest.raises(ReproError, match="no job"):
            store.mark("job-000001", "started")

    def test_duplicate_enqueued_id_is_loud(self, tmp_path):
        # What two racing submitters used to be able to write: the
        # fold must not quietly merge two jobs into one.
        store = JobStore(tmp_path)
        store.enqueue(job_spec())
        header, event = store.path.read_bytes().splitlines(keepends=True)
        store.path.write_bytes(header + event + event)
        with pytest.raises(ReproError, match="enqueued twice"):
            store.jobs()

    def test_peer_enqueue_between_count_and_append_waits(
        self, tmp_path, monkeypatch
    ):
        # A second store object stands in for a second process: its
        # enqueue, started while ours sits between counting and
        # appending, blocks on the log's writer lock and then takes
        # the next id rather than the same one.
        import threading

        ours, peer = JobStore(tmp_path), JobStore(tmp_path)
        first = ours.enqueue(job_spec())
        real_scan = ours._scan
        peer_ids = []
        racer = threading.Thread(
            target=lambda: peer_ids.append(peer.enqueue(job_spec())))

        def scan_then_let_the_peer_in():
            monkeypatch.setattr(ours, "_scan", real_scan)
            records = real_scan()
            racer.start()
            racer.join(timeout=0.3)
            assert racer.is_alive()  # held out until we have appended
            return records

        monkeypatch.setattr(ours, "_scan", scan_then_let_the_peer_in)
        second = ours.enqueue(job_spec())
        racer.join(timeout=10)
        assert [first, second, *peer_ids] == [
            "job-000001", "job-000002", "job-000003"]
        assert sorted(ours.jobs()) == [first, second, *peer_ids]


# ----------------------------------------------------------------------
# The scheduler and invariant 8
# ----------------------------------------------------------------------


class TestSchedulerInvariant8:
    def test_scheduled_job_matches_direct_run_bytes(self, tmp_path):
        store = JobStore(tmp_path / "jobs")
        scheduler = JobScheduler(store)
        job_id = scheduler.submit(job_spec())
        assert scheduler.run_pending() == 1
        state = store.job(job_id)
        assert state.status == "done"
        scheduled = scheduler.results.path(state.spec.run).read_bytes()
        direct = direct_run_bytes(job_spec(), tmp_path / "direct.jsonl")
        assert scheduled == direct
        # The served document is the finished run file's.
        document = served(scheduler, f"/experiments/{state.spec.run}")
        assert document["status"] == "finished"
        assert document["trial_counts"] == [4, 4]
        assert "shards" not in document

    def test_restart_resumes_to_identical_bytes(self, tmp_path):
        direct = direct_run_bytes(job_spec(), tmp_path / "direct.jsonl")
        # Forge the crash scene: the dead scheduler had marked the job
        # started and recorded a prefix of the run (header + some
        # records) before the SIGKILL, including a half-written line.
        store = JobStore(tmp_path / "jobs")
        job_id = store.enqueue(job_spec())
        store.mark(job_id, "started")
        run_path = store.results_store().path(job_id)
        run_path.parent.mkdir(parents=True, exist_ok=True)
        lines = direct.split(b"\n")
        run_path.write_bytes(
            b"\n".join(lines[:4]) + b"\n" + lines[4][: len(lines[4]) // 2]
        )
        assert run_path.read_bytes() != direct
        # A fresh scheduler (the restart) sees the job pending and
        # continues its file rather than restarting it.
        scheduler = JobScheduler(JobStore(tmp_path / "jobs"))
        assert scheduler.run_pending() == 1
        assert scheduler.store.job(job_id).status == "done"
        assert run_path.read_bytes() == direct

    def test_restart_refuses_a_run_file_from_before_the_rule(
        self, tmp_path
    ):
        """A job whose crash-cut run file has a schema-1 header (its
        records' rule unknown) fails on restart, naming both rules,
        and its file is left as it was."""
        from legacy_runs import schema_one
        from repro.exper import RECORD_RULE

        direct = direct_run_bytes(job_spec(), tmp_path / "direct.jsonl")
        store = JobStore(tmp_path / "jobs")
        job_id = store.enqueue(job_spec())
        store.mark(job_id, "started")
        run_path = store.results_store().path(job_id)
        run_path.parent.mkdir(parents=True, exist_ok=True)
        lines = schema_one(direct, "0" * 32).split(b"\n")
        run_path.write_bytes(b"\n".join(lines[:4]) + b"\n")
        before = run_path.read_bytes()
        scheduler = JobScheduler(JobStore(tmp_path / "jobs"))
        assert scheduler.run_pending() == 1
        state = scheduler.store.job(job_id)
        assert state.status == "failed"
        assert (
            "holds records of measurement rule unknown (a schema-1 "
            f"header), not rule {RECORD_RULE}"
        ) in state.detail
        assert run_path.read_bytes() == before

    def test_invariant_holds_under_delay_fault_plan(self, tmp_path):
        direct = direct_run_bytes(job_spec(), tmp_path / "direct.jsonl")
        install(FaultPlan(rules=(
            FaultRule(site="results.sink.write", action="delay",
                      delay=0.001),
            FaultRule(site="jobs.execute", action="stall", delay=0.001),
        ), seed=3))
        scheduler = JobScheduler(JobStore(tmp_path / "jobs"))
        job_id = scheduler.submit(job_spec())
        assert scheduler.run_pending() == 1
        state = scheduler.store.job(job_id)
        assert state.status == "done"
        assert (
            scheduler.results.path(state.spec.run).read_bytes() == direct
        )

    def test_injected_error_fails_the_job_durably(self, tmp_path):
        install(FaultPlan(rules=(
            FaultRule(site="jobs.execute", action="error",
                      error="io"),
        ), seed=3))
        scheduler = JobScheduler(JobStore(tmp_path / "jobs"))
        job_id = scheduler.submit(job_spec())
        scheduler.run_pending()
        state = scheduler.store.job(job_id)
        assert state.status == "failed"
        assert "injected fault" in state.detail
        assert not state.pending  # a restart will not retry it


class TestSchedulerLifecycle:
    def test_cancel_queued_job_never_runs(self, tmp_path):
        scheduler = JobScheduler(JobStore(tmp_path))
        first = scheduler.submit(job_spec())
        second = scheduler.submit(job_spec())
        scheduler.cancel(first)
        assert scheduler.run_pending() == 1
        assert scheduler.store.job(first).status == "cancelled"
        assert scheduler.store.job(second).status == "done"
        assert not scheduler.results.path(first).exists()

    def test_cancel_unknown_and_terminal_raise(self, tmp_path):
        scheduler = JobScheduler(JobStore(tmp_path))
        with pytest.raises(ReproError, match="no job"):
            scheduler.cancel("job-000001")
        job_id = scheduler.submit(job_spec())
        scheduler.run_pending()
        with pytest.raises(ReproError, match="already done"):
            scheduler.cancel(job_id)

    def test_background_thread_drains_submissions(self, tmp_path):
        scheduler = JobScheduler(
            JobStore(tmp_path), poll_interval=0.05
        ).start()
        try:
            job_id = scheduler.submit(job_spec())
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                if not scheduler.store.job(job_id).pending:
                    break
                time.sleep(0.05)
            assert scheduler.store.job(job_id).status == "done"
        finally:
            scheduler.stop()

    def test_resume_refuses_a_foreign_run_file(self, tmp_path):
        """A pinned run id colliding with a different spec's file must
        fail the job loudly, never silently mix records."""
        store = JobStore(tmp_path)
        other = job_spec(spec=small_spec(seed=99), run="shared")
        scheduler = JobScheduler(store)
        results = store.results_store()
        results.path("shared").parent.mkdir(parents=True, exist_ok=True)
        direct_run_bytes(other, results.path("shared"))
        job_id = scheduler.submit(job_spec(run="shared"))
        scheduler.run_pending()
        state = store.job(job_id)
        assert state.status == "failed"
        assert state.detail  # the incompatibility is recorded

    def test_a_short_record_stream_fails_the_job(self, tmp_path,
                                                 monkeypatch):
        """The scheduler drains the stream without aggregating it, so
        its record count against trials x cells is what catches a
        stream that ends early."""
        drained = ExperimentRunner.iter_records

        def one_short(runner):
            return iter(list(drained(runner))[:-1])

        monkeypatch.setattr(ExperimentRunner, "iter_records", one_short)
        scheduler = JobScheduler(JobStore(tmp_path))
        job_id = scheduler.submit(job_spec())
        scheduler.run_pending()
        state = scheduler.store.job(job_id)
        assert state.status == "failed"
        assert "streamed [8, 7] records per fraction" in state.detail


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------


class TestJobsMetrics:
    def test_lifecycle_counted_and_rendered(self, tmp_path):
        with use_registry(MetricsRegistry()) as registry:
            scheduler = JobScheduler(JobStore(tmp_path))
            scheduler.submit(job_spec())
            cancelled = scheduler.submit(job_spec())
            scheduler.cancel(cancelled)
            scheduler.run_pending()
            snapshot = registry.snapshot()
        assert snapshot["jobs.enqueued"] == 2
        assert snapshot["jobs.started"] == 1
        assert snapshot["jobs.completed"] == 1
        assert snapshot["jobs.cancelled"] == 1
        assert snapshot["jobs.queue_depth"] == 0
        assert snapshot["jobs.job_seconds"]["count"] == 1
        text = registry.render_prometheus()
        assert "jobs_enqueued 2" in text
        assert "jobs_queue_depth 0" in text
        assert "jobs_job_seconds_bucket" in text

    def test_a_mid_run_cancel_is_counted_once(self, tmp_path):
        install(FaultPlan(rules=(
            FaultRule(site="results.sink.write", action="stall", delay=0.5),
        )))
        registry = MetricsRegistry()
        scheduler = JobScheduler(JobStore(tmp_path), registry=registry)
        job_id = scheduler.submit(job_spec())
        worker = threading.Thread(target=scheduler.run_pending)
        worker.start()
        try:
            deadline = time.monotonic() + 30
            while scheduler.store.job(job_id).status != "running":
                assert time.monotonic() < deadline, "job never started"
                time.sleep(0.01)
            scheduler.cancel(job_id)
        finally:
            worker.join(30)
        snapshot = registry.snapshot()
        assert scheduler.store.job(job_id).status == "cancelled"
        assert snapshot["jobs.started"] == 1
        assert snapshot["jobs.cancelled"] == 1

    def test_disabled_registry_records_nothing(self, tmp_path):
        with use_registry(NULL_REGISTRY):
            scheduler = JobScheduler(JobStore(tmp_path))
            scheduler.submit(job_spec())
            scheduler.run_pending()
        with use_registry(MetricsRegistry()) as registry:
            pass
        assert "jobs.enqueued" not in registry.snapshot()


# ----------------------------------------------------------------------
# Shard progress (coordinator → scheduler → served document)
# ----------------------------------------------------------------------


class TestShardProgress:
    def test_sharded_job_publishes_shard_states(self, tmp_path):
        scheduler = JobScheduler(JobStore(tmp_path))
        job_id = scheduler.submit(
            job_spec(spec=small_spec(executor="sharded"), shards=2)
        )
        assert scheduler.run_pending() == 1
        state = scheduler.store.job(job_id)
        assert state.status == "done"
        assert scheduler.shards("ghost") is None
        shards = served(scheduler, f"/experiments/{state.spec.run}")[
            "shards"]
        assert sorted(shards) == ["0", "1"]
        for entry in shards.values():
            assert entry["state"] == "done"
            assert entry["attempt"] == 0
            assert entry["records"] > 0
        # Progress reporting never perturbs the run's bytes.
        direct = direct_run_bytes(
            job_spec(spec=small_spec(executor="sharded"), shards=2),
            tmp_path / "direct.jsonl",
        )
        assert (
            scheduler.results.path(state.spec.run).read_bytes() == direct
        )

    def test_stopped_fractions_publish_skipped_shards(self, tmp_path):
        """A sharded job whose fractions stop early: the shards past
        each stop show as ``skipped`` in the run's snapshot, and the
        run file is still the direct (serial) run's."""
        stopping = dict(
            trials=24, stopping="ci", stop_ci_width=0.4,
            stop_min_trials=3, stop_check_every=2,
        )
        scheduler = JobScheduler(JobStore(tmp_path))
        job_id = scheduler.submit(job_spec(
            spec=small_spec(executor="sharded", **stopping),
            shards=8, workers=2,
        ))
        assert scheduler.run_pending() == 1
        state = scheduler.store.job(job_id)
        assert state.status == "done"
        document = served(scheduler, f"/experiments/{state.spec.run}")
        shards = document["shards"]
        assert len(shards) == 8
        states = [shards[str(index)]["state"] for index in range(8)]
        assert set(states) == {"done", "skipped"}
        assert states.count("skipped") >= 4
        assert all(
            entry["records"] == 0
            for entry in shards.values() if entry["state"] == "skipped"
        )
        # The served counts are the ones stopping decided: the run
        # file's records per fraction over its two cells.
        _, records = scheduler.results.read(state.spec.run)
        per_fraction = [0, 0]
        for record in records:
            per_fraction[record.fraction_index] += 1
        counts = document["trial_counts"]
        assert counts == [n // 2 for n in per_fraction]
        assert max(counts) < 24
        direct = direct_run_bytes(
            job_spec(spec=small_spec(**stopping)),
            tmp_path / "direct.jsonl",
        )
        assert (
            scheduler.results.path(state.spec.run).read_bytes() == direct
        )


# ----------------------------------------------------------------------
# A run's state is its file
# ----------------------------------------------------------------------


class TestServedFromTheStore:
    def test_failed_job_is_not_left_running(self, tmp_path):
        """A sink failure fails the job; the served run is finished
        (not running) and holds what reached the file."""
        scheduler = JobScheduler(JobStore(tmp_path))
        job_id = scheduler.submit(job_spec())
        install(FaultPlan(rules=(
            FaultRule(site="results.sink.write", action="error", at=(3,)),
        )))

        async def scenario():
            async with JobsHttpServer(
                QueryService(PAPER_ROAS), scheduler
            ) as http:
                assert await asyncio.get_running_loop().run_in_executor(
                    None, scheduler.run_pending) == 1
                return [
                    await http_request(http.host, http.port, "GET", path)
                    for path in ("/experiments", f"/experiments/{job_id}")
                ]

        (_, listing), (status, document) = asyncio.run(scenario())
        uninstall()
        assert scheduler.store.job(job_id).status == "failed"
        assert [(run["run"], run["status"], run["records"])
                for run in json.loads(listing)["runs"]] == [
                    (job_id, "finished", 2)]
        assert status == 200
        document = json.loads(document)
        assert document["status"] == "finished"
        assert document["records"] == 2
        assert document["trial_counts"] == [1, 0]

    def test_another_schedulers_job_is_visible_live(
        self, tmp_path, monkeypatch
    ):
        """A second scheduler on the same store stands in for
        ``repro-roa jobs run`` in another process: the server sees its
        job running, record by record, and then finished."""
        ours = JobScheduler(JobStore(tmp_path))
        other = JobScheduler(JobStore(tmp_path))
        job_id = other.submit(job_spec())
        paused, resume = threading.Event(), threading.Event()
        checks = []

        def cancelled(job):
            # Checked once before the job starts, then after each
            # record: the fifth check follows the fourth record.
            checks.append(job)
            if len(checks) == 5:
                paused.set()
                resume.wait(30)
            return False

        monkeypatch.setattr(other, "_cancelled", cancelled)
        worker = threading.Thread(target=other.run_pending)

        async def scenario():
            loop = asyncio.get_running_loop()
            async with JobsHttpServer(QueryService(PAPER_ROAS), ours) as http:
                async def get(path):
                    status, payload = await http_request(
                        http.host, http.port, "GET", path)
                    assert status == 200, payload
                    return json.loads(payload)

                worker.start()
                try:
                    assert await loop.run_in_executor(
                        None, paused.wait, 30)
                    (entry,) = (await get("/experiments"))["runs"]
                    assert (entry["run"], entry["status"]) == (
                        job_id, "running")
                    assert entry["records"] == 4
                    assert entry["expected_records"] == 16
                    live = await get(f"/experiments/{job_id}")
                    assert live["status"] == "running"
                    assert live["trial_counts"] is None
                    assert sum(c["trials"] for c in live["cells"]) == 4
                finally:
                    resume.set()
                    await loop.run_in_executor(None, worker.join, 60)
                done = await get(f"/experiments/{job_id}")
                assert done["status"] == "finished"
                assert done["records"] == 16
                assert done["trial_counts"] == [4, 4]

        asyncio.run(scenario())
        assert ours.store.job(job_id).status == "done"


# ----------------------------------------------------------------------
# HTTP control plane
# ----------------------------------------------------------------------


def p(text: str) -> Prefix:
    return Prefix.parse(text)


PAPER_ROAS = [
    Vrp(p("87.254.32.0/19"), 20, 31283),
    Vrp(p("87.254.32.0/21"), 21, 31283),
]


async def http_request(
    host, port, method: str, path: str, body: bytes = b""
) -> tuple[int, bytes]:
    reader, writer = await asyncio.open_connection(host, port)
    head = (
        f"{method} {path} HTTP/1.1\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: close\r\n\r\n"
    ).encode()
    writer.write(head + body)
    response = await reader.readuntil(b"\r\n\r\n")
    status = int(response.split(b" ", 2)[1])
    length = 0
    for line in response.split(b"\r\n"):
        if line.lower().startswith(b"content-length:"):
            length = int(line.split(b":")[1])
    payload = await reader.readexactly(length)
    writer.close()
    return status, payload


class TestJobsHttp:
    def run_with_server(self, scheduler, scenario):
        async def wrapper():
            service = QueryService(PAPER_ROAS)
            async with JobsHttpServer(service, scheduler) as http:
                await scenario(http)

        asyncio.run(wrapper())

    def test_submit_list_show_cancel(self, tmp_path):
        scheduler = JobScheduler(JobStore(tmp_path))

        async def scenario(http):
            body = json.dumps(job_spec().to_json_dict()).encode()
            status, payload = await http_request(
                http.host, http.port, "POST", "/experiments", body
            )
            assert status == 201
            created = json.loads(payload)
            assert created == {
                "job": "job-000001",
                "run": "job-000001",
                "status": "queued",
            }
            status, payload = await http_request(
                http.host, http.port, "GET", "/jobs"
            )
            assert status == 200
            listed = json.loads(payload)["jobs"]
            assert [j["job"] for j in listed] == ["job-000001"]
            status, payload = await http_request(
                http.host, http.port, "GET", "/jobs/job-000001"
            )
            assert status == 200
            assert json.loads(payload)["status"] == "queued"
            status, payload = await http_request(
                http.host, http.port, "DELETE", "/jobs/job-000001"
            )
            assert status == 200
            assert json.loads(payload)["status"] == "cancelled"
            # Terminal now: a second cancel is a conflict.
            status, payload = await http_request(
                http.host, http.port, "DELETE", "/jobs/job-000001"
            )
            assert status == 409
            status, _ = await http_request(
                http.host, http.port, "GET", "/jobs/nope"
            )
            assert status == 404
            status, _ = await http_request(
                http.host, http.port, "PUT", "/jobs/job-000001"
            )
            assert status == 405

        self.run_with_server(scheduler, scenario)
        assert scheduler.store.job("job-000001").status == "cancelled"

    def test_submit_rejects_bad_bodies(self, tmp_path):
        scheduler = JobScheduler(JobStore(tmp_path))

        async def scenario(http):
            inexact = [
                {**job_spec().to_json_dict(), field: value}
                for field, value in (
                    ("ases", 400.9), ("workers", "3"),
                    ("topology_seed", True), ("shards", 2.5),
                    ("run", ["a"]), ("run", "../x"),
                )
            ]
            for body in (
                b"{nope",
                b"[]",
                b"{}",
                json.dumps(
                    {**job_spec().to_json_dict(), "surprise": 1}
                ).encode(),
                json.dumps({"spec": {"cells": "nope"}}).encode(),
                json.dumps({"spec": {  # a misspelled nested key
                    "cells": [{"kind": "prefix-hijack", "attacker": 3}],
                    "trials": 2,
                }}).encode(),
                *(json.dumps(document).encode() for document in inexact),
            ):
                status, _ = await http_request(
                    http.host, http.port, "POST", "/experiments", body
                )
                assert status == 400

        self.run_with_server(scheduler, scenario)
        assert scheduler.store.jobs() == {}

    def test_ci_endpoint_serves_golden_document(self, tmp_path):
        """GET /experiments/<run>/ci is exactly the canonical bytes of
        run_ci_document over the run's records (which re-aggregates
        through aggregate_records)."""
        scheduler = JobScheduler(JobStore(tmp_path))
        job_id = scheduler.submit(job_spec())
        scheduler.run_pending()
        run_id = scheduler.store.job(job_id).spec.run
        header, records = scheduler.results.read(run_id)
        golden = (json.dumps(
            run_ci_document(run_id, header, records),
            sort_keys=True, separators=(",", ":"),
        ) + "\n").encode()

        async def scenario(http):
            status, payload = await http_request(
                http.host, http.port, "GET", f"/experiments/{run_id}/ci"
            )
            assert status == 200
            assert payload == golden
            status, _ = await http_request(
                http.host, http.port, "GET", "/experiments/ghost/ci"
            )
            assert status == 404

        self.run_with_server(scheduler, scenario)
        document = json.loads(golden)
        assert document["run"] == run_id
        assert document["records"] == len(records)
        assert document["result"]["cells"]

    def test_diff_endpoint_matches_local_diff(self, tmp_path):
        scheduler = JobScheduler(JobStore(tmp_path))
        a = scheduler.submit(job_spec())
        b = scheduler.submit(job_spec(spec=small_spec(seed=5)))
        scheduler.run_pending()
        a_run = scheduler.store.job(a).spec.run
        b_run = scheduler.store.job(b).spec.run
        a_header, a_records = scheduler.results.read(a_run)
        b_header, b_records = scheduler.results.read(b_run)
        golden = (json.dumps(
            run_diff_document(
                a_run, a_header, a_records, b_run, b_header, b_records
            ),
            sort_keys=True, separators=(",", ":"),
        ) + "\n").encode()

        async def scenario(http):
            status, payload = await http_request(
                http.host, http.port, "GET",
                f"/diff?a={a_run}&b={b_run}",
            )
            assert status == 200
            assert payload == golden
            status, _ = await http_request(
                http.host, http.port, "GET", f"/diff?a={a_run}&b=ghost"
            )
            assert status == 404
            status, _ = await http_request(
                http.host, http.port, "GET", "/diff?a=only"
            )
            assert status == 400

        self.run_with_server(scheduler, scenario)
        document = json.loads(golden)
        assert document["spec_match"] is False
        assert all("delta_mean" in cell for cell in document["cells"])


# ----------------------------------------------------------------------
# The real thing: CLI subprocesses, SIGKILL, byte-stable diffs
# ----------------------------------------------------------------------


SPEC_FLAGS = [
    "--kinds", "forged-origin-subprefix",
    "--policies", "minimal,maxlength-loose",
    "--fractions", "0,0.5,1",
    "--trials", "4",
    "--seed", "4",
    "--ases", "60",
    "--topology-seed", "11",
]


def cli_env(env_extra=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part
        for part in (str(REPO / "src"), env.get("PYTHONPATH"))
        if part
    )
    env.pop(PLAN_ENV, None)
    if env_extra:
        env.update(env_extra)
    return env


def run_cli(argv, tmp_path, env_extra=None):
    env = cli_env(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *argv],
        capture_output=True, cwd=tmp_path, env=env, timeout=300,
    )


class TestCliPlatform:
    def test_concurrent_submitters_get_distinct_ids(self, tmp_path):
        """12 `jobs submit` processes started together on one empty
        store: one header, 12 whole events, 12 different ids."""
        store = tmp_path / "jobs"
        submitters = [
            subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "jobs", "submit",
                 "--store", str(store), *SPEC_FLAGS],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                cwd=tmp_path, env=cli_env(),
            )
            for _ in range(12)
        ]
        printed = []
        for submitter in submitters:
            out, err = submitter.communicate(timeout=300)
            assert submitter.returncode == 0, err.decode()
            printed.append(out.split()[0].decode())
        expected = [f"job-{n:06d}" for n in range(1, 13)]
        assert sorted(printed) == expected
        queue = JobStore(store)
        assert sorted(queue.jobs()) == expected
        assert [r.job for r in queue.records()] == expected
        assert queue.path.read_bytes().count(b"\n") == 13

    def test_sigkill_mid_job_then_restart_resumes_bytes(self, tmp_path):
        """Invariant 8 end to end: submit through the CLI, SIGKILL the
        executing scheduler mid-run via an injected crash fault, drain
        again in a fresh process, and compare against a direct
        ``repro-roa experiment`` recording byte for byte."""
        store = tmp_path / "jobs"
        submitted = run_cli(
            ["jobs", "submit", "--store", str(store), *SPEC_FLAGS],
            tmp_path,
        )
        assert submitted.returncode == 0, submitted.stderr.decode()
        assert b"job-000001 queued" in submitted.stdout

        plan = FaultPlan(rules=(
            FaultRule(site="results.sink.write", action="crash",
                      at=(7,)),
        ), seed=1)
        killed = run_cli(
            ["jobs", "run", "--store", str(store)],
            tmp_path, env_extra={PLAN_ENV: plan.to_json()},
        )
        assert killed.returncode == -9  # SIGKILL, mid-write
        partial = (store / "runs" / "job-000001.jsonl").read_bytes()

        recovered = run_cli(
            ["jobs", "run", "--store", str(store)], tmp_path
        )
        assert recovered.returncode == 0, recovered.stderr.decode()
        listed = run_cli(
            ["jobs", "list", "--store", str(store), "--json"], tmp_path
        )
        status = json.loads(listed.stdout)["jobs"][0]
        assert status["status"] == "done"
        assert status["events"] == [
            "enqueued", "started", "started", "finished",
        ]

        direct = run_cli(
            ["experiment", *SPEC_FLAGS,
             "--sink", str(tmp_path / "direct.jsonl")],
            tmp_path,
        )
        assert direct.returncode == 0, direct.stderr.decode()
        final = (store / "runs" / "job-000001.jsonl").read_bytes()
        assert final == (tmp_path / "direct.jsonl").read_bytes()
        assert partial != final  # the kill really landed mid-run

    def test_jobs_diff_is_byte_stable_across_processes(self, tmp_path):
        """Satellite: two separate processes print the identical diff
        document for the same pair of runs (canonical JSON end to
        end — the /diff endpoint shares the same serialization)."""
        store = tmp_path / "jobs"
        scheduler = JobScheduler(JobStore(store))
        scheduler.submit(job_spec())
        scheduler.submit(job_spec(spec=small_spec(trials=5)))
        scheduler.run_pending()

        first = run_cli(
            ["jobs", "diff", "--store", str(store),
             "job-000001", "job-000002"],
            tmp_path,
        )
        second = run_cli(
            ["jobs", "diff", "--store", str(store),
             "job-000001", "job-000002"],
            tmp_path,
        )
        assert first.returncode == 0, first.stderr.decode()
        assert first.stdout == second.stdout
        a_header, a_records = scheduler.results.read("job-000001")
        b_header, b_records = scheduler.results.read("job-000002")
        golden = json.dumps(
            run_diff_document(
                "job-000001", a_header, a_records,
                "job-000002", b_header, b_records,
            ),
            sort_keys=True, separators=(",", ":"),
        )
        assert first.stdout.decode() == golden + "\n"

    def test_jobs_requires_exactly_one_target(self, tmp_path):
        neither = run_cli(["jobs", "list"], tmp_path)
        assert neither.returncode == 2
        assert b"--store" in neither.stderr
        both = run_cli(
            ["jobs", "list", "--store", "x", "--server", "http://y"],
            tmp_path,
        )
        assert both.returncode == 2
