"""The scheduler: queued :class:`JobSpec`\\ s → durable experiment runs.

One job executes exactly like ``repro-roa experiment --sink <run>
--resume``: the scheduler builds the job's topology the way the CLI
would, opens the run's :class:`~repro.results.sinks.JsonlSink` in the
jobs' :class:`~repro.results.store.ResultsStore`, and hands *the same
sink object* to :class:`~repro.exper.runner.ExperimentRunner` as both
``sink`` and ``resume_from`` — so a fresh job records from scratch,
and a job a SIGKILL caught mid-flight resumes its own file to a
byte-identical result (architecture invariant 8; the runner's resume
contract does the heavy lifting).  Recovery is therefore *implicit*:
on restart the scheduler just re-scans the queue and executes every
job whose folded status is still ``queued`` or ``running``.

A job's progress is its run file: the serve tier reads it on every
``GET /experiments/<run>``, so nothing is mirrored while the job runs.
The one piece of state no file holds — a sharded job's per-shard
progress — is kept per run in memory (:meth:`JobScheduler.shards`).
``jobs.*`` metrics and the ``jobs.enqueue`` / ``jobs.execute`` fault
sites make the subsystem observable and drillable like every other
tier.
"""

from __future__ import annotations

import threading
import time
from typing import TYPE_CHECKING, Dict, Optional

from ..faults.plan import fire
from ..netbase.errors import ReproError
from ..obs.metrics import MetricsRegistry, get_registry
from .model import JobSpec, JobState
from .store import JobStore

if TYPE_CHECKING:  # pragma: no cover — opened on first use
    from ..results.store import ResultsStore

__all__ = ["JobScheduler"]


class _JobsMetrics:
    """The scheduler's ``jobs.*`` instruments, resolved once.

    Pure observation (the registry is never consulted on the record
    path beyond counter bumps), and free when the registry is
    disabled — the ``enabled`` flag short-circuits callers.
    """

    __slots__ = (
        "enabled", "enqueued", "started", "completed", "failed",
        "cancelled", "queue_depth", "job_seconds",
    )

    def __init__(self, registry: MetricsRegistry) -> None:
        view = registry.view("jobs")
        self.enabled = registry.enabled
        self.enqueued = view.counter("enqueued")
        self.started = view.counter("started")
        self.completed = view.counter("completed")
        self.failed = view.counter("failed")
        self.cancelled = view.counter("cancelled")
        self.queue_depth = view.gauge("queue_depth")
        self.job_seconds = view.histogram("job_seconds")


class _JobCancelled(ReproError):
    """Internal: a cancel request interrupted the job mid-run."""


class JobScheduler:
    """Executes a :class:`~repro.jobs.store.JobStore`'s queue.

    Two driving modes share one execution path:

    * :meth:`run_pending` — foreground: drain every pending job and
      return (``repro-roa jobs run``, tests, crash-recovery drills).
    * :meth:`start` / :meth:`stop` — a daemon thread that drains the
      queue whenever :meth:`submit` wakes it (``repro-roa serve
      --jobs``).

    Args:
        store: the durable queue.
        results: where job runs land (default: the store's
            ``runs/`` convention, opened on first use, so a queue
            client that only submits or cancels never loads the
            results layer).
        registry: metrics destination (default: the process registry).
        poll_interval: background-thread fallback wake period, for
            queue appends that bypass :meth:`submit` (another process
            writing the same store).
    """

    def __init__(
        self,
        store: JobStore,
        results: Optional[ResultsStore] = None,
        *,
        registry: Optional[MetricsRegistry] = None,
        poll_interval: float = 0.5,
    ) -> None:
        if poll_interval <= 0:
            raise ReproError("poll_interval must be positive")
        self.store = store
        self._results = results
        self.registry = registry
        self.poll_interval = poll_interval
        self._cancel_requests: set = set()
        self._cancel_lock = threading.Lock()
        self._shards: Dict[str, dict] = {}
        self._shards_lock = threading.Lock()
        self._wake = threading.Event()
        self._stopping = threading.Event()
        self._thread: Optional[threading.Thread] = None

    @property
    def results(self) -> ResultsStore:
        """Where job runs land."""
        if self._results is None:
            self._results = self.store.results_store()
        return self._results

    def _metrics(self) -> _JobsMetrics:
        return _JobsMetrics(
            self.registry if self.registry is not None else get_registry()
        )

    # ------------------------------------------------------------------
    # Queue operations
    # ------------------------------------------------------------------

    def submit(self, spec: JobSpec) -> str:
        """Durably enqueue a job; returns its id (wakes the thread)."""
        fire("jobs.enqueue", run=spec.run or "")
        job_id = self.store.enqueue(spec)
        metrics = self._metrics()
        if metrics.enabled:
            metrics.enqueued.inc()
            self._refresh_depth(metrics)
        self._wake.set()
        return job_id

    def cancel(self, job_id: str) -> JobState:
        """Cancel a job; returns its pre-cancel state.

        A queued job never runs; a running job is interrupted at its
        next record (its partial run file stays, resumable if the job
        is ever re-submitted with the same run id).  Cancelling a job
        that already reached a terminal status raises — callers map
        that to 409.
        """
        state = self.store.job(job_id)
        if state is None:
            raise ReproError(f"no job named {job_id!r}")
        if not state.pending:
            raise ReproError(
                f"job {job_id} already {state.status}"
            )
        with self._cancel_lock:
            self._cancel_requests.add(job_id)
        self.store.mark(job_id, "cancelled")
        metrics = self._metrics()
        if metrics.enabled:
            metrics.cancelled.inc()
            self._refresh_depth(metrics)
        return state

    def _cancelled(self, job_id: str) -> bool:
        with self._cancel_lock:
            return job_id in self._cancel_requests

    def _refresh_depth(self, metrics: _JobsMetrics) -> None:
        metrics.queue_depth.set(len(self.store.pending()))

    def shards(self, run_id: str) -> Optional[dict]:
        """The last per-shard progress a sharded job of ``run_id``
        executed here reported, JSON-ready (``{"0": {"state": ...,
        "attempt": ..., "records": ...}, ...}``); ``None`` if none."""
        with self._shards_lock:
            shards = self._shards.get(run_id)
            return None if shards is None else {
                str(index): dict(state)
                for index, state in sorted(shards.items())
            }

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def run_pending(self) -> int:
        """Execute every pending job in id order; returns how many.

        Jobs the last process left ``running`` (it was killed
        mid-job) execute again here — which, because sink and
        resume-source are one object, *continues* their run file
        rather than restarting it.
        """
        executed = 0
        while not self._stopping.is_set():
            pending = self.store.pending()
            if not pending:
                break
            self._execute(pending[0])
            executed += 1
        metrics = self._metrics()
        if metrics.enabled:
            self._refresh_depth(metrics)
        return executed

    def _execute(self, state: JobState) -> None:
        metrics = self._metrics()
        job_id = state.job
        if self._cancelled(job_id):
            return  # the cancelled event is already durable
        self.store.mark(job_id, "started")
        if metrics.enabled:
            metrics.started.inc()
            self._refresh_depth(metrics)
        begun = time.perf_counter()
        try:
            fire("jobs.execute", job=job_id, run=state.spec.run or "")
            self._run_job(state)
        except _JobCancelled:
            if metrics.enabled:
                metrics.cancelled.inc()
        except (ReproError, OSError) as exc:
            self.store.mark(job_id, "failed", detail=str(exc))
            if metrics.enabled:
                metrics.failed.inc()
        else:
            self.store.mark(job_id, "finished")
            if metrics.enabled:
                metrics.completed.inc()
                metrics.job_seconds.observe(
                    time.perf_counter() - begun
                )
        if metrics.enabled:
            self._refresh_depth(metrics)

    def _run_job(self, state: JobState) -> None:
        # Imported where a job executes: submit/cancel/list clients
        # construct a scheduler without loading the propagation stack.
        from ..exper.runner import ExperimentRunner

        spec = state.spec
        run_id = spec.run
        if run_id is None:  # enqueue() pins it; belt and braces
            raise ReproError(f"job {state.job} has no run id")
        topology = spec.build_topology()
        with self._shards_lock:
            self._shards.pop(run_id, None)

        def shard_progress(shards: dict) -> None:
            with self._shards_lock:
                self._shards[run_id] = shards

        job_id = state.job
        # A job's product is its run file; confidence intervals are
        # computed from that file on demand, so the stream is drained
        # without aggregating it.
        streamed = [0] * len(spec.spec.fractions)

        # THE invariant-8 recipe: one JsonlSink object as both sink
        # and resume source (opening it recovers a crash-cut file to
        # its last complete trial).  The runner re-emits replayed
        # records downstream (the count below sees the full stream) but
        # never re-writes them into the file — so fresh, resumed, and
        # direct-CLI runs of one spec are the same bytes.
        sink = self.results.sink(run_id)
        runner = ExperimentRunner(
            topology,
            spec.spec,
            workers=spec.workers,
            shards=spec.shards,
            sink=sink,
            resume_from=sink,
            registry=self.registry,
            shard_progress=shard_progress,
        )
        try:
            for record in runner.iter_records():
                if self._cancelled(job_id):
                    raise _JobCancelled(f"job {job_id} cancelled")
                streamed[record.fraction_index] += 1
        finally:
            sink.close()
        counts = runner.last_trial_counts
        cells = len(spec.spec.cells)
        if streamed != [count * cells for count in counts]:
            raise ReproError(
                f"job {job_id}: run {run_id} streamed {streamed} records "
                f"per fraction, not trials {counts} x {cells} cells"
            )

    # ------------------------------------------------------------------
    # Background mode
    # ------------------------------------------------------------------

    def start(self) -> "JobScheduler":
        """Drain the queue from a daemon thread until :meth:`stop`."""
        if self._thread is not None:
            raise ReproError("scheduler already started")
        self._stopping.clear()
        self._thread = threading.Thread(
            target=self._loop, name="repro-jobs-scheduler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self, timeout: Optional[float] = 10.0) -> None:
        """Stop the background thread (waits for the current job)."""
        self._stopping.set()
        self._wake.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout)
            self._thread = None

    def _loop(self) -> None:
        while not self._stopping.is_set():
            self._wake.clear()
            try:
                self.run_pending()
            except ReproError:
                # A corrupt queue file must not kill the serve tier;
                # the next scan reports it again and HTTP surfaces it.
                pass
            self._wake.wait(self.poll_interval)
