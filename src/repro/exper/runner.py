"""The experiment runner: executors that turn specs into results.

The driver materializes trials (cheap, sequential, all the
randomness) and an executor evaluates them (expensive, pure):

* ``"serial"`` — a plain loop in this process, sharing one
  :class:`~repro.bgp.fastprop.PropagationWorkspace` across trials.
* ``"sharded"`` — the one parallel executor: the grid is partitioned
  into contiguous shards, each evaluated by an independent worker
  streaming into its own durable run file, retried on death, and
  unioned back in grid order (see :mod:`repro.exper.sharded`).  The
  default transport runs workers as local processes that attach the
  compiled topology through one shared-memory segment; the serve
  tier's HTTP transport dispatches them to remote hosts.
* ``"auto"`` — :func:`resolve_executor` picks ``"serial"`` or
  ``"sharded"`` from the parallelism actually available, so one-core
  machines never pay worker-process overhead for nothing.

Because trials are pure functions of (topology, spec, trial), both
executors stream identical records in the same (grid) order and
therefore write byte-identical run files and aggregated results — a
property the test suite enforces.

**Early stopping.**  With ``spec.stopping == "ci"`` the runner
aggregates incrementally: per fraction it advances a watermark over
*consecutively completed* trials and, at spec-configured checkpoints,
bootstraps each cell's CI over that completed-trial prefix.  Once
every cell of a fraction is narrower than ``spec.stop_ci_width``, the
fraction stops: later trials are neither scheduled nor emitted (the
shard coordinator stops workers past the stop and dispatches no more of
that fraction; records already written are discarded).  Decisions
depend only on completed-trial prefixes — never on arrival order — so
every executor stops each fraction at the same trial count with
identical records, and ``stopping == "none"`` reproduces the
pre-stopping engine byte for byte.
"""

from __future__ import annotations

import os
from typing import Callable, Iterator, Optional

from ..bgp.topology import AsTopology
from ..faults.retry import RetryPolicy
from ..netbase.errors import ReproError
from ..obs import trace
from ..obs.metrics import MetricsRegistry, get_registry
from ..results.sinks import (
    ResultSink,
    RunHeader,
    _check_coordinates,
    check_header_compatible,
    complete_trials,
)
from .aggregate import ExperimentResult, aggregate_records, prefix_ci_width
from .evaluate import TrialRecord, evaluate_trials
from .sharded import ShardCoordinator
from .spec import EXECUTORS, ExperimentSpec, TrialSpec, iter_trials

__all__ = ["ExperimentRunner", "EXECUTORS", "resolve_executor"]


def resolve_executor(
    executor: str,
    *,
    workers: Optional[int] = None,
    shards: Optional[int] = None,
    cpu_count: Optional[int] = None,
) -> str:
    """Resolve ``"auto"`` to a concrete executor; pass others through.

    ``"auto"`` picks ``"sharded"`` only when it can actually win:
    on a one-core machine (``cpu_count() == 1``), or when the caller
    pins ``workers`` or ``shards`` to one, worker processes are pure
    overhead, so ``"serial"`` is chosen instead.  ``cpu_count``
    overrides the detected core count (tests pin the selection logic
    with it).
    """
    if executor not in EXECUTORS:
        raise ReproError(
            f"unknown executor {executor!r}; expected {EXECUTORS}"
        )
    if executor != "auto":
        return executor
    cores = cpu_count if cpu_count is not None else os.cpu_count() or 1
    if cores <= 1:
        return "serial"
    if shards is not None and shards <= 1:
        return "serial"
    if workers is not None and workers <= 1:
        return "serial"
    return "sharded"


class _RunnerMetrics:
    """The runner's ``exper.*`` instruments, resolved once per run.

    Pure observation: every method only counts and times — nothing
    here reads or advances a trial RNG, so aggregated results are
    byte-identical whether the registry records or is the null
    registry (a pinned invariant).
    """

    __slots__ = (
        "enabled", "runs", "trials_completed", "records_released",
        "records_replayed", "fractions_stopped", "trial_latency",
    )

    def __init__(self, registry: MetricsRegistry) -> None:
        view = registry.view("exper")
        self.enabled = registry.enabled
        self.runs = view.counter("runs")
        self.trials_completed = view.counter("trials_completed")
        self.records_released = view.counter("records_released")
        self.records_replayed = view.counter("records_replayed")
        self.fractions_stopped = view.counter("fractions_stopped")
        self.trial_latency = view.histogram("trial_latency")

    def observe_trial(self, trial: TrialSpec, seconds: float) -> None:
        """The serial executor's per-trial hook."""
        self.trials_completed.inc()
        self.trial_latency.observe(seconds)


class _StopTracker:
    """Prefix-deterministic early stopping for one run.

    Records arrive in arbitrary order; per fraction the tracker holds
    them until the trial-index watermark (count of consecutively
    completed trials from 0) passes them, then releases them
    downstream.  At checkpoints — ``stop_min_trials``, then every
    ``stop_check_every`` — it bootstraps each cell's CI over the
    completed prefix; when all cells beat ``stop_ci_width`` the
    fraction's stop count is fixed at that watermark and everything at
    or past it is discarded.  Every quantity consulted is a pure
    function of the completed-trial prefix, so all executors make
    identical decisions.
    """

    def __init__(
        self,
        spec: ExperimentSpec,
        on_stop: Optional[Callable[[int, int], None]] = None,
    ) -> None:
        self.spec = spec
        cells = len(spec.cells)
        self._pending: list[dict[int, list[TrialRecord]]] = [
            {} for _ in spec.fractions
        ]
        self._values: list[list[list[float]]] = [
            [[] for _ in range(cells)] for _ in spec.fractions
        ]
        self._watermark = [0] * len(spec.fractions)
        self._stop_at: list[Optional[int]] = [None] * len(spec.fractions)
        # Observation only — the callback sees each (fraction,
        # watermark) stop decision but cannot influence it.
        self._on_stop = on_stop

    def wants_index(self, fraction_index: int, trial_index: int) -> bool:
        """Should this grid coordinate still be evaluated?"""
        stop = self._stop_at[fraction_index]
        return stop is None or trial_index < stop

    def final_counts(self) -> tuple[int, ...]:
        return tuple(
            self.spec.trials if stop is None else stop
            for stop in self._stop_at
        )

    def observe(self, record: TrialRecord) -> list[TrialRecord]:
        """Absorb one record; return records now safe to emit."""
        spec = self.spec
        f = record.fraction_index
        stop = self._stop_at[f]
        if stop is not None and record.trial_index >= stop:
            return []
        pending = self._pending[f]
        pending.setdefault(record.trial_index, []).append(record)
        released: list[TrialRecord] = []
        cells = len(spec.cells)
        values = self._values[f]
        while True:
            watermark = self._watermark[f]
            complete = pending.get(watermark)
            if complete is None or len(complete) != cells:
                break
            del pending[watermark]
            complete.sort(key=lambda r: r.cell_index)
            for released_record in complete:
                values[released_record.cell_index].append(
                    released_record.attacker_fraction
                )
            released.extend(complete)
            self._watermark[f] = watermark = watermark + 1
            if self._should_stop(f, watermark):
                self._stop_at[f] = watermark
                for trial_index in [
                    t for t in pending if t >= watermark
                ]:
                    del pending[trial_index]
                if self._on_stop is not None:
                    self._on_stop(f, watermark)
                break
        return released

    def _should_stop(self, fraction_index: int, watermark: int) -> bool:
        spec = self.spec
        if watermark >= spec.trials:
            return False  # natural completion; nothing to cut short
        if watermark < spec.stop_min_trials:
            return False
        if (watermark - spec.stop_min_trials) % spec.stop_check_every:
            return False
        values = self._values[fraction_index]
        return all(
            prefix_ci_width(
                cell_values, spec.seed, fraction_index, cell_index
            ) <= spec.stop_ci_width
            for cell_index, cell_values in enumerate(values)
        )

    def flush_check(self) -> None:
        """Verify every fraction completed (no trials lost in flight)."""
        for f, pending in enumerate(self._pending):
            expected = self.final_counts()[f]
            if self._watermark[f] < expected or pending:
                raise ReproError(
                    f"fraction index {f} completed "
                    f"{self._watermark[f]} of {expected} trials"
                )


class ExperimentRunner:
    """Runs one :class:`ExperimentSpec` on one topology.

    Args:
        topology: the AS graph every trial propagates on.
        spec: the experiment grid.
        executor: ``"serial"``, ``"sharded"``, or ``"auto"`` (resolved
            via :func:`resolve_executor`); ``None`` (the default)
            defers to ``spec.executor``.
        workers: shard workers in flight at once under ``"sharded"``
            (default: CPU count).
        shards: shard count for ``"sharded"`` (default: ``workers``;
            under ``stopping="ci"`` a lower bound — see
            :func:`~repro.exper.sharded.plan_shards`).
        shard_store: directory (or
            :class:`~repro.results.store.ResultsStore`) holding the
            per-shard run files; default: a temporary directory
            removed when the run ends.  A persistent store is what
            makes shard files resumable across coordinator crashes —
            and mergeable with ``repro-roa results merge``.
        shard_transport: the dispatch transport (default: a
            :class:`~repro.exper.sharded.LocalShardTransport`; pass
            the serve tier's ``HttpShardTransport`` for remote hosts).
        shard_retries: relaunch a dead shard this many times, without
            delay, before the run fails (each retry resumes the shard's
            own file).
        shard_timeout: seconds without observable shard progress
            before the coordinator kills and reassigns it.
        shard_progress: observation-only callback forwarded to
            :class:`~repro.exper.sharded.ShardCoordinator` as
            ``progress`` — receives per-shard state/record snapshots
            (the job scheduler keeps the latest per run, for
            ``GET /experiments/<run>``).
        sink: a :class:`~repro.results.sinks.ResultSink` that receives
            the run header and every released record as it streams —
            e.g. a :class:`~repro.results.sinks.JsonlSink` for a
            durable run.
        resume_from: a sink holding an earlier, interrupted recording
            of the *same* spec (commonly the same object as ``sink``).
            Its header is verified against the spec's hash, its
            complete trials are replayed instead of re-evaluated
            (never even drawn), and partially-recorded trials are
            re-evaluated whole — so an interrupted-then-resumed run
            produces a result byte-identical to an uninterrupted one.
        registry: the :class:`~repro.obs.MetricsRegistry` the run's
            ``exper.*`` instruments record into (default: the process
            registry at run time; pass
            :data:`~repro.obs.NULL_REGISTRY` to switch telemetry off).
            Instrumentation never touches a trial RNG, so results are
            byte-identical whichever registry is installed.

    After a local ``"sharded"`` run, :attr:`last_shared_segment` names
    the shared-memory segment the run used (``None`` if the blob-pickle
    fallback shipped the topology); the segment itself is always
    unlinked by the time :meth:`iter_records` finishes — including on
    worker exceptions.
    """

    def __init__(
        self,
        topology: AsTopology,
        spec: ExperimentSpec,
        *,
        executor: Optional[str] = None,
        workers: Optional[int] = None,
        shards: Optional[int] = None,
        shard_store=None,
        shard_transport=None,
        shard_retries: int = 2,
        shard_timeout: float = 120.0,
        shard_progress=None,
        sink: Optional[ResultSink] = None,
        resume_from: Optional[ResultSink] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        requested = spec.executor if executor is None else executor
        if workers is not None and workers < 1:
            raise ReproError("workers must be positive")
        if shards is not None and shards < 1:
            raise ReproError("shards must be positive")
        self.topology = topology
        self.spec = spec
        self.executor = resolve_executor(
            requested, workers=workers, shards=shards
        )
        self.workers = workers or os.cpu_count() or 1
        self.shards = shards or self.workers
        self.shard_store = shard_store
        self.shard_transport = shard_transport
        self.shard_retries = shard_retries
        self.shard_timeout = shard_timeout
        self.shard_progress = shard_progress
        self.sink = sink
        self.resume_from = resume_from
        #: Metrics destination; ``None`` resolves the process-default
        #: registry at run time (so ``use_registry`` blocks around
        #: ``run()`` behave as expected).
        self.registry = registry
        self.last_shared_segment: Optional[str] = None
        #: Per-fraction trial counts of the last record stream drained
        #: to its end — what early stopping decided, else
        #: ``spec.trials`` everywhere — as handed to ``sink.finish``.
        self.last_trial_counts: Optional[tuple[int, ...]] = None
        self._header: Optional[RunHeader] = None

    # ------------------------------------------------------------------
    # Record streaming
    # ------------------------------------------------------------------

    def _metrics(self) -> _RunnerMetrics:
        return _RunnerMetrics(
            self.registry if self.registry is not None else get_registry()
        )

    def _make_tracker(
        self, metrics: _RunnerMetrics
    ) -> Optional["_StopTracker"]:
        if self.spec.stopping != "ci":
            return None

        def on_stop(fraction_index: int, watermark: int) -> None:
            metrics.fractions_stopped.inc()
            trace.get_tracer().instant(
                "exper.fraction_stopped",
                fraction_index=fraction_index,
                trials=watermark,
            )

        return _StopTracker(self.spec, on_stop)

    def iter_records(self) -> Iterator[TrialRecord]:
        """Stream TrialRecords as trials complete, in grid order
        under every executor.

        Under ``spec.stopping == "ci"`` the stream carries exactly the
        records of trials before each fraction's stop point.  With
        ``resume_from`` set, replayed records stream first; with
        ``sink`` set, every streamed record is persisted as it passes.
        """
        metrics = self._metrics()
        return self._records(self._make_tracker(metrics), metrics)

    def _load_resume(
        self,
    ) -> tuple[list[TrialRecord], frozenset[tuple[int, int]]]:
        """The resume sink's replayable records and finished trials.

        Only *complete* trials — every cell's record present — are
        replayed and skipped; a trial the interrupted run recorded
        partially is re-evaluated whole (a durable sink drops the
        partial block when it re-opens its file, so nothing repeats).
        """
        if self.resume_from is None:
            return [], frozenset()
        header, records = self.resume_from.resume_scan()
        if header is None:
            return [], frozenset()
        # Trial outcomes are functions of (rule, topology, spec, trial):
        # replaying records of another would silently mix worlds.
        check_header_compatible(
            header, self._run_header(), "resume source"
        )
        _check_coordinates(records, self.spec, "resume")
        finished = complete_trials(records, len(self.spec.cells))
        replay = [
            record for key in sorted(finished) for record in finished[key]
        ]
        return replay, frozenset(finished)

    def _run_header(self) -> RunHeader:
        """This run's identity: spec hash plus topology digest."""
        if self._header is None:
            self._header = RunHeader.for_spec(self.spec, self.topology)
        return self._header

    def _records(
        self,
        tracker: Optional["_StopTracker"],
        metrics: _RunnerMetrics,
    ) -> Iterator[TrialRecord]:
        """One run's record stream; all per-run state (stop tracker,
        shared-memory handle) lives in this generator, so overlapping
        or abandoned iterations cannot interfere with each other."""
        metrics.runs.inc()
        with trace.span("exper.resume_scan"):
            replay, finished = self._load_resume()
        if replay:
            metrics.records_replayed.inc(len(replay))
        sink = self.sink
        if sink is not None:
            sink.begin(self._run_header())
        # Replayed records already live in the resume sink; re-write
        # them only when the destination is a different sink.
        rewrite_replay = sink is not None and sink is not self.resume_from

        def wants(fraction_index: int, trial_index: int) -> bool:
            if (fraction_index, trial_index) in finished:
                return False
            return tracker is None or tracker.wants_index(
                fraction_index, trial_index
            )

        if self.executor == "sharded":
            # Shard workers materialize their own trials; the
            # coordinator streams their records back in grid order
            # (``finished`` coordinates excluded — they replay above).
            raw = self._iter_sharded(finished, tracker)
        else:
            # Trials are drawn one at a time, each after the tracker
            # has seen every record of the one before, so ``wants``
            # alone keeps a stopped fraction's trials from running.
            trials = iter_trials(self.spec, self.topology, wants=wants)
            raw = evaluate_trials(
                self.topology, self.spec, trials,
                # With the null registry the hook is omitted entirely,
                # so the telemetry-off path skips even the clock reads.
                observe=metrics.observe_trial if metrics.enabled else None,
            )

        records_released = metrics.records_released

        def emit(record: TrialRecord) -> TrialRecord:
            records_released.inc()
            if sink is not None and (
                rewrite_replay
                or (record.fraction_index, record.trial_index)
                not in finished
            ):
                sink.write(record)
            return record

        if tracker is None:
            for record in replay:
                yield emit(record)
            for record in raw:
                yield emit(record)
        else:
            # Replay first: tracker decisions are pure functions of
            # completed prefixes, so re-observing the recorded records
            # reproduces the interrupted run's stopping state exactly.
            for record in replay:
                for released in tracker.observe(record):
                    yield emit(released)
            for record in raw:
                for released in tracker.observe(record):
                    yield emit(released)
            tracker.flush_check()
        self.last_trial_counts = (
            tracker.final_counts()
            if tracker is not None
            else (self.spec.trials,) * len(self.spec.fractions)
        )
        if sink is not None:
            sink.finish(self.last_trial_counts)

    def _iter_sharded(
        self, finished: frozenset, tracker: Optional[_StopTracker]
    ) -> Iterator[TrialRecord]:
        """Raw record stream of the sharded executor.

        The coordinator yields in grid order with ``finished``
        coordinates excluded, so downstream (tracker, sink, emit)
        treats this exactly like the serial stream.  It consults the
        tracker's ``wants_index`` to leave out shards past a stop; what
        a shard wrote past one before that, the tracker discards —
        identical counts and records to serial.
        """
        coordinator = ShardCoordinator(
            self.topology,
            self.spec,
            shards=self.shards,
            store=self.shard_store,
            transport=self.shard_transport,
            parallel=self.workers,
            retry=RetryPolicy(retries=self.shard_retries),
            timeout=self.shard_timeout,
            finished=finished,
            registry=self.registry,
            progress=self.shard_progress,
            wants=None if tracker is None else tracker.wants_index,
        )
        try:
            yield from coordinator.records()
        finally:
            self.last_shared_segment = coordinator.last_shared_segment

    # ------------------------------------------------------------------
    # One-shot aggregation
    # ------------------------------------------------------------------

    def run(
        self,
        *,
        bootstrap_resamples: int = 1000,
        confidence: float = 0.95,
        on_record: Optional[Callable[[TrialRecord], None]] = None,
    ) -> ExperimentResult:
        """Run every trial and aggregate the grid.

        ``on_record`` observes each record as it streams in (progress
        reporting); it must not mutate the record.
        """
        def records() -> Iterator[TrialRecord]:
            for record in self.iter_records():
                if on_record is not None:
                    on_record(record)
                yield record

        with trace.span(
            "exper.run",
            executor=self.executor,
            cells=len(self.spec.cells),
            trials=self.spec.total_trials,
        ):
            return aggregate_records(
                self.spec,
                records(),
                bootstrap_resamples=bootstrap_resamples,
                confidence=confidence,
            )
