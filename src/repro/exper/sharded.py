"""Sharded execution: partition a grid, dispatch shards, union them.

A sharded run splits an :class:`~repro.exper.spec.ExperimentSpec`'s
(fraction, trial) grid into *contiguous* slices of its canonical
fractions-outer, trials-inner order (:func:`plan_shards`), evaluates
each slice as an independent worker (:func:`run_shard`) streaming into
its own durable :class:`~repro.results.sinks.JsonlSink` run, and
re-streams the shard records back to the driver **in shard order**
(:class:`ShardCoordinator`).  Contiguity is the load-bearing choice:
each shard evaluates its slice serially in grid order, and shard files
sort by grid coordinate, so concatenating completed shards in shard
order reproduces exactly the serial executor's record stream — the
coordinator's sink file is byte-identical to a serial run's, and
``merge_runs`` over the shard partials is too.

Determinism is free: every trial's seed is self-contained, so a worker
draws exactly its slice's trials and nothing else.

Failure semantics: a shard that dies — killed, crashed, or silent past
the progress timeout — is retried up to ``retry.retries`` times,
resuming its own partial shard file (complete trials are skipped; the sink
cuts a partial tail line and a half-recorded trial when it re-opens
the file), so a retried shard converges on the same bytes an
undisturbed one writes.  The coordinator babysits workers through a
deliberately narrow transport interface (start/poll/stop/collect);
:class:`LocalShardTransport` runs them as local processes sharing the
compiled topology blob through one shared-memory segment, and the
serve tier's ``HttpShardTransport`` dispatches them to remote worker
hosts over HTTP (the layering DAG forbids importing it from here; the
CLI wires it in).

Fault injection for the test suite and CI is a
:class:`~repro.faults.FaultPlan` carried via
:data:`~repro.faults.PLAN_ENV`: workers install it at entry
(:func:`~repro.faults.install_from_env`, resetting fork-inherited hit
counters) and :func:`run_shard` fires the ``exper.shard.record``
injection point after every record, tagged with ``shard`` and
``attempt`` — a rule matching ``attempt=0`` fires on a shard's first
attempt only, so a faulted run exercises death *and* recovery.  A
local worker fires ``exper.shard.open`` once, before it opens its run
file; the coordinator has written that file's header already, so a
worker stopped there still leaves a header-only partial.  Retry
pacing is a :class:`~repro.faults.RetryPolicy` — deterministic
backoff-with-jitter keyed on the run base and shard index — replacing
the old immediate-relaunch loop (the default policy keeps zero delay,
so existing behaviour is unchanged unless a policy is passed).
"""

from __future__ import annotations

import os
import tempfile
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, Optional, Union

from ..bgp.fastprop import PropagationWorkspace
from ..bgp.topology import AsTopology, CompiledTopology
from ..faults.plan import fire, install_from_env
from ..faults.retry import RetryPolicy
from ..netbase.codec import Field, decode, encode, many
from ..netbase.errors import ReproError
from ..obs import trace
from ..obs.metrics import MetricsRegistry, get_registry
from ..results.sinks import (
    JsonlSink,
    RunHeader,
    check_header_compatible,
    complete_trials,
    read_run,
)
from ..results.runid import shard_run_id
from ..results.store import ResultsStore
from .evaluate import TrialRecord, evaluate_trials
from .spec import ExperimentSpec, iter_trials

__all__ = [
    "LocalShardTransport",
    "Shard",
    "ShardCoordinator",
    "plan_shards",
    "run_shard",
]


@dataclass(frozen=True)
class Shard:
    """One contiguous slice of a spec's (fraction, trial) grid.

    ``ranges`` is a tuple of ``(fraction_index, start, stop)``
    half-open trial ranges; together the plan's shards tile the grid's
    canonical fractions-outer, trials-inner order without gaps or
    overlaps, and each shard's ranges are themselves contiguous in
    that order — the property the coordinator's ordered union relies
    on.
    """

    shard_index: int
    shard_count: int
    ranges: tuple[tuple[int, int, int], ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "ranges",
            tuple(tuple(entry) for entry in self.ranges),
        )
        if not 0 <= self.shard_index < self.shard_count:
            raise ReproError(
                f"shard index {self.shard_index} outside plan of "
                f"{self.shard_count}"
            )
        for entry in self.ranges:
            fraction_index, start, stop = entry
            if fraction_index < 0 or not 0 <= start < stop:
                raise ReproError(f"bad shard range {entry!r}")

    @property
    def trial_count(self) -> int:
        return sum(stop - start for _, start, stop in self.ranges)

    def contains(self, fraction_index: int, trial_index: int) -> bool:
        """Is this grid coordinate inside the shard's slice?"""
        for f, start, stop in self.ranges:
            if f == fraction_index and start <= trial_index < stop:
                return True
        return False

    def run_id(self, base: str) -> str:
        """This shard's canonical run id under ``base``."""
        return shard_run_id(base, self.shard_index, self.shard_count)

    def to_json_dict(self) -> dict:
        return encode(_SHARD_FIELDS, vars(self))

    @classmethod
    def from_json_dict(cls, data: object) -> "Shard":
        """Decode strictly: ``ranges`` a list of ``[fraction_index,
        start, stop]`` integer lists."""
        return cls(**decode("shard JSON", _SHARD_FIELDS, data))


_SHARD_FIELDS = (
    Field("shard_index", int),
    Field("shard_count", int),
    Field("ranges", many(many(int, 3))),
)


#: Longest run of one fraction's trials a shard holds under
#: ``stopping == "ci"``: a stop takes effect between shards, so this
#: bounds what it wastes.  Measured at 10 k ASes, 4 cells, 2 workers
#: (docs/architecture.md): on grids that stop after 16–304 trials, 16,
#: 32 and 64 run alike, 128 is slower and 256 twice as slow; on a grid
#: that never stops, 64 costs nothing over one shard per worker while
#: 16 pays a worker start-up per 16 trials (+30 %).
_STOP_CHUNK_TRIALS = 64


def _even_cuts(length: int, pieces: int) -> Iterator[tuple[int, int]]:
    """``range(length)`` as ``pieces`` contiguous half-open slices whose
    sizes differ by at most one (earlier slices take the remainder)."""
    size, extra = divmod(length, pieces)
    lo = 0
    for piece in range(pieces):
        hi = lo + size + (1 if piece < extra else 0)
        yield lo, hi
        lo = hi


def plan_shards(spec: ExperimentSpec, shards: int) -> tuple[Shard, ...]:
    """Partition the spec's grid into near-even contiguous shards.

    The grid's ``total_trials`` coordinates — fractions outer, trials
    inner — are cut into at most ``shards`` contiguous slices whose
    sizes differ by at most one (earlier shards take the remainder).
    Plans never contain empty shards: a request for more shards than
    trials yields one shard per trial.

    Under ``spec.stopping == "ci"`` every fraction is cut separately,
    into near-even chunks of at most ``_STOP_CHUNK_TRIALS`` trials, so
    the coordinator can stop a fraction between chunks; ``shards`` is
    then a lower bound on the plan's length (trials permitting).
    """
    if shards < 1:
        raise ReproError("shards must be positive")
    total = spec.total_trials
    if spec.stopping == "ci":
        pieces = min(
            spec.trials,
            max(
                -(-spec.trials // _STOP_CHUNK_TRIALS),
                -(-shards // len(spec.fractions)),
            ),
        )
        cuts = [
            (base + lo, base + hi)
            for base in range(0, total, spec.trials)
            for lo, hi in _even_cuts(spec.trials, pieces)
        ]
    else:
        cuts = list(_even_cuts(total, min(shards, total)))
    plan = []
    for shard_index, (lo, hi) in enumerate(cuts):
        ranges = []
        for fraction_index in range(len(spec.fractions)):
            base = fraction_index * spec.trials
            start = max(lo, base)
            stop = min(hi, base + spec.trials)
            if start < stop:
                ranges.append((fraction_index, start - base, stop - base))
        plan.append(
            Shard(
                shard_index=shard_index,
                shard_count=len(cuts),
                ranges=tuple(ranges),
            )
        )
    return tuple(plan)


def run_shard(
    topology: AsTopology,
    spec: ExperimentSpec,
    shard: Shard,
    *,
    sink: Optional[JsonlSink] = None,
    resume: bool = False,
    finished: frozenset = frozenset(),
    header: Optional[RunHeader] = None,
    eval_topology=None,
    workspace: Optional[PropagationWorkspace] = None,
    on_record: Optional[Callable[[TrialRecord], None]] = None,
    attempt: int = 0,
) -> int:
    """Evaluate one shard serially, in grid order; return records written.

    ``topology`` materializes trials (it must be the object form —
    samplers draw from it); ``eval_topology`` (default: ``topology``)
    is what trials evaluate on, so workers pass their attached
    :class:`~repro.bgp.topology.CompiledTopology` and reuse
    ``workspace`` across trials.  ``finished`` grid coordinates —
    trials the coordinator already holds records for — are skipped
    without being drawn, exactly like a resumed run.  With
    ``resume=True`` the sink's existing complete trials are treated the
    same way, so a retried shard picks up where its dead predecessor
    flushed.

    The installed :class:`~repro.faults.FaultPlan` (if any) is
    consulted after every record at the ``exper.shard.record``
    injection point, with ``shard``/``attempt`` context so plans can
    target specific shards and first attempts only.
    """
    if header is None:
        header = RunHeader.for_spec(spec, topology)
    done = set(finished)
    if resume and sink is not None:
        prior, records = sink.resume_scan()
        if prior is not None:
            check_header_compatible(prior, header, "shard resume source")
            done.update(complete_trials(records, len(spec.cells)))
    if sink is not None:
        sink.begin(header)

    def wants(fraction_index: int, trial_index: int) -> bool:
        return (
            shard.contains(fraction_index, trial_index)
            and (fraction_index, trial_index) not in done
        )

    trials = iter_trials(spec, topology, wants=wants)
    written = 0
    for record in evaluate_trials(
        eval_topology if eval_topology is not None else topology,
        spec,
        trials,
        workspace=workspace,
    ):
        if sink is not None:
            sink.write(record)
        written += 1
        if on_record is not None:
            on_record(record)
        fire(
            "exper.shard.record",
            shard=shard.shard_index,
            attempt=attempt,
        )
    if sink is not None:
        sink.finish(())
    return written


# ----------------------------------------------------------------------
# Shared-memory topology shipping to local shard workers
# ----------------------------------------------------------------------


def share_topology(topology: AsTopology) -> tuple:
    """Compile once, publish the blob, return ``(payload, handle)``.

    Preferred transport: a shared-memory segment all workers attach
    zero-copy — ``payload`` is ``("shm", name)`` and the caller owns
    ``handle``, passing it to :func:`release_shared` when its run ends.
    Fallback (no ``/dev/shm``, permissions): ``("blob", bytes)`` with a
    ``None`` handle; the blob rides the worker arguments' pickle —
    still one flat buffer, still no per-worker recompile.
    """
    blob = topology.compiled().to_blob()
    try:
        from multiprocessing import shared_memory

        shm = shared_memory.SharedMemory(create=True, size=len(blob))
    except (ImportError, OSError):
        return ("blob", blob), None
    try:
        shm.buf[: len(blob)] = blob
    except BaseException:
        release_shared(shm)
        raise
    return ("shm", shm.name), shm


def attach_shared_blob(name: str):
    """Attach a shared-memory segment without adopting its lifecycle.

    The driver owns creation and unlinking; a worker only maps the
    segment.  On Python 3.13+ ``track=False`` keeps the attach out of
    the resource tracker entirely; before that, workers share the
    driver's tracker, where re-registering the same name is idempotent
    and the driver's unlink unregisters it exactly once — so a plain
    attach is already lifecycle-clean.
    """
    from multiprocessing import shared_memory

    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13: no track parameter
        return shared_memory.SharedMemory(name=name)


def release_shared(shm) -> None:
    """Close and unlink the segment :func:`share_topology` created."""
    shm.close()
    try:
        shm.unlink()
    except FileNotFoundError:
        pass


# ----------------------------------------------------------------------
# Local worker processes
# ----------------------------------------------------------------------


def _run_attached(
    buf,
    spec: ExperimentSpec,
    shard: Shard,
    sink: JsonlSink,
    finished: frozenset,
    attempt: int,
    header: RunHeader,
) -> None:
    """Run one shard over an attached blob.

    Everything derived from ``buf`` — the compiled topology, the
    reconstructed object form, the workspace — stays local to this
    frame, so by the time the caller closes its shared-memory handle
    no exported buffer views remain.
    """
    compiled = CompiledTopology.from_blob(buf)
    run_shard(
        compiled.to_topology(),
        spec,
        shard,
        sink=sink,
        resume=True,
        finished=finished,
        header=header,
        eval_topology=compiled,
        workspace=PropagationWorkspace(compiled),
        attempt=attempt,
    )


def _local_shard_main(
    payload: tuple,
    spec: ExperimentSpec,
    shard: Shard,
    path: str,
    finished: frozenset,
    attempt: int,
    header: RunHeader,
) -> None:
    """Entry point of one local shard worker process.

    Attaches the compiled topology (shared memory or pickled blob)
    and runs the shard with resume — the file it streams into doubles
    as its own crash journal.  Failures leave their reason in
    ``<path>.err`` for the coordinator and exit nonzero via
    :func:`os._exit` (skipping interpreter teardown, which would
    otherwise spray ``BufferError`` noise from shared-memory views
    still referenced by the exception's traceback); progress
    heartbeats are simply the sink's flushed writes (the coordinator
    watches the file grow).
    """
    kind, value = payload
    # Fresh fault-plan hit counters per attempt: forked workers inherit
    # the coordinator's installed plan, so re-parse it from the
    # environment to start counting this attempt's hits from zero.
    install_from_env()
    shm = attach_shared_blob(value) if kind == "shm" else None
    sink = JsonlSink(path)
    try:
        fire("exper.shard.open", shard=shard.shard_index, attempt=attempt)
        _run_attached(
            shm.buf if shm is not None else value,
            spec, shard, sink, finished, attempt, header,
        )
    except BaseException as exc:
        Path(path + ".err").write_text(
            f"{type(exc).__name__}: {exc}", encoding="utf-8"
        )
        sink.close()
        os._exit(1)
    sink.close()
    if shm is not None:
        try:
            shm.close()
        except BufferError:
            # A stray view survived; the mapping dies with the process.
            os._exit(0)


class _LocalJob:
    """Book-keeping for one running local worker process."""

    __slots__ = ("shard", "attempt", "process", "path", "size", "beat")

    def __init__(self, shard, attempt, process, path) -> None:
        self.shard = shard
        self.attempt = attempt
        self.process = process
        self.path = path
        self.size = -1
        self.beat = time.monotonic()


class LocalShardTransport:
    """Shard workers as local processes, topology shared once.

    Implements the coordinator's transport interface:

    * ``start(shard, path, finished, attempt, header)`` — launch a
      worker streaming into ``path``;
    * ``poll()`` — ``{shard_index: ("done", None) | ("failed", reason)
      | ("running", seconds_since_progress)}`` for every started
      shard; progress is the shard file growing (every record is
      flushed, so a live worker beats on every trial);
    * ``stop(shard_index)`` — kill a worker and forget it (timeout
      reassignment, or a shard early stopping no longer wants);
    * ``collect(shard, path)`` — records are already at ``path``
      (workers write in place), so this just forgets the job;
    * ``close()`` — kill stragglers and release the shared-memory
      segment.

    The compiled topology is published once, to one shared-memory
    segment every worker attaches zero-copy (blob-pickle fallback when
    shared memory is unavailable); ``last_shared_segment`` records the
    segment name for leak checks.
    """

    def __init__(
        self,
        topology: AsTopology,
        spec: ExperimentSpec,
    ) -> None:
        import multiprocessing

        self.topology = topology
        self.spec = spec
        self.last_shared_segment: Optional[str] = None
        self._payload: Optional[tuple] = None
        self._shm = None
        self._jobs: dict[int, _LocalJob] = {}
        self._ctx = multiprocessing.get_context()

    def start(
        self,
        shard: Shard,
        path: Path,
        finished: frozenset,
        attempt: int,
        header: RunHeader,
    ) -> None:
        if self._payload is None:
            self._payload, self._shm = share_topology(self.topology)
            if self._shm is not None:
                self.last_shared_segment = self._shm.name
        process = self._ctx.Process(
            target=_local_shard_main,
            args=(
                self._payload, self.spec, shard, str(path), finished,
                attempt, header,
            ),
            daemon=True,
        )
        process.start()
        self._jobs[shard.shard_index] = _LocalJob(
            shard, attempt, process, Path(path)
        )

    def poll(self) -> dict[int, tuple[str, object]]:
        now = time.monotonic()
        statuses: dict[int, tuple[str, object]] = {}
        for index in sorted(self._jobs):
            job = self._jobs[index]
            exitcode = job.process.exitcode
            if exitcode is None:
                try:
                    size = os.stat(job.path).st_size
                except OSError:
                    size = -1
                if size != job.size:
                    job.size = size
                    job.beat = now
                statuses[index] = ("running", now - job.beat)
            elif exitcode == 0:
                statuses[index] = ("done", None)
            else:
                statuses[index] = ("failed", self._failure_reason(job))
        return statuses

    def _failure_reason(self, job: _LocalJob) -> str:
        error_path = Path(str(job.path) + ".err")
        try:
            detail = error_path.read_text(encoding="utf-8").strip()
        except OSError:
            detail = ""
        code = job.process.exitcode
        what = (
            f"killed by signal {-code}" if code is not None and code < 0
            else f"exited {code}"
        )
        return f"worker {what}" + (f": {detail}" if detail else "")

    def stop(self, shard_index: int) -> None:
        """Kill a worker (if still running) and forget it."""
        job = self._jobs.pop(shard_index, None)
        if job is None:
            return
        if job.process.exitcode is None:
            job.process.kill()
        job.process.join()

    def collect(self, shard: Shard, path: Path) -> None:
        """Finalize a completed shard: its records are already local."""
        job = self._jobs.pop(shard.shard_index, None)
        if job is not None:
            job.process.join()
        error_path = Path(str(path) + ".err")
        try:
            error_path.unlink()
        except OSError:
            pass

    def close(self) -> None:
        for index in sorted(self._jobs):
            self.stop(index)
        if self._shm is not None:
            release_shared(self._shm)
            self._shm = None
        self._payload = None


# ----------------------------------------------------------------------
# The coordinator
# ----------------------------------------------------------------------


class _ShardMetrics:
    """The coordinator's ``exper.*`` shard-lifecycle instruments."""

    __slots__ = (
        "enabled", "shards_dispatched", "shards_completed",
        "shards_failed", "shards_retried", "inflight_shards",
        "shard_latency",
    )

    def __init__(self, registry: MetricsRegistry) -> None:
        view = registry.view("exper")
        self.enabled = registry.enabled
        self.shards_dispatched = view.counter("shards_dispatched")
        self.shards_completed = view.counter("shards_completed")
        self.shards_failed = view.counter("shards_failed")
        self.shards_retried = view.counter("shards_retried")
        self.inflight_shards = view.gauge("inflight_shards")
        self.shard_latency = view.histogram("shard_latency")


class ShardCoordinator:
    """Dispatch a shard plan and re-stream its records in grid order.

    The coordinator owns policy — launch order, the in-flight window,
    the progress timeout, retry/reassignment — and drives any object
    implementing the transport interface
    (:class:`LocalShardTransport` by default; the serve tier's
    ``HttpShardTransport`` for remote hosts).  Records are yielded
    strictly in shard order (shard *k+1* waits for *k* even if it
    finished first), each shard's sorted by grid coordinate, which by
    plan contiguity is exactly the serial executor's order.

    Shard runs live in ``store`` (a :class:`~repro.results.store
    .ResultsStore` root) under :func:`~repro.results.runid
    .shard_run_id` names; with no store a temporary directory is used
    and removed when the stream completes — a crashed *coordinator*
    with a persistent store leaves resumable shard files behind, which
    is the multi-host resume story.

    ``finished`` coordinates (from the runner's resume scan) are
    neither re-evaluated by workers nor re-yielded from pre-existing
    shard files — the runner replays them from its own sink.

    Retry pacing is a :class:`~repro.faults.RetryPolicy` (``retry``;
    default ``RetryPolicy(retries=2)``, whose zero base delay
    reproduces the historical immediate relaunch): a failed shard is
    re-queued but not redispatched before its deterministic
    backoff-with-jitter deadline, keyed on ``run_base`` and the shard
    index so schedules are reproducible run to run.

    ``progress`` is an observation-only callback: whenever shard state
    changes (dispatch, completion, retry, or growth of a running
    shard's local run file) it receives ``{shard_index: {"state": ...,
    "attempt": ..., "records": ...}}`` covering every shard of the
    plan.  The job scheduler keeps the latest per run
    (:meth:`~repro.jobs.scheduler.JobScheduler.shards`), so
    ``GET /experiments/<run>`` shows per-shard progress while a
    sharded job runs.  It must not raise and cannot influence the
    record stream.

    ``wants(fraction_index, trial_index)`` is how early stopping
    reaches the workers: the runner passes its stop tracker's
    ``wants_index``, whose answers change only while the consumer
    absorbs the records yielded here.  A shard whose every range
    starts at or past its fraction's stop is never dispatched, is
    stopped through the transport if it is running — neither a failure
    nor a retry — is passed over by the ordered re-stream, and is
    published as ``"skipped"``.  Under ``stopping == "ci"`` the first
    chunk of every fraction is dealt before any second chunk.
    """

    def __init__(
        self,
        topology: AsTopology,
        spec: ExperimentSpec,
        *,
        shards: int,
        store: Optional[Union[str, Path, ResultsStore]] = None,
        run_base: Optional[str] = None,
        transport=None,
        parallel: Optional[int] = None,
        retry: RetryPolicy = RetryPolicy(retries=2),
        timeout: float = 120.0,
        poll_interval: float = 0.02,
        finished: frozenset = frozenset(),
        registry: Optional[MetricsRegistry] = None,
        progress: Optional[Callable[[dict], None]] = None,
        wants: Optional[Callable[[int, int], bool]] = None,
    ) -> None:
        if timeout <= 0:
            raise ReproError("timeout must be positive")
        self.topology = topology
        self.spec = spec
        self.plan = plan_shards(spec, shards)
        if isinstance(store, (str, Path)):
            store = ResultsStore(store)
        self.store = store
        self.run_base = run_base or f"grid-{spec.spec_hash()[:12]}"
        self.transport = transport
        self.parallel = parallel or min(
            len(self.plan), os.cpu_count() or 1
        )
        self.retry = retry
        self.timeout = timeout
        self.poll_interval = poll_interval
        self.finished = finished
        self.registry = registry
        self.progress = progress
        self.wants = wants
        self.last_shared_segment: Optional[str] = None

    def records(self) -> Iterator[TrialRecord]:
        """Run the plan; yield every record in serial grid order."""
        metrics = _ShardMetrics(
            self.registry if self.registry is not None
            else get_registry()
        )
        tempdir = None
        store = self.store
        if store is None:
            tempdir = tempfile.TemporaryDirectory(prefix="repro-shards-")
            store = ResultsStore(tempdir.name)
        transport = self.transport
        owns_transport = transport is None
        if owns_transport:
            transport = LocalShardTransport(self.topology, self.spec)
        try:
            yield from self._pump(transport, store, metrics)
        finally:
            if owns_transport:
                transport.close()
            self.last_shared_segment = getattr(
                transport, "last_shared_segment", None
            )
            if tempdir is not None:
                tempdir.cleanup()

    def _pump(
        self,
        transport,
        store: ResultsStore,
        metrics: _ShardMetrics,
    ) -> Iterator[TrialRecord]:
        plan = self.plan
        header = RunHeader.for_spec(self.spec, self.topology)
        store.root.mkdir(parents=True, exist_ok=True)
        paths = {
            shard.shard_index: store.path(shard.run_id(self.run_base))
            for shard in plan
        }
        attempts = {shard.shard_index: 0 for shard in plan}
        started = {}
        order = range(len(plan))
        if self.spec.stopping == "ci":
            # One range per shard: deal chunk k of every fraction
            # before chunk k + 1 of any.
            order = sorted(order, key=lambda i: (plan[i].ranges[0][1], i))
        pending: deque[int] = deque(order)
        not_before: dict[int, float] = {}
        inflight: set[int] = set()
        completed: set[int] = set()
        tracer = trace.get_tracer()
        next_to_yield = 0
        states = {shard.shard_index: "queued" for shard in plan}
        shard_lines = {shard.shard_index: 0 for shard in plan}
        observed_sizes: dict[int, int] = {}
        wants = self.wants

        def publish() -> None:
            if self.progress is None:
                return
            self.progress(
                {
                    index: {
                        "state": (
                            "skipped"
                            if index not in completed and stopped(index)
                            else states[index]
                        ),
                        "attempt": attempts[index],
                        # The first line is the run header.
                        "records": max(0, shard_lines[index] - 1),
                    }
                    for index in states
                }
            )

        def observe_running(index: int) -> bool:
            """Refresh a running shard's line count from the bytes its
            file gained since the last look."""
            try:
                size = os.path.getsize(paths[index])
            except OSError:
                return False
            seen = observed_sizes.get(index, 0)
            if size == seen:
                return False
            if size < seen:  # a retry's resume cut a torn tail
                seen = shard_lines[index] = 0
            with open(paths[index], "rb") as handle:
                handle.seek(seen)
                shard_lines[index] += handle.read(size - seen).count(b"\n")
            observed_sizes[index] = size
            return True

        def stopped(index: int) -> bool:
            """Has early stopping stopped every fraction this shard
            covers before the shard's first trial of it?"""
            return wants is not None and not any(
                wants(fraction_index, start)
                for fraction_index, start, _ in plan[index].ranges
            )

        def fail(index: int, reason: str) -> None:
            metrics.shards_failed.inc()
            attempts[index] += 1
            if not self.retry.allows(attempts[index]):
                states[index] = "failed"
                publish()
                raise ReproError(
                    f"shard {index} failed after {attempts[index]} "
                    f"attempts: {reason}"
                )
            states[index] = "queued"
            metrics.shards_retried.inc()
            delay = self.retry.backoff(
                attempts[index], token=f"{self.run_base}:{index}"
            )
            if delay > 0:
                not_before[index] = time.monotonic() + delay
            tracer.instant(
                "exper.shard_retried",
                shard=index,
                reason=reason,
                backoff=round(delay, 6),
            )
            pending.appendleft(index)

        while next_to_yield < len(plan):
            progressed = False
            while pending and len(inflight) < self.parallel:
                now = time.monotonic()
                position = next(
                    (
                        pos
                        for pos, candidate in enumerate(pending)
                        if not_before.get(candidate, 0.0) <= now
                    ),
                    None,
                )
                if position is None:
                    break  # every queued shard is still backing off
                index = pending[position]
                del pending[position]
                not_before.pop(index, None)
                progressed = True
                if stopped(index):
                    continue
                # Every dispatched shard leaves a file: the header goes
                # down before the worker starts, so one stopped before
                # it opened its sink is a readable, header-only partial.
                with JsonlSink(paths[index]) as sink:
                    sink.begin(header)
                transport.start(
                    plan[index], paths[index], self.finished,
                    attempts[index], header,
                )
                started[index] = time.perf_counter()
                inflight.add(index)
                states[index] = "running"
                metrics.shards_dispatched.inc()
                metrics.inflight_shards.set(len(inflight))
                tracer.instant(
                    "exper.shard_dispatched",
                    shard=index,
                    attempt=attempts[index],
                    trials=plan[index].trial_count,
                )
            statuses = transport.poll()
            for index in sorted(inflight):
                status, detail = statuses.get(index, ("running", 0.0))
                if status == "running":
                    if (
                        isinstance(detail, (int, float))
                        and detail > self.timeout
                    ):
                        transport.stop(index)
                        inflight.discard(index)
                        metrics.inflight_shards.set(len(inflight))
                        fail(
                            index,
                            f"no progress for {detail:.1f}s "
                            f"(timeout {self.timeout:.1f}s)",
                        )
                        progressed = True
                    continue
                inflight.discard(index)
                metrics.inflight_shards.set(len(inflight))
                progressed = True
                if status == "done":
                    transport.collect(plan[index], paths[index])
                    completed.add(index)
                    states[index] = "done"
                    if self.progress is not None:
                        observe_running(index)
                    metrics.shards_completed.inc()
                    metrics.shard_latency.observe(
                        time.perf_counter() - started[index]
                    )
                    tracer.instant(
                        "exper.shard_completed", shard=index,
                    )
                else:
                    transport.stop(index)  # reap before relaunch
                    fail(index, str(detail))
            while True:
                # A shard past a stop is neither waited for nor read,
                # even if it finished before the stop was known.
                while next_to_yield < len(plan) and stopped(next_to_yield):
                    next_to_yield += 1
                    progressed = True
                if next_to_yield not in completed:
                    break
                shard = plan[next_to_yield]
                run_header, records = read_run(paths[next_to_yield])
                check_header_compatible(
                    run_header, header,
                    f"shard {next_to_yield} run {paths[next_to_yield]}",
                )
                for record in records:
                    key = (record.fraction_index, record.trial_index)
                    if key in self.finished:
                        continue
                    if not shard.contains(*key):
                        raise ReproError(
                            f"shard {next_to_yield} run holds a record "
                            f"for grid coordinate {key} outside its "
                            f"slice"
                        )
                    yield record
                next_to_yield += 1
                progressed = True
            # The consumer fixes stops while it absorbs the records
            # yielded above; running shards past one end here, which is
            # neither a failure nor a retry.
            for index in [i for i in sorted(inflight) if stopped(i)]:
                transport.stop(index)
                inflight.discard(index)
                metrics.inflight_shards.set(len(inflight))
                progressed = True
            if self.progress is not None:
                counted = False
                for index in sorted(inflight):
                    counted = observe_running(index) or counted
                if counted or progressed:
                    publish()
            if not progressed and (inflight or pending):
                time.sleep(self.poll_interval)
