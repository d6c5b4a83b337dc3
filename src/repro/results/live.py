"""Live run state: what the serve tier answers ``/experiments`` with.

A :class:`RunRegistry` is a thread-safe map of run id → streaming
per-cell statistics.  An experiment publishes into it through a
:class:`ServePublisher` — an ordinary
:class:`~repro.results.sinks.ResultSink`, so the same record stream
that lands in a durable :class:`~repro.results.sinks.JsonlSink` can be
teed into the registry and show up, incrementally, on the query
service's HTTP endpoints while the run is still going.  Finished runs
sitting in a :class:`~repro.results.store.ResultsStore` can be loaded
in too, so one server answers for live and archived runs alike.

The registry is intentionally cheap to update: one lock, one Welford
update per record (see
:class:`~repro.results.accumulate.CellAccumulator`), JSON-ready
snapshots built only when asked.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from ..netbase.errors import ReproError

if TYPE_CHECKING:  # pragma: no cover — typing only (import-cycle care)
    from ..exper.evaluate import TrialRecord
from .accumulate import GridAccumulator
from .sinks import ResultSink, RunHeader

__all__ = ["RunRegistry", "ServePublisher"]


class _LiveRun:
    """One run's registry entry (mutated only under the registry lock)."""

    def __init__(self, run_id: str, header: RunHeader) -> None:
        self.run_id = run_id
        self.header = header
        self.spec = header.experiment_spec()
        self.grid = GridAccumulator(self.spec)
        self.status = "running"
        self.trial_counts: Optional[tuple] = None
        self.shards: Optional[dict] = None

    @property
    def expected_records(self) -> int:
        return self.spec.total_trials * len(self.spec.cells)

    def summary(self) -> dict:
        return {
            "run": self.run_id,
            "status": self.status,
            "spec_hash": self.header.spec_hash,
            "seed": self.header.seed,
            "rule": self.header.rule,
            "records": self.grid.records,
            "expected_records": self.expected_records,
        }

    def snapshot(self) -> dict:
        snapshot = self.summary()
        snapshot["trials_per_cell"] = self.spec.trials
        snapshot["fractions"] = list(self.spec.fractions)
        snapshot["trial_counts"] = (
            None if self.trial_counts is None
            else list(self.trial_counts)
        )
        snapshot["cells"] = self.grid.live_snapshot()
        if self.shards is not None:
            snapshot["shards"] = {
                str(index): dict(state)
                for index, state in sorted(self.shards.items())
            }
        return snapshot


class RunRegistry:
    """Thread-safe live view of experiment runs, for the serve tier."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._runs: Dict[str, _LiveRun] = {}

    # -- publishing ----------------------------------------------------

    def publisher(self, run_id: str, *, metrics=None) -> "ServePublisher":
        """A sink that streams one run's records into this registry.

        Registering an id that already exists restarts that entry
        (the sink's ``begin`` resets it) — re-runs replace their
        earlier live state.  ``metrics`` may be a
        :class:`~repro.serve.metrics.ServeMetrics`; each published
        record then bumps its ``records_published`` counter.
        """
        return ServePublisher(self, run_id, metrics=metrics)

    def _begin(self, run_id: str, header: RunHeader) -> None:
        with self._lock:
            self._runs[run_id] = _LiveRun(run_id, header)

    def _observe(self, run_id: str, record: "TrialRecord") -> None:
        with self._lock:
            run = self._runs.get(run_id)
            if run is None:
                raise ReproError(
                    f"no live run named {run_id!r} to publish into"
                )
            run.grid.add(record)

    def _finish(self, run_id: str, trial_counts: Sequence[int]) -> None:
        with self._lock:
            run = self._runs.get(run_id)
            if run is not None:
                run.status = "finished"
                run.trial_counts = tuple(trial_counts)

    def update_shards(self, run_id: str, shards: dict) -> None:
        """Record a sharded run's per-shard progress snapshot.

        ``shards`` maps shard index to a JSON-ready dict (state,
        attempt, record count) as published by
        :class:`~repro.exper.sharded.ShardCoordinator`'s ``progress``
        hook.  Lenient on unknown run ids: the coordinator may publish
        before the run's header reaches the registry (or for runs the
        serve tier never registered), and progress reporting must
        never fail an experiment.
        """
        with self._lock:
            run = self._runs.get(run_id)
            if run is not None:
                run.shards = {
                    int(index): dict(state)
                    for index, state in shards.items()
                }

    # -- loading archived runs -----------------------------------------

    def ingest_run(
        self,
        run_id: str,
        header: RunHeader,
        records: Sequence["TrialRecord"],
        *,
        status: str = "finished",
    ) -> None:
        """Register an already-recorded run (e.g. from a store)."""
        run = _LiveRun(run_id, header)
        for record in records:
            run.grid.add(record)
        run.status = status
        with self._lock:
            self._runs[run_id] = run

    def load_store(self, store, *, strict: bool = False) -> int:
        """Ingest every readable run of a
        :class:`~repro.results.store.ResultsStore`; returns how many.

        A run file that cannot be read — headerless (killed before its
        first flush), interior corruption, conflicting duplicates, or
        plain filesystem trouble (permissions, a directory posing as a
        run) — is skipped by default, so one bad stray never takes the
        whole results directory off the air; pass ``strict=True`` to
        raise instead.
        """
        loaded = 0
        for run_id in store.run_ids():
            try:
                header, records = store.read(run_id)
                self.ingest_run(run_id, header, records)
            except (ReproError, OSError):
                if strict:
                    raise
                continue
            loaded += 1
        return loaded

    # -- serving -------------------------------------------------------

    def run_ids(self) -> List[str]:
        with self._lock:
            return sorted(self._runs)

    def list_runs(self) -> List[dict]:
        """JSON-ready one-line summaries, sorted by run id."""
        with self._lock:
            return [
                self._runs[run_id].summary()
                for run_id in sorted(self._runs)
            ]

    def snapshot(self, run_id: str) -> Optional[dict]:
        """One run's JSON-ready live stats, or None if unknown."""
        with self._lock:
            run = self._runs.get(run_id)
            return None if run is None else run.snapshot()


class ServePublisher(ResultSink):
    """The sink face of a :class:`RunRegistry` entry.

    Tee it next to a durable sink and the serve tier's
    ``/experiments/<run>`` answers update with every released record::

        registry = RunRegistry()
        sink = TeeSink(JsonlSink(path), registry.publisher("run-1"))
        ExperimentRunner(topology, spec, sink=sink).run()
    """

    def __init__(
        self, registry: RunRegistry, run_id: str, *, metrics=None
    ) -> None:
        self.registry = registry
        self.run_id = run_id
        self.metrics = metrics

    def begin(self, header: RunHeader) -> None:
        self.registry._begin(self.run_id, header)

    def write(self, record: "TrialRecord") -> None:
        self.registry._observe(self.run_id, record)
        if self.metrics is not None:
            self.metrics.increment("records_published")

    def finish(self, trial_counts: Sequence[int]) -> None:
        self.registry._finish(self.run_id, trial_counts)
