"""``repro.results`` — durable, streaming, resumable run records.

The paper's headline numbers are products of trial records, and until
this package existed those records were transient: the runner piped
them straight into aggregation and threw them away.  Now they are a
first-class surface with three faces:

* **Durability** (:mod:`repro.results.sinks`).  A
  :class:`ResultSink` receives the run header and every released
  record; :class:`JsonlSink` appends them, crash-safe, as versioned
  JSON lines — a killed run loses at most one partial line, which the
  reader recovers from.  :class:`TeeSink` fans one stream into many
  sinks, :class:`MemorySink` keeps it in process.
* **Streaming statistics** (:mod:`repro.results.accumulate`).
  Per-cell :class:`CellAccumulator`\\ s absorb records in any order,
  keep online mean/variance for live reporting, and reconstruct the
  exact trial-ordered values final aggregation needs — so
  :func:`repro.exper.aggregate.aggregate_records` streams instead of
  materializing record grids, with byte-identical results.
* **Queryability** (:mod:`repro.results.store`,
  :mod:`repro.results.live`).  A :class:`ResultsStore` is a directory
  of runs; :func:`merge_runs` unions shard-partial runs of one spec;
  a :class:`RunRegistry` plus :class:`ServePublisher` put per-cell
  stats on the serve tier's ``/experiments`` endpoints while the run
  is still going.

Resumption ties them together: ``ExperimentRunner(...,
resume_from=sink)`` checks the sink's header is this run's,
replays its completed trials, evaluates only the rest, and produces a
result byte-identical to an uninterrupted run (see
:mod:`repro.exper.runner`).

Quick start::

    from repro.exper import ExperimentRunner
    from repro.results import JsonlSink

    sink = JsonlSink("runs/pilot.jsonl")
    result = ExperimentRunner(
        topology, spec, sink=sink, resume_from=sink
    ).run()          # re-running after a crash continues, not restarts
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "accumulate": ("CellAccumulator", "GridAccumulator"),
    "live": ("RunRegistry", "ServePublisher"),
    "sinks": (
        "HEADER_SCHEMA", "JsonlSink", "MemorySink", "ResultSink", "RunHeader",
        "SinkWriteError", "TeeSink", "check_header_compatible",
        "complete_trials", "read_run", "topology_digest",
    ),
    "store": (
        "ResultsStore", "merge_runs", "result_to_json", "run_ci_document",
        "run_diff_document", "run_result", "shard_run_id",
    ),
})
