"""``repro.obs`` — unified telemetry for the whole stack.

The paper's deployment argument (§6) is that operators adopt RPKI
filtering only when its costs are visible and small; this package
makes the reproduction's *own* costs visible the same way.  Three
pieces, stdlib-only, shared by every subsystem:

* **Metrics** (:mod:`repro.obs.metrics`) — a process-wide registry of
  counters, gauges, and power-of-two latency histograms, namespaced
  per subsystem (``serve.*``, ``exper.*``, ``fastprop.*``,
  ``results.*``), each taken by its full dotted name.  The serve
  tier's :class:`~repro.serve.metrics.ServeMetrics` records into it;
  ``GET /metrics`` serves a JSON
  snapshot and (``?format=prometheus``) the Prometheus text
  exposition format.
* **Tracing** (:mod:`repro.obs.trace`) — ``with span("propagate",
  cell=...):`` regions exported as Chrome-trace-format JSON,
  loadable in Perfetto.  Off by default with a no-op fast path.
* **Progress** (:mod:`repro.obs.progress`) — record-stream heartbeat
  lines (trials/sec, ETA, per-cell completion) behind
  ``repro-roa experiment --progress``.

Two invariants every instrument keeps:

1. telemetry never touches a trial RNG — aggregated experiment
   results are byte-identical with instrumentation on or off, under
   every executor (pinned by ``tests/test_obs.py``);
2. with tracing off, telemetry costs next to nothing: every hot path
   has an uninstrumented branch.  No gate measures this at present
   (see ``docs/observability.md``).
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "metrics": (
        "Counter", "Gauge", "LatencyHistogram", "MetricsRegistry",
        "NULL_REGISTRY", "NullRegistry", "get_registry", "set_registry",
        "use_registry",
    ),
    "progress": ("ProgressReporter",),
    "trace": (
        "Tracer", "disable_tracing", "enable_tracing", "get_tracer", "span",
        "write_chrome_trace",
    ),
})
