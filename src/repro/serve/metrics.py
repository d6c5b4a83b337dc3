"""Operational counters for the serving tier.

The paper's deployment argument (§6) is quantitative — operators adopt
the local cache only if its costs are visible and small — so the
serving tier measures itself: connection churn, PDU/byte volume, how
often a frame actually had to be encoded (the fan-out win), and query
latency.

Since the :mod:`repro.obs` telemetry layer landed, :class:`ServeMetrics`
is a *view* onto a :class:`~repro.obs.MetricsRegistry` (its counters
live under the ``serve.`` namespace) with its historical public API and
``snapshot()`` shape unchanged.  By default each instance gets a
private registry — two servers never share counters by accident — but
passing the process registry (``ServeMetrics(registry=obs.
get_registry())``, what ``repro-roa serve`` does) folds the serve
counters into the same registry the experiment engine and kernels
record into, so one ``GET /metrics?format=prometheus`` scrape sees the
whole process.  Everything stays standard library, cheap enough to
leave on under load, and thread-safe so the asyncio loop and
synchronous callers (e.g. :meth:`LocalCache.refresh_from_vrps` on
another thread) can share one instance.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..obs.metrics import (
    Counter,
    LatencyHistogram,
    MetricsRegistry,
)

__all__ = ["LatencyHistogram", "ServeMetrics"]


class ServeMetrics:
    """Counters shared by the RTR server, frame cache, and query service.

    Key counters:

    * ``frame_encodes``     — times a PDU frame was actually encoded.
      With the per-serial frame cache this stays flat as fan-out grows:
      100 routers Reset-Querying the same serial cost **one** encode.
    * ``frame_hits``        — frames served straight from cache.
    * ``pdus_sent`` / ``bytes_sent`` — wire volume toward routers.
    * ``queries`` — ``validity()`` calls answered (HTTP or in-process).
    * ``experiment_requests`` — ``/experiments`` endpoint hits.
    * ``records_published`` — trial records streamed into the live
      run registry by :class:`~repro.results.live.ServePublisher`.
    * ``requests_shed`` — connections/requests refused under load
      caps or during drain (503s and immediate closes).
    * ``clients_evicted`` — slow RTR consumers disconnected after
      missing their per-client write deadline.

    ``drain_seconds`` is a gauge: how long the last graceful drain
    took to quiesce in-flight requests.
    """

    _COUNTERS = (
        "connections_opened",
        "connections_closed",
        "reset_queries",
        "serial_queries",
        "cache_resets_sent",
        "notifies_sent",
        "frame_encodes",
        "frame_hits",
        "pdus_sent",
        "bytes_sent",
        "queries",
        "batch_queries",
        "http_requests",
        "http_errors",
        "experiment_requests",
        "records_published",
        "requests_shed",
        "clients_evicted",
    )

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self._view = self.registry.view("serve")
        # Pre-register the known counters so snapshots always carry the
        # full set (zeros included), exactly as before the registry.
        self._counters: Dict[str, Counter] = {
            name: self._view.counter(name) for name in self._COUNTERS
        }
        self.query_latency = self._view.histogram("query_latency")
        self.drain_seconds = self._view.gauge("drain_seconds")

    def _counter(self, name: str) -> Counter:
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = self._view.counter(name)
        return counter

    def increment(self, name: str, amount: int = 1) -> None:
        self._counter(name).inc(amount)

    def observe_query(self, seconds: float) -> None:
        self._counters["queries"].inc()
        self.query_latency.observe(seconds)

    def observe_queries(self, per_query_seconds: float, n: int) -> None:
        """Record ``n`` queries at an amortized per-query latency."""
        self._counters["queries"].inc(n)
        self.query_latency.observe_many(per_query_seconds, n)

    def __getitem__(self, name: str) -> int:
        counter = self._counters.get(name)
        return 0 if counter is None else counter.value

    @property
    def connections_active(self) -> int:
        return (self._counters["connections_opened"].value
                - self._counters["connections_closed"].value)

    def snapshot(self) -> Dict[str, object]:
        """A JSON-ready view of every counter plus latency quantiles."""
        view: Dict[str, object] = {
            name: counter.value for name, counter in self._counters.items()
        }
        view["connections_active"] = self.connections_active
        view["query_latency"] = self.query_latency.snapshot()
        view["drain_seconds"] = self.drain_seconds.value
        return view

    def render_prometheus(self) -> str:
        """The whole backing registry in Prometheus text exposition
        format, plus the derived ``serve_connections_active`` gauge."""
        return (
            self.registry.render_prometheus()
            + "# TYPE serve_connections_active gauge\n"
            + f"serve_connections_active {self.connections_active}\n"
        )


def ensure_metrics(metrics: Optional[ServeMetrics]) -> ServeMetrics:
    """The given metrics, or a fresh private instance."""
    return metrics if metrics is not None else ServeMetrics()
