"""The process-wide metrics registry: counters, gauges, histograms.

Every subsystem that measures itself — the serve tier, the experiment
runner, the propagation kernels, the result sinks — registers its
instruments here under a dotted namespace (``serve.queries``,
``exper.trial_latency``, ``fastprop.sweeps``) and increments them on
the hot path.  Design constraints, in order:

1. **Cheap.**  An increment is one lock acquire and one integer add;
   a latency observation is the power-of-two bucket arithmetic of
   :class:`LatencyHistogram`.  Nothing allocates on the hot path.
2. **Thread-safe.**  Instruments are shared between asyncio loops,
   pool-callback threads, and synchronous callers; each instrument
   carries its own lock.
3. **Switchable.**  :data:`NULL_REGISTRY` is a drop-in registry whose
   instruments do nothing; :func:`use_registry` swaps the process
   default, so a run can be timed with telemetry on and off and tests
   can pin that results are byte-identical either way.

Two read-side views exist: :meth:`MetricsRegistry.snapshot` (a
JSON-ready dict, the shape ``GET /metrics`` has always served) and
:meth:`MetricsRegistry.render_prometheus` (the Prometheus text
exposition format, for scraping).
"""

from __future__ import annotations

import threading
from typing import Dict, Iterator, Optional, Tuple, Union

__all__ = [
    "Counter",
    "Gauge",
    "LatencyHistogram",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "get_registry",
    "set_registry",
    "use_registry",
]


class Counter:
    """A monotonically increasing integer instrument."""

    __slots__ = ("name", "_lock", "_value")

    def __init__(self, name: str) -> None:
        self.name = name
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        with self._lock:
            return self._value


class Gauge:
    """An instrument that can go up and down (occupancy, queue depth)."""

    __slots__ = ("name", "_lock", "_value", "_max")

    def __init__(self, name: str) -> None:
        self.name = name
        self._lock = threading.Lock()
        self._value = 0.0
        self._max = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value
            if value > self._max:
                self._max = value

    def inc(self, amount: float = 1) -> None:
        with self._lock:
            self._value += amount
            if self._value > self._max:
                self._max = self._value

    def dec(self, amount: float = 1) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    @property
    def max_value(self) -> float:
        """The high-water mark since creation (window occupancy peaks)."""
        with self._lock:
            return self._max


class LatencyHistogram:
    """Power-of-two latency buckets (microseconds), with quantiles.

    Buckets cover <1us up to >=2^(buckets-2) ms-scale outliers; each
    observation lands in ``floor(log2(us)) + 1`` (0 for sub-us).  Fixed
    buckets keep ``observe`` allocation-free on the query hot path.
    """

    BUCKETS = 24  # up to ~8.4 s

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._lock = threading.Lock()
        self._counts = [0] * self.BUCKETS
        self.count = 0
        self.total_seconds = 0.0

    def observe(self, seconds: float) -> None:
        self.observe_many(seconds, 1)

    def observe_many(self, seconds: float, n: int) -> None:
        """Record ``n`` observations of the same per-item latency
        (amortized batch timing) in O(1)."""
        us = int(seconds * 1e6)
        index = us.bit_length()  # 0 -> bucket 0, 1us -> 1, 2-3us -> 2, ...
        if index >= self.BUCKETS:
            index = self.BUCKETS - 1
        with self._lock:
            self._counts[index] += n
            self.count += n
            self.total_seconds += seconds * n

    def quantile(self, q: float) -> float:
        """Upper bound (seconds) of the bucket holding quantile ``q``."""
        if not self.count:
            return 0.0
        target = q * self.count
        seen = 0
        for index, bucket in enumerate(self._counts):
            seen += bucket
            if seen >= target:
                return (1 << index) / 1e6
        return (1 << (self.BUCKETS - 1)) / 1e6

    def bucket_counts(self) -> Tuple[int, ...]:
        """The per-bucket observation counts (not cumulative)."""
        with self._lock:
            return tuple(self._counts)

    @staticmethod
    def bucket_upper_seconds(index: int) -> float:
        """The inclusive upper bound of bucket ``index``, in seconds."""
        return (1 << index) / 1e6

    def snapshot(self) -> Dict[str, float]:
        mean = self.total_seconds / self.count if self.count else 0.0
        return {
            "count": self.count,
            "mean_us": mean * 1e6,
            "p50_us": self.quantile(0.50) * 1e6,
            "p90_us": self.quantile(0.90) * 1e6,
            "p99_us": self.quantile(0.99) * 1e6,
        }


#: The instrument kinds a registry can hold.
Instrument = Union[Counter, Gauge, LatencyHistogram]


class MetricsRegistry:
    """One process's named instruments, created on demand.

    ``counter``/``gauge``/``histogram`` are get-or-create: asking for
    the same name twice returns the same instrument, and asking for an
    existing name as a different kind raises — a name means one thing.
    Callers ask by the full dotted name (``exper.records_released``).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: Dict[str, Instrument] = {}

    #: Real registries record; the null registry overrides this.
    enabled = True

    def _get_or_create(self, name: str, kind: type) -> Instrument:
        with self._lock:
            instrument = self._instruments.get(name)
            if instrument is None:
                instrument = self._instruments[name] = kind(name)
            elif type(instrument) is not kind:
                raise ValueError(
                    f"metric {name!r} is a "
                    f"{type(instrument).__name__}, not a {kind.__name__}"
                )
            return instrument

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, Gauge)

    def histogram(self, name: str) -> LatencyHistogram:
        return self._get_or_create(name, LatencyHistogram)

    def instruments(self) -> Iterator[Instrument]:
        """Every registered instrument, in name order."""
        with self._lock:
            items = sorted(self._instruments.items())
        for _, instrument in items:
            yield instrument

    def snapshot(self) -> Dict[str, object]:
        """A JSON-ready view: counters/gauges as numbers, histograms
        as their quantile dicts."""
        view: Dict[str, object] = {}
        for instrument in self.instruments():
            if isinstance(instrument, LatencyHistogram):
                view[instrument.name] = instrument.snapshot()
            else:
                view[instrument.name] = instrument.value
        return view

    def render_prometheus(self) -> str:
        """The registry in Prometheus text exposition format.

        Dotted names become underscore names (``exper.trial_latency``
        → ``exper_trial_latency``); histograms expose cumulative
        ``_bucket{le="…"}`` series plus ``_sum`` and ``_count``, with
        ``le`` bounds in seconds per Prometheus convention.
        """
        lines: list[str] = []
        for instrument in self.instruments():
            name = _prom_name(instrument.name)
            if isinstance(instrument, Counter):
                lines.append(f"# TYPE {name} counter")
                lines.append(f"{name} {instrument.value}")
            elif isinstance(instrument, Gauge):
                lines.append(f"# TYPE {name} gauge")
                lines.append(f"{name} {_prom_value(instrument.value)}")
            else:
                lines.append(f"# TYPE {name} histogram")
                cumulative = 0
                counts = instrument.bucket_counts()
                for index, bucket in enumerate(counts):
                    cumulative += bucket
                    if index == len(counts) - 1:
                        bound = "+Inf"
                    else:
                        bound = _prom_value(
                            instrument.bucket_upper_seconds(index)
                        )
                    lines.append(
                        f'{name}_bucket{{le="{bound}"}} {cumulative}'
                    )
                lines.append(
                    f"{name}_sum {_prom_value(instrument.total_seconds)}"
                )
                lines.append(f"{name}_count {instrument.count}")
        return "\n".join(lines) + ("\n" if lines else "")


class _NullInstrument:
    """One object that answers every instrument method with nothing."""

    __slots__ = ()
    name = ""
    count = 0
    total_seconds = 0.0
    value = 0
    max_value = 0

    def inc(self, amount: int = 1) -> None:
        pass

    def dec(self, amount: float = 1) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, seconds: float) -> None:
        pass

    def observe_many(self, seconds: float, n: int) -> None:
        pass

    def quantile(self, q: float) -> float:
        return 0.0

    def bucket_counts(self) -> Tuple[int, ...]:
        return ()

    def snapshot(self) -> Dict[str, float]:
        return {}


_NULL_INSTRUMENT = _NullInstrument()


class NullRegistry(MetricsRegistry):
    """A registry whose instruments record nothing.

    Install it with :func:`use_registry` to switch telemetry off; the
    instrumented code paths run unchanged (same calls, same RNG — none)
    but every increment is a no-op.  ``enabled`` is False so hot paths
    may skip ``perf_counter`` reads entirely.
    """

    enabled = False

    def _get_or_create(self, name: str, kind: type):
        return _NULL_INSTRUMENT

    def instruments(self) -> Iterator[Instrument]:
        return iter(())


#: The process's shared off-switch registry.
NULL_REGISTRY = NullRegistry()

_default_registry: MetricsRegistry = MetricsRegistry()
_default_lock = threading.Lock()


def get_registry() -> MetricsRegistry:
    """The process-default registry instrumented code records into."""
    return _default_registry


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Install ``registry`` as the process default; returns the old one."""
    global _default_registry
    with _default_lock:
        previous = _default_registry
        _default_registry = registry
        return previous


class use_registry:
    """Context manager: temporarily install a process-default registry.

    ``with use_registry(NULL_REGISTRY): …`` turns telemetry off for the
    block; ``with use_registry(MetricsRegistry()) as registry: …``
    collects a block's metrics in isolation.
    """

    def __init__(self, registry: MetricsRegistry) -> None:
        self._registry = registry
        self._previous: Optional[MetricsRegistry] = None

    def __enter__(self) -> MetricsRegistry:
        self._previous = set_registry(self._registry)
        return self._registry

    def __exit__(self, *exc_info: object) -> None:
        if self._previous is not None:
            set_registry(self._previous)


def _prom_name(name: str) -> str:
    """A Prometheus-legal metric name: dots and dashes to underscores."""
    return "".join(
        ch if ch.isalnum() or ch in "_:" else "_" for ch in name
    )


def _prom_value(value: float) -> str:
    """Render a float the way Prometheus likes: integral values bare."""
    if isinstance(value, int) or value == int(value):
        return str(int(value))
    return repr(value)
