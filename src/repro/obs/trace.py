"""Lightweight span tracing with a Chrome-trace-format exporter.

``with span("propagate", cell=name): …`` marks a timed region; when
tracing is off (the default) :func:`span` returns a shared no-op
context manager after one attribute check, so instrumented hot paths
cost nothing measurable.  When tracing is on, each completed span is
recorded as one complete ("ph": "X") event in the Chrome trace event
format — load the exported JSON in Perfetto (https://ui.perfetto.dev)
or ``chrome://tracing`` to see the experiment's time structure.

Tracing never touches any RNG and never changes control flow, so
results are byte-identical with tracing on or off — an invariant the
test suite pins.

The recorder is process-local: under the sharded executor, worker
propagations do not appear in the driver's trace (their shards do, as
``exper.shard_dispatched`` / ``exper.shard_completed`` instants).
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path
from typing import Dict, List, Union

__all__ = [
    "Tracer",
    "disable_tracing",
    "enable_tracing",
    "get_tracer",
    "span",
    "write_chrome_trace",
]

#: Default cap on recorded events, so an unexpectedly long traced run
#: degrades (drops events, counts the drops) instead of eating memory.
_MAX_EVENTS = 1_000_000


class _NoopSpan:
    """The shared do-nothing span handed out while tracing is off."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        pass


_NOOP_SPAN = _NoopSpan()


class _Span:
    """One live span: records a complete event when it exits."""

    __slots__ = ("_tracer", "_name", "_args", "_start")

    def __init__(self, tracer: "Tracer", name: str, args: dict) -> None:
        self._tracer = tracer
        self._name = name
        self._args = args

    def __enter__(self) -> "_Span":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        end = time.perf_counter()
        self._tracer.complete(
            self._name, self._start, end - self._start, **self._args
        )


class Tracer:
    """A thread-safe recorder of trace events.

    All timestamps are :func:`time.perf_counter` values, rebased to the
    tracer's creation so exported traces start near zero.
    """

    def __init__(self, *, max_events: int = _MAX_EVENTS) -> None:
        self.enabled = False
        self.max_events = max_events
        self._lock = threading.Lock()
        self._events: List[Dict[str, object]] = []
        self._dropped = 0
        self._epoch = time.perf_counter()

    # -- recording -----------------------------------------------------

    def span(self, name: str, **args: object) -> Union[_Span, _NoopSpan]:
        """A context manager timing one region (no-op when disabled)."""
        if not self.enabled:
            return _NOOP_SPAN
        return _Span(self, name, args)

    def complete(
        self, name: str, start: float, duration: float, **args: object
    ) -> None:
        """Record a region timed externally (``start`` from
        :func:`time.perf_counter`, ``duration`` in seconds)."""
        if not self.enabled:
            return
        self._record({
            "name": name,
            "ph": "X",
            "ts": (start - self._epoch) * 1e6,
            "dur": duration * 1e6,
            "pid": os.getpid(),
            "tid": threading.get_ident(),
            "args": args,
        })

    def instant(self, name: str, **args: object) -> None:
        """Record a point-in-time event (an early-stop decision, say)."""
        if not self.enabled:
            return
        self._record({
            "name": name,
            "ph": "i",
            "s": "p",  # process-scoped instant
            "ts": (time.perf_counter() - self._epoch) * 1e6,
            "pid": os.getpid(),
            "tid": threading.get_ident(),
            "args": args,
        })

    def _record(self, event: Dict[str, object]) -> None:
        with self._lock:
            if len(self._events) >= self.max_events:
                self._dropped += 1
                return
            self._events.append(event)

    # -- reading / exporting -------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    @property
    def dropped(self) -> int:
        """Events discarded after the cap was hit."""
        with self._lock:
            return self._dropped

    def events(self) -> List[Dict[str, object]]:
        """A copy of the recorded events, in recording order."""
        with self._lock:
            return list(self._events)

    def clear(self) -> None:
        with self._lock:
            self._events.clear()
            self._dropped = 0

    def chrome_trace(self) -> Dict[str, object]:
        """The recorded events as a Chrome trace document."""
        document: Dict[str, object] = {
            "traceEvents": self.events(),
            "displayTimeUnit": "ms",
        }
        dropped = self.dropped
        if dropped:
            document["metadata"] = {"dropped_events": dropped}
        return document

    def export(self, path: Union[str, Path]) -> int:
        """Write the Chrome trace JSON to ``path``; returns the event
        count written."""
        document = self.chrome_trace()
        Path(path).write_text(
            json.dumps(document), encoding="utf-8"
        )
        return len(document["traceEvents"])  # type: ignore[arg-type]


_tracer = Tracer()


def get_tracer() -> Tracer:
    """The process-wide tracer :func:`span` records into."""
    return _tracer


def span(name: str, **args: object) -> Union[_Span, _NoopSpan]:
    """Time one region on the process tracer.

    The off path — one attribute check, one shared no-op object — is
    cheap enough to leave in experiment hot loops permanently.
    """
    tracer = _tracer
    if not tracer.enabled:
        return _NOOP_SPAN
    return tracer.span(name, **args)


def enable_tracing() -> Tracer:
    """Switch the process tracer on (idempotent); returns it."""
    _tracer.enabled = True
    return _tracer


def disable_tracing() -> Tracer:
    """Switch the process tracer off; recorded events are kept."""
    _tracer.enabled = False
    return _tracer


def write_chrome_trace(path: Union[str, Path]) -> int:
    """Export the process tracer's events to ``path`` (Chrome trace
    JSON, Perfetto-loadable); returns the event count."""
    return _tracer.export(path)
