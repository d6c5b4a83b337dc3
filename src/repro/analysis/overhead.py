"""Computational overhead of ``compress_roas`` (paper §7.2).

The paper reports, on an Intel i7-6700: 2.4 s / 19 MB for today's
(partially deployed) RPKI and 36 s / 290 MB for the full-deployment
scenario.  We measure wall time with :func:`time.perf_counter` and
allocation peaks with :mod:`tracemalloc`, so the same harness runs
anywhere without perf counters or root.

Absolute numbers differ (pure Python vs the authors' tooling); what
reproduces is the *feasibility* claim — compression is a seconds-scale
batch job with modest memory, cheap enough to run on every cache
refresh — and the roughly linear scaling between the two dataset sizes.
"""

from __future__ import annotations

import time
import tracemalloc
from dataclasses import dataclass
from typing import Iterable

from ..core.compress import compress_vrps
from ..rpki.vrp import Vrp

__all__ = ["OverheadMeasurement", "measure_compression_overhead"]


@dataclass(frozen=True)
class OverheadMeasurement:
    """One timed compression run."""

    label: str
    input_tuples: int
    output_tuples: int
    wall_seconds: float
    peak_memory_bytes: int

    @property
    def peak_memory_mb(self) -> float:
        return self.peak_memory_bytes / (1024 * 1024)

    def __str__(self) -> str:
        return (
            f"{self.label}: {self.input_tuples:,} -> {self.output_tuples:,} "
            f"tuples in {self.wall_seconds:.2f}s, "
            f"peak {self.peak_memory_mb:.0f} MB"
        )


def measure_compression_overhead(
    label: str, vrps: Iterable[Vrp], *, trace_memory: bool = True
) -> OverheadMeasurement:
    """Time one ``compress_roas`` run, optionally tracing allocations.

    ``tracemalloc`` roughly doubles the wall time; pass
    ``trace_memory=False`` when only timing matters.
    """
    vrp_list = list(vrps)
    if trace_memory:
        tracemalloc.start()
    started = time.perf_counter()
    output = compress_vrps(vrp_list)
    elapsed = time.perf_counter() - started
    peak = 0
    if trace_memory:
        _current, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
    return OverheadMeasurement(
        label=label,
        input_tuples=len(vrp_list),
        output_tuples=len(output),
        wall_seconds=elapsed,
        peak_memory_bytes=peak,
    )
