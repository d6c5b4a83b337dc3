"""Figure 3: PDU counts along the weekly timeline.

Two panels, each a set of series over the eight weekly snapshots:

* **(a) today's RPKI deployment** — status quo, status quo compressed,
  minimal-no-maxLength, minimal-with-maxLength (compressed);
* **(b) full deployment** — minimal-no-maxLength, minimal-with-
  maxLength (compressed), and the maximally-permissive lower bound.

Solid vs dashed in the paper encodes secure vs vulnerable; here each
series carries a ``secure`` flag and the renderer draws vulnerable
series with dashes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..core.compress import compress_vrps
from ..core.counts import pdu_counts
from ..core.minimal import minimal_pairs
from ..data.internet import InternetSnapshot

__all__ = [
    "Figure3Series",
    "Figure3Panel",
    "compute_figure3a",
    "compute_figure3b",
    "render_panel",
]


@dataclass(frozen=True)
class Figure3Series:
    """One line of the figure."""

    name: str
    secure: bool
    values: tuple[int, ...]


@dataclass(frozen=True)
class Figure3Panel:
    """One panel: labels (x axis) plus its series."""

    title: str
    labels: tuple[str, ...]
    series: tuple[Figure3Series, ...]


def compute_figure3a(snapshots: Sequence[InternetSnapshot]) -> Figure3Panel:
    """Panel (a): today's RPKI deployment, four series."""
    status_quo: list[int] = []
    status_quo_compressed: list[int] = []
    minimal_plain: list[int] = []
    minimal_compressed: list[int] = []
    for snapshot in snapshots:
        vrps = snapshot.vrps
        status_quo.append(len(vrps))
        status_quo_compressed.append(len(compress_vrps(vrps)))
        plain, compressed, _ = pdu_counts(
            minimal_pairs(vrps, snapshot.announced))
        minimal_plain.append(plain)
        minimal_compressed.append(compressed)
    labels = tuple(s.label for s in snapshots)
    return Figure3Panel(
        title="Today's RPKI deployment",
        labels=labels,
        series=(
            Figure3Series("Status quo", False, tuple(status_quo)),
            Figure3Series(
                "Status quo (compressed)", False, tuple(status_quo_compressed)
            ),
            Figure3Series("Minimal ROAs, no maxLength", True, tuple(minimal_plain)),
            Figure3Series(
                "Minimal ROAs, with maxLength", True, tuple(minimal_compressed)
            ),
        ),
    )


def compute_figure3b(snapshots: Sequence[InternetSnapshot]) -> Figure3Panel:
    """Panel (b): RPKI in full deployment, three series."""
    minimal_plain: list[int] = []
    minimal_compressed: list[int] = []
    bound: list[int] = []
    for snapshot in snapshots:
        plain, compressed, lowest = pdu_counts(snapshot.announced_set)
        minimal_plain.append(plain)
        minimal_compressed.append(compressed)
        bound.append(lowest)
    labels = tuple(s.label for s in snapshots)
    return Figure3Panel(
        title="RPKI in full deployment",
        labels=labels,
        series=(
            Figure3Series("Minimal ROAs, no maxLength", True, tuple(minimal_plain)),
            Figure3Series(
                "Minimal ROAs, with maxLength", True, tuple(minimal_compressed)
            ),
            Figure3Series("Lower bound on # PDUs", False, tuple(bound)),
        ),
    )


def render_panel(panel: Figure3Panel, *, width: int = 64, height: int = 16) -> str:
    """Render a panel as an ASCII chart (one glyph per series).

    Vulnerable (non-secure) series plot with lowercase glyphs — the
    textual stand-in for the paper's dashed lines.
    """
    all_values = [v for series in panel.series for v in series.values]
    low, high = min(all_values), max(all_values)
    span = max(high - low, 1)
    rows = [[" "] * width for _ in range(height)]
    glyphs = "ABCDEFG"

    columns = len(panel.labels)
    for series_index, series in enumerate(panel.series):
        glyph = glyphs[series_index]
        if not series.secure:
            glyph = glyph.lower()
        for point_index, value in enumerate(series.values):
            x = (
                point_index * (width - 1) // max(columns - 1, 1)
                if columns > 1
                else 0
            )
            y = height - 1 - round((value - low) / span * (height - 1))
            rows[y][x] = glyph

    lines = [f"{panel.title}  (y: {low:,} .. {high:,} PDUs)"]
    lines += ["".join(row) for row in rows]
    lines.append(f"{panel.labels[0]}  ...  {panel.labels[-1]}")
    for series_index, series in enumerate(panel.series):
        glyph = glyphs[series_index]
        if not series.secure:
            glyph = glyph.lower()
        safety = "secure" if series.secure else "vulnerable"
        values = ", ".join(f"{v:,}" for v in series.values)
        lines.append(f"  {glyph} = {series.name} [{safety}]: {values}")
    return "\n".join(lines)
