"""Streaming per-cell accumulators for experiment records.

One :class:`CellAccumulator` per (fraction, cell) grid coordinate
absorbs :class:`~repro.exper.evaluate.TrialRecord`\\ s as they arrive —
in any order — and keeps exactly two things:

* the per-trial outcome rows (four numbers per trial, keyed by trial
  index) that the deterministic bootstrap needs to reproduce the final
  :class:`~repro.exper.aggregate.ExperimentResult` byte for byte, and
* online running statistics (Welford mean/variance over arrival
  order) cheap enough to publish live, mid-run, through the serve
  tier's ``/experiments`` endpoints.

The driver holds one small row tuple per trial instead of a whole
:class:`TrialRecord` (cast tuples, names, indices), which is what
keeps streaming aggregation memory flat on huge grids.
:func:`completed_prefix` is the one rule for how many of a fraction's
trials a run has completed.
"""

from __future__ import annotations

import math
from typing import (
    TYPE_CHECKING,
    Container,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..netbase.errors import ReproError

if TYPE_CHECKING:  # pragma: no cover — typing only, avoids an import
    # cycle: repro.exper.aggregate streams through this module.
    from ..exper.evaluate import TrialRecord
    from ..exper.spec import ExperimentSpec

__all__ = ["CellAccumulator", "GridAccumulator", "completed_prefix"]

#: One trial's outcome in a cell: (attacker, victim, disconnected,
#: filtered) — everything CellStats needs, nothing it does not.
Row = Tuple[float, float, float, bool]


def completed_prefix(trials: int, cells: Sequence[Container[int]]) -> int:
    """How many trials are consecutively complete from trial 0.

    ``cells`` holds, per cell of one fraction, the trial indices that
    cell has a record for; a trial is complete when every cell has
    it.  The count stops at ``trials``.
    """
    count = 0
    while count < trials and all(count in cell for cell in cells):
        count += 1
    return count


class CellAccumulator:
    """Streaming statistics for one (fraction, cell) grid coordinate.

    ``add`` absorbs records in any order; ``ordered_rows`` returns the
    trial-ordered outcome rows final aggregation feeds the bootstrap;
    ``live_snapshot`` is the cheap mid-run view (count, online mean,
    sample stdev) the serve tier publishes.
    """

    __slots__ = (
        "fraction_index",
        "cell_index",
        "cell_name",
        "fraction",
        "_rows",
        "_count",
        "_mean",
        "_m2",
    )

    def __init__(
        self,
        fraction_index: int,
        cell_index: int,
        cell_name: str,
        fraction: Optional[float],
    ) -> None:
        self.fraction_index = fraction_index
        self.cell_index = cell_index
        self.cell_name = cell_name
        self.fraction = fraction
        self._rows: Dict[int, Row] = {}
        self._count = 0
        self._mean = 0.0
        self._m2 = 0.0

    def __len__(self) -> int:
        return len(self._rows)

    def add(self, record: "TrialRecord") -> None:
        """Absorb one record; duplicate trial indices are an error."""
        if record.trial_index in self._rows:
            raise ReproError(
                f"duplicate record for trial {record.trial_index} of "
                f"cell {record.cell!r}"
            )
        self._rows[record.trial_index] = (
            record.attacker_fraction,
            record.victim_fraction,
            record.disconnected_fraction,
            record.attack_route_filtered,
        )
        self._observe(record.attacker_fraction)

    def _observe(self, value: float) -> None:
        # Welford's online update: numerically stable running
        # mean/variance, independent of the exact final statistics
        # (which are recomputed from the ordered rows).
        self._count += 1
        delta = value - self._mean
        self._mean += delta / self._count
        self._m2 += delta * (value - self._mean)

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------

    def __contains__(self, trial_index: int) -> bool:
        return trial_index in self._rows

    def trial_indices(self) -> Iterator[int]:
        return iter(self._rows)

    def ordered_rows(self, expected: int) -> List[Row]:
        """The first ``expected`` trials' rows, in trial order.

        Raises when the accumulator does not hold exactly those trials
        — a missing or surplus trial means the record stream was
        incomplete or leaked past a stop decision.
        """
        if len(self._rows) != expected:
            raise ReproError(
                f"cell {self.cell_name!r} at fraction index "
                f"{self.fraction_index} has {len(self._rows)} of "
                f"{expected} trials"
            )
        try:
            return [self._rows[t] for t in range(expected)]
        except KeyError as exc:
            raise ReproError(
                f"cell {self.cell_name!r} at fraction index "
                f"{self.fraction_index} is missing trial {exc}"
            ) from None

    def live_snapshot(self) -> dict:
        """JSON-ready running statistics over the records seen so far."""
        stdev = (
            math.sqrt(self._m2 / (self._count - 1))
            if self._count > 1 else 0.0
        )
        return {
            "cell": self.cell_name,
            "fraction": self.fraction,
            "trials": self._count,
            "mean": self._mean,
            "stdev": stdev,
        }


class GridAccumulator:
    """The whole grid: one :class:`CellAccumulator` per coordinate."""

    def __init__(self, spec: "ExperimentSpec") -> None:
        self.spec = spec
        self._cells: List[List[CellAccumulator]] = [
            [
                CellAccumulator(
                    fraction_index, cell_index, cell.name, fraction
                )
                for cell_index, cell in enumerate(spec.cells)
            ]
            for fraction_index, fraction in enumerate(spec.fractions)
        ]
        self.records = 0

    def cell(
        self, fraction_index: int, cell_index: int
    ) -> CellAccumulator:
        return self._cells[fraction_index][cell_index]

    def add(self, record: "TrialRecord") -> None:
        if not (
            0 <= record.fraction_index < len(self._cells)
            and 0 <= record.cell_index < len(self.spec.cells)
        ):
            raise ReproError(
                f"record for cell {record.cell!r} addresses grid "
                f"coordinate ({record.fraction_index}, "
                f"{record.cell_index}) outside the spec"
            )
        self.cell(record.fraction_index, record.cell_index).add(record)
        self.records += 1

    def live_snapshot(self) -> List[dict]:
        """Per-cell running statistics, fractions-outer, JSON-ready."""
        return [
            accumulator.live_snapshot()
            for row in self._cells
            for accumulator in row
        ]
