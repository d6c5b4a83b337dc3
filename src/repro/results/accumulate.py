"""Streaming per-cell accumulators for experiment records.

One :class:`CellAccumulator` per (fraction, cell) grid coordinate
absorbs :class:`~repro.exper.evaluate.TrialRecord`\\ s as they arrive —
in any order — and keeps one thing: the per-trial outcome rows (four
numbers per trial, keyed by trial index) that the deterministic
bootstrap needs to reproduce the final
:class:`~repro.exper.aggregate.ExperimentResult` byte for byte.

The driver holds one small row tuple per trial instead of a whole
:class:`TrialRecord` (cast tuples, names, indices), which is what
keeps streaming aggregation memory flat on huge grids.
:func:`completed_prefix` is the one rule for how many of a fraction's
trials a run has completed.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Container,
    Dict,
    Iterator,
    List,
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
    trial-ordered outcome rows final aggregation feeds the bootstrap.
    """

    __slots__ = (
        "fraction_index",
        "cell_index",
        "cell_name",
        "_rows",
    )

    def __init__(
        self,
        fraction_index: int,
        cell_index: int,
        cell_name: str,
    ) -> None:
        self.fraction_index = fraction_index
        self.cell_index = cell_index
        self.cell_name = cell_name
        self._rows: Dict[int, Row] = {}

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


class GridAccumulator:
    """The whole grid: one :class:`CellAccumulator` per coordinate."""

    def __init__(self, spec: "ExperimentSpec") -> None:
        self.spec = spec
        self._cells: List[List[CellAccumulator]] = [
            [
                CellAccumulator(fraction_index, cell_index, cell.name)
                for cell_index, cell in enumerate(spec.cells)
            ]
            for fraction_index in range(len(spec.fractions))
        ]

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
