"""Aggregation: streaming TrialRecords into per-cell statistics.

For every (fraction, cell) grid coordinate the aggregator keeps the
attacker-capture values in trial order and reduces them to a mean, a
sample standard deviation, and a bootstrap percentile confidence
interval for the mean.  The bootstrap RNG is derived from the spec
seed and the cell coordinates, so the whole result — intervals
included — is a pure function of (spec, topology), independent of
which executor produced the records or in what order they arrived.

Records stream through
:class:`~repro.results.accumulate.CellAccumulator`\\ s: the aggregator
holds one small outcome row per trial per cell rather than whole
:class:`TrialRecord` objects, so driver memory on million-trial grids
is bounded by the values the bootstrap genuinely needs.
"""

from __future__ import annotations

import hashlib
import random
import statistics
from dataclasses import dataclass
from math import floor
from typing import Iterable, Optional, Sequence

from ..netbase.errors import ReproError
from ..results.accumulate import GridAccumulator, completed_prefix
from .evaluate import TrialRecord
from .spec import ExperimentSpec

__all__ = [
    "CellStats",
    "ExperimentResult",
    "aggregate_records",
    "prefix_ci_width",
]


def _bootstrap_seed(seed: int, fraction_index: int, cell_index: int) -> int:
    key = f"repro.exper.bootstrap/{seed}/{fraction_index}/{cell_index}"
    return int.from_bytes(
        hashlib.blake2b(key.encode(), digest_size=8).digest(), "big"
    )


def _stop_seed(
    seed: int, fraction_index: int, cell_index: int, prefix: int
) -> int:
    key = (
        f"repro.exper.stop/{seed}/{fraction_index}/{cell_index}/{prefix}"
    )
    return int.from_bytes(
        hashlib.blake2b(key.encode(), digest_size=8).digest(), "big"
    )


def prefix_ci_width(
    values: Sequence[float],
    seed: int,
    fraction_index: int,
    cell_index: int,
    *,
    resamples: int = 250,
    confidence: float = 0.95,
) -> float:
    """Bootstrap CI width of the mean over a completed-trial prefix.

    The early-stopping primitive: seeded by the grid coordinate *and*
    the prefix length, so the answer is a pure function of the first
    ``len(values)`` trial outcomes — identical no matter which
    executor produced them or in what order they arrived.
    """
    low, high = _bootstrap_ci(
        values,
        random.Random(
            _stop_seed(seed, fraction_index, cell_index, len(values))
        ),
        resamples,
        confidence,
    )
    return high - low


def _bootstrap_ci(
    values: Sequence[float],
    rng: random.Random,
    resamples: int,
    confidence: float,
) -> tuple[float, float]:
    """Percentile bootstrap CI for the mean of ``values``.

    Every resample of a constant sample is that sample, so its interval
    is its mean, twice, with nothing drawn — ``rng`` belongs to this
    one cell, so no later draw shifts.  Otherwise a resample is
    ``rng.choices(values, k=n)`` written out (``choices`` with equal
    weights is ``values[floor(random() * n)]``, ``k`` times), summed in
    the order drawn: same bounds, same draws.
    """
    n = len(values)
    if values.count(values[0]) == n:
        mean = sum(values) / n
        return mean, mean
    uniform = rng.random
    span = n + 0.0
    draws = range(n)
    means = sorted(
        sum([values[floor(uniform() * span)] for _ in draws]) / n
        for _ in range(resamples)
    )
    tail = (1.0 - confidence) / 2.0
    low_index = min(int(tail * resamples), resamples - 1)
    high_index = max(int((1.0 - tail) * resamples) - 1, 0)
    return means[low_index], means[high_index]


@dataclass(frozen=True)
class CellStats:
    """Statistics for one (fraction, cell) grid coordinate.

    Attributes:
        cell: the cell's name.
        fraction: validating fraction (``None`` = universal).
        values: attacker capture fractions, in trial order.
        mean / stdev: of ``values`` (stdev 0 for a single trial).
        ci_low / ci_high: bootstrap CI bounds for the mean.
        victim_mean / disconnected_mean: companion averages.
        filtered_fraction: share of trials whose attack announcement
            validation removed everywhere.
    """

    cell: str
    fraction: Optional[float]
    values: tuple[float, ...]
    mean: float
    stdev: float
    ci_low: float
    ci_high: float
    victim_mean: float
    disconnected_mean: float
    filtered_fraction: float

    @property
    def trials(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class ExperimentResult:
    """The aggregated grid: ``stats[fraction_index][cell_index]``.

    ``trials_per_cell`` is the spec's configured trial count;
    ``trial_counts`` holds the trials actually evaluated per fraction,
    which early stopping may leave below the configured count.
    """

    fractions: tuple[Optional[float], ...]
    cell_names: tuple[str, ...]
    stats: tuple[tuple[CellStats, ...], ...]
    trials_per_cell: int
    trial_counts: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if not self.trial_counts:
            object.__setattr__(
                self,
                "trial_counts",
                (self.trials_per_cell,) * len(self.fractions),
            )

    def cell(
        self, cell: str, fraction: Optional[float] = None
    ) -> CellStats:
        """Look up one grid coordinate by cell name and fraction."""
        try:
            cell_index = self.cell_names.index(cell)
        except ValueError:
            raise ReproError(
                f"no cell named {cell!r}; have {list(self.cell_names)}"
            ) from None
        if fraction is None and len(self.fractions) == 1:
            fraction_index = 0
        else:
            try:
                fraction_index = self.fractions.index(fraction)
            except ValueError:
                raise ReproError(
                    f"no fraction {fraction!r}; have {list(self.fractions)}"
                ) from None
        return self.stats[fraction_index][cell_index]

    def render(self) -> str:
        """A fixed-width grid: one row per fraction, one block per cell."""
        width = max(len(name) for name in self.cell_names)
        lines = [
            f"{'validating':>11}  "
            + "  ".join(f"{name:>{max(width, 22)}}" for name in self.cell_names)
        ]
        for fraction_index, fraction in enumerate(self.fractions):
            label = "all" if fraction is None else f"{100 * fraction:.0f}%"
            blocks = []
            for cell_stats in self.stats[fraction_index]:
                blocks.append(
                    f"{100 * cell_stats.mean:6.1f}% "
                    f"[{100 * cell_stats.ci_low:5.1f}, "
                    f"{100 * cell_stats.ci_high:5.1f}]"
                )
            lines.append(
                f"{label:>11}  "
                + "  ".join(
                    f"{block:>{max(width, 22)}}" for block in blocks
                )
            )
        if any(
            count != self.trials_per_cell for count in self.trial_counts
        ):
            counts = ", ".join(
                f"{'all' if f is None else f'{100 * f:.0f}%'}: {count}"
                for f, count in zip(self.fractions, self.trial_counts)
            )
            lines.append(
                f"(early-stopped; trials per fraction — {counts}; "
                f"cap {self.trials_per_cell}; "
                f"mean capture [95% bootstrap CI of the mean])"
            )
        else:
            lines.append(
                f"({self.trials_per_cell} trials per cell; "
                f"mean capture [95% bootstrap CI of the mean])"
            )
        return "\n".join(lines)


def _streamed_count(
    spec: ExperimentSpec,
    grid: GridAccumulator,
    fraction_index: int,
) -> int:
    """A stopped fraction's trial count, recovered from its records:
    the run of consecutively complete trials from zero."""
    cells = range(len(spec.cells))
    count = completed_prefix(
        spec.trials, [grid.cell(fraction_index, cell) for cell in cells]
    )
    for cell in cells:
        stray = [
            t for t in grid.cell(fraction_index, cell).trial_indices()
            if t >= count
        ]
        if stray:
            raise ReproError(
                f"cell {spec.cells[cell].name!r} at fraction index "
                f"{fraction_index} has records past trial {count} "
                f"with earlier trials missing"
            )
    if count == 0:
        raise ReproError(
            f"no complete trials for fraction index {fraction_index}"
        )
    return count


def aggregate_records(
    spec: ExperimentSpec,
    records: Iterable[TrialRecord],
    *,
    bootstrap_resamples: int = 1000,
    confidence: float = 0.95,
    expected_trials: Optional[Sequence[int]] = None,
) -> ExperimentResult:
    """Reduce (possibly out-of-order) records to the stats grid.

    ``expected_trials`` gives the per-fraction trial counts the record
    stream must contain — what early stopping decided — defaulting to
    ``spec.trials`` everywhere for ``stopping="none"`` specs.
    When it is omitted for a ``stopping="ci"`` spec, the counts are
    derived from the stream itself: each fraction's count is its run
    of consecutively complete trials from zero (exactly what the
    runner emits), and any record beyond that run is an error — so
    ``aggregate_records(spec, runner.iter_records())`` works for every
    spec.

    The stream is consumed record by record into per-cell
    accumulators; only the per-trial outcome rows survive, never the
    records themselves.
    """
    grid = GridAccumulator(spec)
    for record in records:
        grid.add(record)

    if expected_trials is None:
        if spec.stopping == "none":
            counts = (spec.trials,) * len(spec.fractions)
        else:
            counts = tuple(
                _streamed_count(spec, grid, fraction_index)
                for fraction_index in range(len(spec.fractions))
            )
    else:
        counts = tuple(expected_trials)
    if len(counts) != len(spec.fractions):
        raise ReproError(
            f"expected_trials has {len(counts)} entries for "
            f"{len(spec.fractions)} fractions"
        )

    rows: list[tuple[CellStats, ...]] = []
    for fraction_index, fraction in enumerate(spec.fractions):
        expected = counts[fraction_index]
        row: list[CellStats] = []
        for cell_index, cell in enumerate(spec.cells):
            # Rows are (attacker, victim, disconnected, filtered)
            # tuples in trial order; ordered_rows raises — with the
            # exact incompleteness message — when trials are missing.
            ordered = grid.cell(fraction_index, cell_index).ordered_rows(
                expected
            )
            values = tuple(r[0] for r in ordered)
            mean = statistics.mean(values)
            stdev = statistics.stdev(values) if len(values) > 1 else 0.0
            ci_low, ci_high = _bootstrap_ci(
                values,
                random.Random(
                    _bootstrap_seed(spec.seed, fraction_index, cell_index)
                ),
                bootstrap_resamples,
                confidence,
            )
            row.append(
                CellStats(
                    cell=cell.name,
                    fraction=fraction,
                    values=values,
                    mean=mean,
                    stdev=stdev,
                    ci_low=ci_low,
                    ci_high=ci_high,
                    victim_mean=statistics.mean(r[1] for r in ordered),
                    disconnected_mean=statistics.mean(
                        r[2] for r in ordered
                    ),
                    filtered_fraction=(
                        sum(r[3] for r in ordered) / len(ordered)
                    ),
                )
            )
        rows.append(tuple(row))
    return ExperimentResult(
        fractions=spec.fractions,
        cell_names=tuple(cell.name for cell in spec.cells),
        stats=tuple(rows),
        trials_per_cell=spec.trials,
        trial_counts=counts,
    )
