"""Statistical equivalence of two trees: a cell's mean beside a
reference run's 95 % bootstrap CI.

A change to how seeds compete for one prefix (the tie-break rule)
moves every same-prefix record, but should not move the distribution
those records are drawn from.  The check runs the CLI's default-kinds
grid (``forged-origin-subprefix,forged-origin`` ×
``minimal,maxlength-loose``) on one synthetic topology and, for every
(cell, fraction), puts the reference tree's mean and 95 % bootstrap CI
beside the new mean.  A same-prefix mean should lie inside its CI; a
subprefix mean should not move at all.

Run it as a script: once on the reference tree to capture the CIs,
then on the change to print the table::

    PYTHONPATH=src python tests/ci_table.py --ases 10000 \\
        --topology-seed 2017 > reference.json
    PYTHONPATH=src python tests/ci_table.py --ases 10000 \\
        --topology-seed 2017 --against reference.json

``tests/test_exper.py::TestSamePrefixDistribution`` holds the same
check at 1 000 ASes, with the reference CIs pinned as constants.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import NamedTuple

from repro.bgp.attacks import AttackKind
from repro.cli import _experiment_spec_from_args, _topology_from_args, build_parser
from repro.exper import ExperimentRunner

#: The grid every table is taken on: the CLI's default kinds and
#: policies, at three validating fractions.
FRACTIONS = "0.2,0.5,0.8"
TRIALS = 25
SPEC_SEED = 2017

#: ``(cell, fraction) -> (mean, ci_low, ci_high)``
CellCis = dict[tuple[str, float], tuple[float, float, float]]


class Row(NamedTuple):
    """One (cell, fraction): the reference's mean and CI, the new mean."""

    cell: str
    fraction: float
    reference_mean: float
    ci_low: float
    ci_high: float
    mean: float

    @property
    def same_prefix(self) -> bool:
        return not AttackKind(self.cell.split("/")[0]).is_subprefix

    @property
    def inside(self) -> bool:
        return self.ci_low <= self.mean <= self.ci_high


def cell_cis(
    ases: int,
    topology_seed: int,
    *,
    trials: int = TRIALS,
    fractions: str = FRACTIONS,
    seed: int = SPEC_SEED,
) -> CellCis:
    """Every cell's mean and 95 % bootstrap CI on the default-kinds
    grid, run serially on the synthetic topology the CLI builds."""
    args = build_parser().parse_args([
        "experiment", "--ases", str(ases),
        "--topology-seed", str(topology_seed), "--trials", str(trials),
        "--fractions", fractions, "--seed", str(seed),
    ])
    result = ExperimentRunner(
        _topology_from_args(args), _experiment_spec_from_args(args),
        executor="serial",
    ).run()
    return {
        (stats.cell, stats.fraction): (
            stats.mean, stats.ci_low, stats.ci_high
        )
        for row in result.stats
        for stats in row
    }


def beside(reference: CellCis, current: CellCis) -> list[Row]:
    """Per cell, the reference's mean and CI beside the current mean,
    in the reference's order."""
    return [
        Row(cell, fraction, mean, low, high, current[cell, fraction][0])
        for (cell, fraction), (mean, low, high) in reference.items()
    ]


def markdown(rows: list[Row]) -> str:
    """The rows as the table ``CHANGES.md`` records."""
    lines = [
        "| cell | fraction | reference mean [95 % CI] | new mean | |",
        "|---|---|---|---|---|",
    ]
    for row in rows:
        if row.mean == row.reference_mean:
            verdict = "identical"
        else:
            verdict = (
                f"Δmean {row.mean - row.reference_mean:+.4f}, "
                + ("inside" if row.inside else "**outside**")
                + " reference CI"
            )
        lines.append(
            f"| {row.cell} | {row.fraction} | {row.reference_mean:.4f} "
            f"[{row.ci_low:.4f}, {row.ci_high:.4f}] | {row.mean:.4f} "
            f"| {verdict} |"
        )
    return "\n".join(lines)


def _to_json(cis: CellCis) -> str:
    return json.dumps(
        [[cell, fraction, *values] for (cell, fraction), values in cis.items()],
        indent=1,
    )


def _from_json(text: str) -> CellCis:
    return {
        (cell, fraction): (mean, low, high)
        for cell, fraction, mean, low, high in json.loads(text)
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--ases", type=int, default=1000)
    parser.add_argument("--topology-seed", type=int, default=2017)
    parser.add_argument("--trials", type=int, default=TRIALS)
    parser.add_argument("--fractions", default=FRACTIONS)
    parser.add_argument("--seed", type=int, default=SPEC_SEED)
    parser.add_argument(
        "--against", metavar="JSON",
        help="a reference capture of this script: print the table "
             "(exit 1 if a same-prefix mean is outside its CI or a "
             "subprefix mean moved) instead of a capture",
    )
    args = parser.parse_args(argv)
    current = cell_cis(
        args.ases, args.topology_seed, trials=args.trials,
        fractions=args.fractions, seed=args.seed,
    )
    if args.against is None:
        print(_to_json(current))
        return 0
    with open(args.against, encoding="utf-8") as handle:
        rows = beside(_from_json(handle.read()), current)
    print(markdown(rows))
    return 0 if all(
        row.inside if row.same_prefix else row.mean == row.reference_mean
        for row in rows
    ) else 1


if __name__ == "__main__":
    sys.exit(main())
