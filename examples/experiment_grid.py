#!/usr/bin/env python3
"""A deployment-fraction × ROA-policy grid on the repro.exper engine.

One declarative :class:`~repro.exper.ExperimentSpec` replaces what used
to take a hand-rolled double loop: sweep the fraction of validating
ASes against three ROA policies for the forged-origin subprefix attack
(§4/§5 of the paper), with bootstrap confidence intervals per cell —
plus one cell the old loops could not express at all (per-AS partial
ROA adoption).

The paper's argument reads straight off the grid:

* against a *minimal* ROA the attack dies as validation deploys;
* against a *maxLength-loose* ROA the announcement is valid, so the
  column is pinned at 100% no matter how many ASes validate;
* at 50% ROA adoption the victim gets half the protection.

Run:  python examples/experiment_grid.py [--ases 300] [--trials 12]
      [--executor sharded]
"""

import argparse
import random

from repro.data import TopologyProfile, generate_topology
from repro.exper import (
    ExperimentRunner,
    ExperimentSpec,
    MaxLengthLooseRoa,
    MinimalRoa,
    PartialCoverageRoa,
    ScenarioCell,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--ases", type=int, default=300)
    parser.add_argument("--trials", type=int, default=12)
    parser.add_argument("--seed", type=int, default=2017)
    parser.add_argument("--executor", choices=("serial", "sharded"),
                        default="serial")
    args = parser.parse_args()

    print(f"generating a {args.ases}-AS topology...")
    topology = generate_topology(
        TopologyProfile(ases=args.ases), random.Random(args.seed)
    )
    print(f"  {topology.edge_count()} inter-AS links, "
          f"{len(topology.stub_ases())} stubs")

    spec = ExperimentSpec(
        cells=(
            ScenarioCell("forged-origin-subprefix", MinimalRoa()),
            ScenarioCell("forged-origin-subprefix", MaxLengthLooseRoa()),
            ScenarioCell(
                "forged-origin-subprefix",
                PartialCoverageRoa(MinimalRoa(), 0.5),
            ),
        ),
        trials=args.trials,
        seed=args.seed,
        fractions=(0.0, 0.5, 1.0),
    )
    print(f"\nexperiment: {len(spec.cells)} cells x "
          f"{len(spec.fractions)} fractions x {spec.trials} trials "
          f"({args.executor} executor)\n")

    result = ExperimentRunner(
        topology, spec, executor=args.executor
    ).run()
    print(result.render())

    minimal_full = result.cell("forged-origin-subprefix/minimal", 1.0)
    loose_full = result.cell(
        "forged-origin-subprefix/maxlength-loose", 1.0
    )
    partial_full = result.cell(
        "forged-origin-subprefix/minimal@0.5", 1.0
    )
    print()
    print(f"minimal ROA, full validation:   "
          f"{100 * minimal_full.mean:5.1f}% captured "
          f"(filtered in {100 * minimal_full.filtered_fraction:.0f}% "
          f"of trials)")
    print(f"loose ROA, full validation:     "
          f"{100 * loose_full.mean:5.1f}% captured — "
          f"validation never helps against a non-minimal ROA")
    print(f"50% ROA adoption, full valid.:  "
          f"{100 * partial_full.mean:5.1f}% captured — "
          f"half the victims still fully exposed")


if __name__ == "__main__":
    main()
