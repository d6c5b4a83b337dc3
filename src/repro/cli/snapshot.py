"""The snapshot commands: the paper's §6/§8 workflow over a VRP CSV and
a BGP table.

* ``compress``  — compress a VRP CSV (the ``compress_roas`` drop-in).
* ``minimal``   — convert a VRP CSV to minimal, maxLength-free VRPs.
* ``analyze``   — the §6 vulnerability/benefit measurements.
* ``generate``  — synthesize a dated snapshot to CSV + RIB files.
* ``table1``    — print Table 1 (from files or synthetic).
* ``figure3``   — print both Figure 3 panels from the weekly series.
* ``roa-lint``  — review ROAs against the BGP table (§8 advice as code).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

__all__ = ["COMMANDS"]


def _compress_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("vrps", help="input VRP CSV")
    parser.add_argument("-o", "--output", help="output CSV (default stdout)")


def _minimal_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("vrps", help="input VRP CSV")
    parser.add_argument("rib", help="BGP table (prefix|origin lines)")
    parser.add_argument("-o", "--output", help="output CSV (default stdout)")


def _analyze_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("vrps", help="input VRP CSV")
    parser.add_argument("rib", help="BGP table (prefix|origin lines)")


def _generate_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scale", type=float, default=0.05,
                        help="fraction of the 2017 Internet (default 0.05)")
    parser.add_argument("--seed", type=int, default=20170601)
    parser.add_argument("--out-dir", required=True)


def _table1_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scale", type=float, default=0.05)
    parser.add_argument("--seed", type=int, default=20170601)
    parser.add_argument("--vrps", help="VRP CSV (else synthetic)")
    parser.add_argument("--rib", help="BGP table (with --vrps)")


def _figure3_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scale", type=float, default=0.02)
    parser.add_argument("--seed", type=int, default=20170601)


def _roa_lint_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("vrps", help="input VRP CSV")
    parser.add_argument("rib", help="BGP table (prefix|origin lines)")
    parser.add_argument("--errors-only", action="store_true",
                        help="print only ROAs with ERROR findings")


def _cmd_compress(args: argparse.Namespace) -> int:
    from ..core.compress import CompressionStats, compress_vrps
    from ..data.rpki_archive import read_vrp_csv, write_vrp_csv

    vrps = list(read_vrp_csv(args.vrps))
    compressed = compress_vrps(vrps)
    stats = CompressionStats(len(vrps), len(compressed))
    if args.output:
        write_vrp_csv(compressed, args.output)
    else:
        write_vrp_csv(compressed, sys.stdout)
    print(f"compress_roas: {stats}", file=sys.stderr)
    return 0


def _cmd_minimal(args: argparse.Namespace) -> int:
    from ..core.minimal import to_minimal_vrps
    from ..data.routeviews import read_origin_pairs
    from ..data.rpki_archive import read_vrp_csv, write_vrp_csv

    vrps = list(read_vrp_csv(args.vrps))
    announced = list(read_origin_pairs(args.rib))
    minimal = to_minimal_vrps(vrps, announced)
    if args.output:
        write_vrp_csv(minimal, args.output)
    else:
        write_vrp_csv(minimal, sys.stdout)
    print(
        f"minimal ROAs: {len(vrps)} tuples -> {len(minimal)} "
        f"announced-and-valid prefixes",
        file=sys.stderr,
    )
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from ..analysis.measurements import measure_section6
    from ..data.routeviews import read_origin_pairs
    from ..data.rpki_archive import read_vrp_csv

    vrps = list(read_vrp_csv(args.vrps))
    announced = list(read_origin_pairs(args.rib))
    measurements = measure_section6(vrps, announced)
    for line in measurements.summary_lines():
        print(line)
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    from ..data.internet import GeneratorConfig, generate_snapshot
    from ..data.routeviews import write_origin_pairs
    from ..data.rpki_archive import write_vrp_csv

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    snapshot = generate_snapshot(
        GeneratorConfig(scale=args.scale, seed=args.seed)
    )
    vrp_path = out_dir / "vrps.csv"
    rib_path = out_dir / "rib.txt"
    write_vrp_csv(snapshot.vrps, vrp_path)
    write_origin_pairs(snapshot.announced, rib_path)
    print(f"wrote {vrp_path} ({len(snapshot.vrps)} VRPs)")
    print(f"wrote {rib_path} ({len(snapshot.announced)} announcements)")
    return 0


def _cmd_table1(args: argparse.Namespace) -> int:
    # The two files are one snapshot: either alone is a usage error,
    # never a silent fall-back to the synthetic table.
    if bool(args.vrps) != bool(args.rib):
        missing, given = (
            ("--rib", "--vrps") if args.vrps else ("--vrps", "--rib")
        )
        print(f"{missing} is required with {given}", file=sys.stderr)
        return 2
    from ..analysis.table1 import compute_table1

    if args.vrps:
        from ..data.routeviews import read_origin_pairs
        from ..data.rpki_archive import read_vrp_csv

        vrps = list(read_vrp_csv(args.vrps))
        announced = list(read_origin_pairs(args.rib))
    else:
        from ..data.internet import GeneratorConfig, generate_snapshot

        snapshot = generate_snapshot(
            GeneratorConfig(scale=args.scale, seed=args.seed)
        )
        vrps = snapshot.vrps
        announced = snapshot.announced
    print(compute_table1(vrps, announced).render())
    return 0


def _cmd_figure3(args: argparse.Namespace) -> int:
    from ..analysis.figure3 import (
        compute_figure3a,
        compute_figure3b,
        render_panel,
    )
    from ..data.internet import GeneratorConfig
    from ..data.snapshots import SeriesConfig, generate_weekly_series

    series = generate_weekly_series(
        SeriesConfig(base=GeneratorConfig(scale=args.scale, seed=args.seed))
    )
    print(render_panel(compute_figure3a(series)))
    print()
    print(render_panel(compute_figure3b(series)))
    return 0


def _cmd_roa_lint(args: argparse.Namespace) -> int:
    from ..core.recommend import Severity, lint_roas
    from ..data.routeviews import read_origin_pairs
    from ..data.rpki_archive import read_vrp_csv
    from ..rpki.roa import Roa, RoaPrefix

    announced = list(read_origin_pairs(args.rib))
    # Group VRP rows into per-AS ROAs: the CSV does not preserve ROA
    # boundaries, so each AS's tuples are reviewed as one ROA.
    by_asn: dict[int, list] = {}
    for vrp in read_vrp_csv(args.vrps):
        max_length = vrp.max_length if vrp.uses_max_length else None
        by_asn.setdefault(vrp.asn, []).append(
            RoaPrefix(vrp.prefix, max_length)
        )
    roas = [Roa(asn, entries) for asn, entries in sorted(by_asn.items())]
    reviews = lint_roas(roas, announced)
    errors = 0
    for review in reviews:
        if review.severity is Severity.ERROR:
            errors += 1
        if args.errors_only and review.severity is not Severity.ERROR:
            continue
        print(review.render())
        print()
    print(
        f"{len(reviews)} ROAs reviewed, {errors} with vulnerabilities",
        file=sys.stderr,
    )
    return 0 if errors == 0 else 1


#: Command name -> (flag declarer, handler); see :mod:`repro.cli`.
COMMANDS = {
    "compress": (_compress_arguments, _cmd_compress),
    "minimal": (_minimal_arguments, _cmd_minimal),
    "analyze": (_analyze_arguments, _cmd_analyze),
    "generate": (_generate_arguments, _cmd_generate),
    "table1": (_table1_arguments, _cmd_table1),
    "figure3": (_figure3_arguments, _cmd_figure3),
    "roa-lint": (_roa_lint_arguments, _cmd_roa_lint),
}
