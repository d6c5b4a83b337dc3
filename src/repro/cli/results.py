"""``repro-roa results`` — inspect durable run records: ``show``
re-aggregates a run file, ``merge`` unions shard-partial runs of one
spec."""

from __future__ import annotations

import argparse
import sys

__all__ = ["COMMANDS"]


def _results_arguments(parser: argparse.ArgumentParser) -> None:
    results_sub = parser.add_subparsers(dest="results_command",
                                        required=True)
    show = results_sub.add_parser(
        "show", help="re-aggregate a recorded run and print its grid"
    )
    show.add_argument("run", help="run file (JSONL) to aggregate")
    show.add_argument("--json", action="store_true",
                      help="print the aggregated result as JSON")
    merge = results_sub.add_parser(
        "merge",
        help="union shard-partial runs of one spec into a single run",
    )
    merge.add_argument("output", help="merged run file to write")
    merge.add_argument("inputs", nargs="+", help="input run files")


def _cmd_results(args: argparse.Namespace) -> int:
    import json

    from ..netbase.errors import ReproError
    from ..results.sinks import read_run
    from ..results.store import merge_runs, result_to_json, run_result

    try:
        if args.results_command == "merge":
            header, count = merge_runs(args.output, args.inputs)
            print(
                f"merged {len(args.inputs)} runs "
                f"(spec hash {header.spec_hash}) into {args.output}: "
                f"{count} records"
            )
            return 0
        header, records = read_run(args.run)
        result, dropped = run_result(header, records)
    except (ReproError, OSError) as exc:
        print(f"results {args.results_command} failed: {exc}",
              file=sys.stderr)
        return 1
    print(
        f"run {args.run}: spec hash {header.spec_hash}, "
        f"seed {header.seed}, "
        f"rule {'unknown' if header.rule is None else header.rule}, "
        f"{len(records)} records"
        + (f" ({dropped} past the completed prefix)" if dropped else ""),
        file=sys.stderr,
    )
    if args.json:
        print(json.dumps(result_to_json(result), indent=2))
    else:
        print(result.render())
    return 0


#: Command name -> (flag declarer, handler); see :mod:`repro.cli`.
COMMANDS = {"results": (_results_arguments, _cmd_results)}
