"""``repro-roa lint`` — the :mod:`repro.lint` invariant linter over the
library's own sources (RNG discipline, import layering, async safety,
docstring policy); gates CI."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

__all__ = ["COMMANDS"]


def _lint_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "paths", nargs="*",
        help="files or directories to lint (default: the installed "
             "repro package)",
    )
    parser.add_argument(
        "--rule", action="append", metavar="RULE",
        help="run only this rule id (repeatable, e.g. --rule RNG001)",
    )
    parser.add_argument("--json", action="store_true",
                        help="emit the findings as JSON (schema 1)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalog and exit")


def _cmd_lint(args: argparse.Namespace) -> int:
    import json

    from ..lint.engine import lint_paths
    from ..lint.model import LintUsageError
    from ..lint.report import (
        EXIT_CLEAN,
        EXIT_FINDINGS,
        EXIT_USAGE,
        render_text,
        to_json,
    )
    from ..lint.rules import rule_catalog

    if args.list_rules:
        for rule_id, summary in rule_catalog().items():
            print(f"{rule_id}  {summary}")
        return EXIT_CLEAN
    # No paths: lint the installed library itself, wherever it lives.
    paths = args.paths or [Path(__file__).resolve().parents[1]]
    try:
        findings = lint_paths(paths, rules=args.rule)
    except LintUsageError as exc:
        print(f"repro-lint: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.json:
        print(json.dumps(to_json(findings), indent=2))
    else:
        print(render_text(findings))
    return EXIT_FINDINGS if findings else EXIT_CLEAN


#: Command name -> (flag declarer, handler); see :mod:`repro.cli`.
COMMANDS = {"lint": (_lint_arguments, _cmd_lint)}
