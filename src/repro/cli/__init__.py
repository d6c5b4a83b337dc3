"""``repro-roa`` — the command-line face of the library.

Subcommands mirror the paper's workflow:

* ``compress``  — compress a VRP CSV (the ``compress_roas`` drop-in).
* ``analyze``   — the §6 vulnerability/benefit measurements for a VRP
  CSV plus a BGP table.
* ``minimal``   — convert a VRP CSV to minimal, maxLength-free VRPs.
* ``generate``  — synthesize a dated snapshot to CSV + RIB files.
* ``table1``    — print Table 1 for a snapshot (from files or synthetic).
* ``figure3``   — print both Figure 3 panels from the weekly series.
* ``roa-lint``  — review ROAs against the BGP table (§8 advice as code).
* ``lint``      — the :mod:`repro.lint` invariant linter over the
  library's own sources (RNG discipline, import layering, async
  safety, docstring policy); gates CI.
* ``serve``     — the full serving tier: async high-fanout RTR
  distribution plus the origin-validation HTTP/JSON query service;
  ``--jobs --jobs-store DIR`` upgrades it to the always-on experiment
  platform (:mod:`repro.jobs`): ``POST /experiments`` enqueues jobs a
  background scheduler executes durably.
* ``experiment`` — run an attack-effectiveness experiment grid on the
  :mod:`repro.exper` engine, from flags or a JSON spec file; with
  ``--sink`` the run records durably (and ``--resume`` continues an
  interrupted recording to a byte-identical result).
* ``results``   — inspect durable run records: ``show`` re-aggregates
  a run file, ``merge`` unions shard-partial runs of one spec.
* ``shard-worker`` — execute one shard of a grid into its own run
  file, or (``--listen``) serve shards over HTTP to a
  ``--shard-hosts`` coordinator (see :mod:`repro.exper.sharded`).
* ``chaos``     — seeded fault-injection drills (:mod:`repro.faults`):
  a sharded experiment under worker crashes and sink IO errors whose
  output is byte-identical to a fault-free serial run, or the HTTP
  tier under connection faults plus a graceful-drain health-flip
  check; ``--emit-plan`` prints the deterministic fault plan.
* ``jobs``      — the experiment platform's client and offline drain
  (:mod:`repro.jobs`): ``submit``/``list``/``show``/``cancel``/
  ``diff`` against either a local ``--store`` directory or a running
  ``serve --jobs`` instance via ``--server``, and ``run`` to drain a
  store's pending jobs in the foreground (also the crash-recovery
  path — interrupted jobs resume to byte-identical runs).

This package is the dispatcher.  Each command's flags and handler live
in one module beside it (:data:`COMMANDS` names the module), and
:func:`main` imports only the invoked command's module: ``--help``,
``--version`` and an unknown command import none.  Handlers import
the subsystems they run in their own bodies, so a command pays only
for the layers it executes (``tests/test_import_budget.py``).

Examples::

    repro-roa generate --scale 0.05 --out-dir /tmp/snap
    repro-roa analyze /tmp/snap/vrps.csv /tmp/snap/rib.txt
    repro-roa compress /tmp/snap/vrps.csv -o /tmp/snap/compressed.csv
    repro-roa table1 --scale 0.05
    repro-roa experiment --kinds forged-origin-subprefix \\
        --policies minimal,maxlength-loose --fractions 0,0.5,1 \\
        --trials 50 --executor sharded --workers 2
    repro-roa experiment --trials 50 --sink run.jsonl --resume
    repro-roa experiment --trials 50 --executor sharded --shards 4 \\
        --shard-store /tmp/shards --sink run.jsonl
    repro-roa shard-worker --spec spec.json --shard 0 --shards 4 \\
        --out shard0.jsonl
    repro-roa results show run.jsonl
    repro-roa results merge merged.jsonl shard0.jsonl shard1.jsonl
    repro-roa chaos --seed 7 --trials 12 --shards 3 --json
    repro-roa chaos --drill serve --seed 7
    repro-roa jobs submit --store /tmp/jobs --trials 20
    repro-roa jobs run --store /tmp/jobs
    repro-roa jobs diff --store /tmp/jobs job-000001 job-000002
"""

from __future__ import annotations

import argparse
import importlib
import sys
from typing import Collection, Optional, Sequence

from .. import __version__

__all__ = ["COMMANDS", "build_parser", "main"]

#: Every command in ``--help`` order: (name, module of ``repro.cli``
#: holding its flags and handler, one-line help).  Each module maps
#: the name to ``(flag declarer, handler)`` in its own ``COMMANDS``.
COMMANDS = (
    ("compress", "snapshot", "losslessly compress a VRP CSV (Algorithm 1)"),
    ("minimal", "snapshot",
     "convert VRPs to the minimal, maxLength-free set"),
    ("analyze", "snapshot", "run the §6 measurements"),
    ("generate", "snapshot", "synthesize a snapshot"),
    ("table1", "snapshot", "print Table 1"),
    ("figure3", "snapshot", "print Figure 3 (both panels)"),
    ("roa-lint", "snapshot",
     "review VRPs-as-ROAs against the BGP table (§8)"),
    ("lint", "lint",
     "run the repro.lint invariant linter over python sources"),
    ("serve", "serve",
     "async RTR distribution + origin-validation query service"),
    ("experiment", "experiment",
     "run an attack-effectiveness grid on the repro.exper engine"),
    ("results", "results",
     "inspect / combine durable experiment run records"),
    ("shard-worker", "shard_worker",
     "execute one shard of an experiment grid (or serve "
     "shards over HTTP for --shard-hosts coordinators)"),
    ("chaos", "chaos", "seeded fault-injection drills against the stack"),
    ("jobs", "jobs",
     "the durable experiment platform: submit, inspect, "
     "execute, and diff queued experiment jobs"),
)
_MODULES = {name: module for name, module, _ in COMMANDS}


def _command(name: str):
    """``(flag declarer, handler)`` of one command, from its module."""
    module = importlib.import_module(f"{__name__}.{_MODULES[name]}")
    return module.COMMANDS[name]


def _parser(arguments_for: Collection[str]) -> argparse.ArgumentParser:
    """Every command registered by name and help; only those in
    ``arguments_for`` get their flags (and import their module)."""
    parser = argparse.ArgumentParser(
        prog="repro-roa",
        description="MaxLength-considered-harmful reproduction toolkit",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, _, help_text in COMMANDS:
        command = sub.add_parser(name, help=help_text)
        if name in arguments_for:
            add_arguments, _ = _command(name)
            add_arguments(command)
    return parser


def build_parser() -> argparse.ArgumentParser:
    """The full ``repro-roa`` argument parser (one subparser per command)."""
    return _parser(_MODULES)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point: parse ``argv`` and dispatch to the subcommand.

    The top-level parser takes no option with a value, so the first
    word not starting with ``-`` names the command; only that command
    is given its flags.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    invoked = next((word for word in argv if not word.startswith("-")), None)
    args = _parser({invoked} & _MODULES.keys()).parse_args(argv)
    _, handler = _command(args.command)
    return handler(args)
