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

``repro-roa --version`` prints the package version; like ``--help`` it
is answered by the parser, before any subsystem is imported.

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
import random
import sys
from pathlib import Path
from typing import Optional, Sequence

from . import __version__

# No subsystem is imported here: build_parser() is pure argparse and
# every handler imports what it runs in its own body, so a command
# pays only for the layers it executes (tests/test_import_budget.py).

__all__ = ["main", "build_parser"]


def _add_spec_arguments(parser: argparse.ArgumentParser) -> None:
    """The experiment-grid flags `_experiment_spec_from_args` reads.

    Shared by ``experiment`` and ``jobs submit`` so a spec submitted
    to the platform is expressed exactly like a direct run.
    """
    parser.add_argument(
        "--spec", help="JSON ExperimentSpec file (overrides grid flags)"
    )
    parser.add_argument(
        "--kinds", default="forged-origin-subprefix,forged-origin",
        help="comma-separated attack kinds (default: the §4/§5 pair)",
    )
    parser.add_argument(
        "--policies", default="minimal,maxlength-loose",
        help="comma-separated ROA policies: minimal, maxlength-loose, "
             "maxlength-<N>, none, or <base>@<coverage>",
    )
    parser.add_argument("--attackers", type=int, default=1,
                        help="simultaneous attackers per trial")
    parser.add_argument("--prepend", type=int, default=0,
                        help="AS-path prepend count on the attack")
    parser.add_argument(
        "--fractions", default="all",
        help="comma-separated validating fractions in [0,1]; "
             "'all' = universal validation (default)",
    )
    parser.add_argument("--trials", type=int, default=20)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--victim-prefix", default="168.122.0.0/16")
    parser.add_argument("--attack-prefix",
                        help="default: victim prefix + 8 bits")
    parser.add_argument("--sampler", choices=("stubs", "any"),
                        default="stubs")
    parser.add_argument(
        "--executor",
        choices=("serial", "sharded", "auto"),
        help="execution strategy: serial, sharded (parallel, "
             "crash-retried shard workers; see --workers/--shards/"
             "--shard-hosts), or auto (serial on one core, sharded "
             "otherwise); default: the spec's executor "
             "(serial unless the spec file says otherwise)",
    )
    # Read and ignored: there is one propagation engine, and command
    # lines written when a second was selectable must still parse.
    parser.add_argument(
        "--engine", choices=("object", "array"), help=argparse.SUPPRESS,
    )
    parser.add_argument(
        "--stopping", choices=("none", "ci"),
        help="adaptive early stopping: stop a fraction once every "
             "cell's bootstrap CI is narrower than --stop-ci-width "
             "(default none; overrides the spec file's setting)",
    )
    parser.add_argument("--stop-ci-width", type=float,
                        help="CI-width threshold (default 0.05; "
                             "implies --stopping ci)")
    parser.add_argument("--stop-min-trials", type=int,
                        help="trials before the first stopping check "
                             "(default 16; implies --stopping ci)")
    parser.add_argument("--stop-check-every", type=int,
                        help="trials between stopping checks "
                             "(default 8; implies --stopping ci)")


def build_parser() -> argparse.ArgumentParser:
    """The full ``repro-roa`` argument parser (one subparser per command)."""
    parser = argparse.ArgumentParser(
        prog="repro-roa",
        description="MaxLength-considered-harmful reproduction toolkit",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    compress = sub.add_parser(
        "compress", help="losslessly compress a VRP CSV (Algorithm 1)"
    )
    compress.add_argument("vrps", help="input VRP CSV")
    compress.add_argument("-o", "--output", help="output CSV (default stdout)")

    minimal = sub.add_parser(
        "minimal", help="convert VRPs to the minimal, maxLength-free set"
    )
    minimal.add_argument("vrps", help="input VRP CSV")
    minimal.add_argument("rib", help="BGP table (prefix|origin lines)")
    minimal.add_argument("-o", "--output", help="output CSV (default stdout)")

    analyze = sub.add_parser("analyze", help="run the §6 measurements")
    analyze.add_argument("vrps", help="input VRP CSV")
    analyze.add_argument("rib", help="BGP table (prefix|origin lines)")

    generate = sub.add_parser("generate", help="synthesize a snapshot")
    generate.add_argument("--scale", type=float, default=0.05,
                          help="fraction of the 2017 Internet (default 0.05)")
    generate.add_argument("--seed", type=int, default=20170601)
    generate.add_argument("--out-dir", required=True)

    table1 = sub.add_parser("table1", help="print Table 1")
    table1.add_argument("--scale", type=float, default=0.05)
    table1.add_argument("--seed", type=int, default=20170601)
    table1.add_argument("--vrps", help="VRP CSV (else synthetic)")
    table1.add_argument("--rib", help="BGP table (with --vrps)")

    figure3 = sub.add_parser("figure3", help="print Figure 3 (both panels)")
    figure3.add_argument("--scale", type=float, default=0.02)
    figure3.add_argument("--seed", type=int, default=20170601)

    roa_lint = sub.add_parser(
        "roa-lint", help="review VRPs-as-ROAs against the BGP table (§8)"
    )
    roa_lint.add_argument("vrps", help="input VRP CSV")
    roa_lint.add_argument("rib", help="BGP table (prefix|origin lines)")
    roa_lint.add_argument("--errors-only", action="store_true",
                          help="print only ROAs with ERROR findings")

    lint = sub.add_parser(
        "lint",
        help="run the repro.lint invariant linter over python sources",
    )
    lint.add_argument(
        "paths", nargs="*",
        help="files or directories to lint (default: the installed "
             "repro package)",
    )
    lint.add_argument(
        "--rule", action="append", metavar="RULE",
        help="run only this rule id (repeatable, e.g. --rule RNG001)",
    )
    lint.add_argument("--json", action="store_true",
                      help="emit the findings as JSON (schema 1)")
    lint.add_argument("--list-rules", action="store_true",
                      help="print the rule catalog and exit")

    serve = sub.add_parser(
        "serve",
        help="async RTR distribution + origin-validation query service",
    )
    serve.add_argument("vrps", help="input VRP CSV")
    serve.add_argument("--rtr-host", default="127.0.0.1")
    serve.add_argument("--rtr-port", type=int, default=8282)
    serve.add_argument("--http-host", default="127.0.0.1")
    serve.add_argument("--http-port", type=int, default=8080)
    serve.add_argument("--compress", action="store_true",
                       help="compress before serving")
    serve.add_argument(
        "--results",
        help="directory of recorded runs (a ResultsStore) to serve "
             "on the /experiments endpoints (not with --jobs, which "
             "serves its store's runs/)",
    )
    serve.add_argument(
        "--metrics-interval", type=float, metavar="N",
        help="log a metrics snapshot to stderr every N seconds",
    )
    serve.add_argument(
        "--max-clients", type=int, metavar="N",
        help="load shedding: refuse connections beyond N concurrent "
             "clients per server (RTR closes immediately, HTTP "
             "answers 503; default: unlimited)",
    )
    serve.add_argument(
        "--client-deadline", type=float, metavar="SECS",
        help="evict an RTR client whose socket cannot absorb a write "
             "within SECS (slow-consumer protection; default: wait "
             "forever)",
    )
    serve.add_argument(
        "--drain-timeout", type=float, metavar="SECS",
        help="on SIGTERM, wait up to SECS for in-flight HTTP "
             "requests to finish before closing (default 10)",
    )
    serve.add_argument(
        "--jobs", action="store_true",
        help="run the experiment platform: a durable job queue and "
             "scheduler behind POST /experiments and the /jobs "
             "endpoints (requires --jobs-store)",
    )
    serve.add_argument(
        "--jobs-store", metavar="DIR",
        help="platform directory (queue.jsonl + runs/) backing "
             "--jobs; restarting with the same DIR resumes jobs a "
             "crash left mid-flight",
    )

    experiment = sub.add_parser(
        "experiment",
        help="run an attack-effectiveness grid on the repro.exper engine",
    )
    _add_spec_arguments(experiment)
    experiment.add_argument("--topology",
                            help="CAIDA relationship file (else synthetic)")
    experiment.add_argument("--ases", type=int, default=400,
                            help="synthetic topology size")
    experiment.add_argument("--topology-seed", type=int, default=11)
    experiment.add_argument("--workers", type=int,
                            help="sharded executor: shard workers in "
                                 "flight at once (default: CPU count)")
    experiment.add_argument(
        "--shards", type=int, metavar="N",
        help="sharded executor: split the grid into N shards "
             "(default: the worker count; with early stopping, at "
             "least N)",
    )
    experiment.add_argument(
        "--shard-store", metavar="DIR",
        help="sharded executor: keep per-shard run files under DIR "
             "(resumable and mergeable with repro-roa results merge; "
             "default: a temporary directory, removed afterwards)",
    )
    experiment.add_argument(
        "--shard-hosts", metavar="HOSTS",
        help="sharded executor: dispatch shards to these comma-"
             "separated repro-roa shard-worker hosts (host:port) "
             "instead of local processes",
    )
    experiment.add_argument(
        "--shard-retries", type=int, default=2, metavar="N",
        help="sharded executor: retries per shard before the run "
             "fails (default 2)",
    )
    experiment.add_argument(
        "--shard-timeout", type=float, default=120.0, metavar="SECS",
        help="sharded executor: reassign a shard after SECS without "
             "progress (default 120)",
    )
    experiment.add_argument(
        "--sink",
        help="record every trial durably into this JSONL run file "
             "(appendable, crash-safe; see repro-roa results)",
    )
    experiment.add_argument(
        "--resume", action="store_true",
        help="continue an interrupted recording in --sink: completed "
             "trials replay instead of re-running, and the final "
             "result is byte-identical to an uninterrupted run",
    )
    experiment.add_argument(
        "--progress", action="store_true",
        help="print heartbeat lines (trials/sec, ETA, per-cell "
             "completion) to stderr while the grid runs",
    )
    experiment.add_argument(
        "--progress-interval", type=float, default=2.0, metavar="N",
        help="seconds between --progress heartbeats (default 2)",
    )
    experiment.add_argument(
        "--trace", metavar="PATH",
        help="record span traces and write them to PATH as Chrome "
             "trace JSON (open in Perfetto / chrome://tracing)",
    )
    experiment.add_argument("--emit-spec", action="store_true",
                            help="print the spec as JSON and exit")
    experiment.add_argument("--json", action="store_true",
                            help="print the aggregated result as JSON")

    results = sub.add_parser(
        "results",
        help="inspect / combine durable experiment run records",
    )
    results_sub = results.add_subparsers(dest="results_command",
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

    shard_worker = sub.add_parser(
        "shard-worker",
        help="execute one shard of an experiment grid (or serve "
             "shards over HTTP for --shard-hosts coordinators)",
    )
    shard_worker.add_argument(
        "--spec", help="JSON ExperimentSpec file (one-shot mode)"
    )
    shard_worker.add_argument(
        "--shard", type=int, metavar="K",
        help="one-shot mode: run shard K of the --shards plan",
    )
    shard_worker.add_argument(
        "--shards", type=int, metavar="N",
        help="one-shot mode: total shard count of the plan",
    )
    shard_worker.add_argument(
        "--out", metavar="PATH",
        help="one-shot mode: stream the shard's records into this "
             "JSONL run file (re-running resumes it)",
    )
    shard_worker.add_argument(
        "--listen", action="store_true",
        help="serve shards over HTTP instead (POST /shards dispatch, "
             "GET /shards/<i> heartbeat, GET /shards/<i>/records)",
    )
    shard_worker.add_argument("--host", default="127.0.0.1")
    shard_worker.add_argument("--port", type=int, default=0)
    shard_worker.add_argument("--topology",
                              help="CAIDA relationship file (else "
                                   "synthetic)")
    shard_worker.add_argument("--ases", type=int, default=400,
                              help="synthetic topology size")
    shard_worker.add_argument("--topology-seed", type=int, default=11)

    chaos = sub.add_parser(
        "chaos",
        help="seeded fault-injection drills against the stack",
    )
    chaos.add_argument("--seed", type=int, default=7,
                       help="fault-plan seed (same seed, same faults)")
    chaos.add_argument(
        "--plan", metavar="FILE",
        help="JSON FaultPlan file to install (instead of generating "
             "one from --seed)",
    )
    chaos.add_argument(
        "--emit-plan", action="store_true",
        help="print the fault plan as JSON and exit (no drill)",
    )
    chaos.add_argument(
        "--drill", choices=("experiment", "serve"), default="experiment",
        help="experiment: sharded grid run under worker faults, "
             "result identical to a fault-free serial run; serve: "
             "HTTP tier under request faults plus a graceful-drain "
             "health-flip check (default experiment)",
    )
    chaos.add_argument("--rules", type=int, default=2,
                       help="rules per generated plan (default 2)")
    chaos.add_argument("--trials", type=int, default=12)
    chaos.add_argument("--spec-seed", type=int, default=0,
                       help="experiment grid seed (default 0, matching "
                            "repro-roa experiment)")
    chaos.add_argument("--ases", type=int, default=150,
                       help="synthetic topology size")
    chaos.add_argument("--topology-seed", type=int, default=11)
    chaos.add_argument("--shards", type=int, default=3)
    chaos.add_argument(
        "--shard-store", metavar="DIR",
        help="keep per-shard run files under DIR (default: temporary)",
    )
    chaos.add_argument(
        "--sink", metavar="PATH",
        help="record the drilled run into this JSONL file — "
             "byte-identical to a fault-free serial recording",
    )
    chaos.add_argument("--json", action="store_true",
                       help="print the drill result as JSON")

    jobs = sub.add_parser(
        "jobs",
        help="the durable experiment platform: submit, inspect, "
             "execute, and diff queued experiment jobs",
    )
    jobs_sub = jobs.add_subparsers(dest="jobs_command", required=True)

    def _target_arguments(
        parser: argparse.ArgumentParser, server: bool = True
    ) -> None:
        parser.add_argument(
            "--store", metavar="DIR",
            help="platform directory (queue.jsonl + runs/) for "
                 "direct local access",
        )
        if server:
            parser.add_argument(
                "--server", metavar="URL",
                help="platform HTTP endpoint "
                     "(a repro-roa serve --jobs address)",
            )

    submit = jobs_sub.add_parser(
        "submit", help="enqueue an experiment job (flags as in "
                       "repro-roa experiment)",
    )
    _target_arguments(submit)
    _add_spec_arguments(submit)
    submit.add_argument("--run", metavar="ID",
                        help="results run id (default: the job id)")
    submit.add_argument("--ases", type=int, default=400,
                        help="synthetic topology size")
    submit.add_argument("--topology-seed", type=int, default=11)
    submit.add_argument("--workers", type=int,
                        help="sharded executor: workers in flight")
    submit.add_argument("--shards", type=int, metavar="N",
                        help="sharded executor: shard count")

    jobs_list = jobs_sub.add_parser("list", help="every job's status")
    _target_arguments(jobs_list)
    jobs_list.add_argument("--json", action="store_true",
                           help="print the job list as JSON")

    jobs_show = jobs_sub.add_parser("show", help="one job's state")
    jobs_show.add_argument("job", help="job id (e.g. job-000001)")
    _target_arguments(jobs_show)

    jobs_cancel = jobs_sub.add_parser("cancel", help="cancel a job")
    jobs_cancel.add_argument("job", help="job id")
    _target_arguments(jobs_cancel)

    jobs_diff = jobs_sub.add_parser(
        "diff", help="deterministic run-to-run comparison of two "
                     "recorded runs",
    )
    jobs_diff.add_argument("a", help="run id of the baseline side")
    jobs_diff.add_argument("b", help="run id of the comparison side")
    _target_arguments(jobs_diff)

    jobs_run = jobs_sub.add_parser(
        "run", help="execute every pending job of a --store in the "
                    "foreground (also the crash-recovery path: "
                    "mid-flight jobs resume their run files)",
    )
    _target_arguments(jobs_run, server=False)
    return parser


def _cmd_compress(args: argparse.Namespace) -> int:
    from .core.compress import CompressionStats, compress_vrps
    from .data.rpki_archive import read_vrp_csv, write_vrp_csv

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
    from .core.minimal import to_minimal_vrps
    from .data.routeviews import read_origin_pairs
    from .data.rpki_archive import read_vrp_csv, write_vrp_csv

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
    from .analysis.measurements import measure_section6
    from .data.routeviews import read_origin_pairs
    from .data.rpki_archive import read_vrp_csv

    vrps = list(read_vrp_csv(args.vrps))
    announced = list(read_origin_pairs(args.rib))
    measurements = measure_section6(vrps, announced)
    for line in measurements.summary_lines():
        print(line)
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    from .data.internet import GeneratorConfig, generate_snapshot
    from .data.routeviews import write_origin_pairs
    from .data.rpki_archive import write_vrp_csv

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
    from .analysis.table1 import compute_table1

    if args.vrps:
        if not args.rib:
            print("--rib is required with --vrps", file=sys.stderr)
            return 2
        from .data.routeviews import read_origin_pairs
        from .data.rpki_archive import read_vrp_csv

        vrps = list(read_vrp_csv(args.vrps))
        announced = list(read_origin_pairs(args.rib))
    else:
        from .data.internet import GeneratorConfig, generate_snapshot

        snapshot = generate_snapshot(
            GeneratorConfig(scale=args.scale, seed=args.seed)
        )
        vrps = snapshot.vrps
        announced = snapshot.announced
    print(compute_table1(vrps, announced).render())
    return 0


def _cmd_figure3(args: argparse.Namespace) -> int:
    from .analysis.figure3 import (
        compute_figure3a,
        compute_figure3b,
        render_panel,
    )
    from .data.internet import GeneratorConfig
    from .data.snapshots import SeriesConfig, generate_weekly_series

    series = generate_weekly_series(
        SeriesConfig(base=GeneratorConfig(scale=args.scale, seed=args.seed))
    )
    print(render_panel(compute_figure3a(series)))
    print()
    print(render_panel(compute_figure3b(series)))
    return 0


def _cmd_roa_lint(args: argparse.Namespace) -> int:
    from .core.recommend import Severity, lint_roas
    from .data.routeviews import read_origin_pairs
    from .data.rpki_archive import read_vrp_csv
    from .rpki.roa import Roa, RoaPrefix

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


def _cmd_lint(args: argparse.Namespace) -> int:
    import json

    from .lint.engine import lint_paths
    from .lint.model import LintUsageError
    from .lint.report import (
        EXIT_CLEAN,
        EXIT_FINDINGS,
        EXIT_USAGE,
        render_text,
        to_json,
    )
    from .lint.rules import rule_catalog

    if args.list_rules:
        for rule_id, summary in rule_catalog().items():
            print(f"{rule_id}  {summary}")
        return EXIT_CLEAN
    # No paths: lint the installed library itself, wherever it lives.
    paths = args.paths or [Path(__file__).resolve().parent]
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


def _cmd_serve(args: argparse.Namespace) -> int:
    # Imported here so the pure-analysis commands stay socket-free.
    import asyncio

    from .data.rpki_archive import read_vrp_csv
    from .serve.http import QueryHttpServer
    from .serve.metrics import ServeMetrics
    from .serve.query import QueryService
    from .serve.rtr_async import AsyncRtrServer

    if args.jobs and not args.jobs_store:
        print("--jobs requires --jobs-store", file=sys.stderr)
        return 2
    if args.jobs and args.results:
        print(
            "--results and --jobs each name the served store; "
            "pass one", file=sys.stderr,
        )
        return 2

    vrps = list(read_vrp_csv(args.vrps))
    if args.compress:
        from .core.compress import compress_vrps

        vrps = compress_vrps(vrps)

    store = None
    scheduler = None
    if args.results:
        from .results.store import ResultsStore

        store = ResultsStore(args.results)
        print(
            f"results: {len(store.run_ids())} run files in {args.results}"
        )
    if args.jobs:
        from .faults.plan import install_from_env
        from .jobs.http import JobsHttpServer
        from .jobs.scheduler import JobScheduler
        from .jobs.store import JobStore

        # Dispatched fault plans (repro-roa chaos; CI drills) apply to
        # the scheduler's jobs.* sites too.
        install_from_env()
        job_store = JobStore(args.jobs_store)
        scheduler = JobScheduler(job_store)
        print(
            f"jobs: {len(job_store.pending())} pending, "
            f"{len(scheduler.results.run_ids())} run files in "
            f"{args.jobs_store}"
        )

    async def run() -> None:
        import json
        import signal

        from .obs.metrics import get_registry

        # The process registry, not a private one: a single
        # /metrics?format=prometheus scrape then covers everything the
        # process recorded (serve.*, and any experiment run in-process).
        metrics = ServeMetrics(registry=get_registry())
        rtr = AsyncRtrServer(
            vrps, host=args.rtr_host, port=args.rtr_port, metrics=metrics,
            max_clients=args.max_clients,
            client_deadline=args.client_deadline)
        await rtr.start()
        service = QueryService(vrps, metrics=metrics)
        service.serial = rtr.state.serial
        drain_timeout = (
            args.drain_timeout if args.drain_timeout is not None
            else 10.0
        )
        if scheduler is not None:
            http = JobsHttpServer(
                service, scheduler,
                host=args.http_host, port=args.http_port,
                metrics=metrics, max_clients=args.max_clients,
                drain_timeout=drain_timeout)
        else:
            http = QueryHttpServer(
                service, host=args.http_host, port=args.http_port,
                metrics=metrics, store=store,
                max_clients=args.max_clients,
                drain_timeout=drain_timeout)
        await http.start()
        if scheduler is not None:
            scheduler.start()
        print(
            f"serving: rtr={rtr.host}:{rtr.port} "
            f"http={http.host}:{http.port} "
            f"serial={rtr.state.serial} vrps={len(vrps)} "
            f"compress={'on' if args.compress else 'off'}"
            f"{' jobs=on' if scheduler is not None else ''}; "
            f"Ctrl-C to stop"
        )
        tasks = []
        if args.metrics_interval:
            async def log_metrics() -> None:
                while True:
                    await asyncio.sleep(args.metrics_interval)
                    print(
                        f"metrics: {json.dumps(metrics.snapshot())}",
                        file=sys.stderr,
                    )

            tasks.append(asyncio.ensure_future(log_metrics()))
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        try:
            loop.add_signal_handler(signal.SIGTERM, stop.set)
        except (NotImplementedError, RuntimeError):
            pass  # platforms without signal handlers: Ctrl-C only
        try:
            await stop.wait()  # serve until SIGTERM (or Ctrl-C raises)
            # Graceful drain: shed new HTTP work (healthz flips to
            # 503 for load balancers), wait out in-flight requests,
            # then close both servers.
            print("SIGTERM: draining ...", file=sys.stderr)
            drained = await http.drain()
            print(
                f"drained in {drained:.3f}s; shutting down",
                file=sys.stderr,
            )
            await http.close()
            await rtr.close()
            if scheduler is not None:
                scheduler.stop()
        finally:
            for task in tasks:
                task.cancel()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        pass
    return 0


def _experiment_spec_from_args(args: argparse.Namespace):
    from .exper.scenarios import (
        AnyAsPairSampler,
        AttackConfig,
        StubPairSampler,
        policy_from_name,
    )
    from .exper.spec import ExperimentSpec
    from .netbase.prefix import Prefix

    # A threshold/cadence flag without --stopping means the user wants
    # stopping: imply "ci" rather than silently ignoring the flag.
    if args.stopping is None and any(
        getattr(args, name) is not None
        for name in ("stop_ci_width", "stop_min_trials",
                     "stop_check_every")
    ):
        args.stopping = "ci"

    if args.spec:
        spec = ExperimentSpec.from_json(
            Path(args.spec).read_text(encoding="utf-8")
        )
        overrides = {}
        for name in ("executor", "stopping", "stop_ci_width",
                     "stop_min_trials", "stop_check_every"):
            value = getattr(args, name)
            if value is not None and value != getattr(spec, name):
                overrides[name] = value
        if overrides:
            import dataclasses

            spec = dataclasses.replace(spec, **overrides)
        return spec
    attacks = [
        AttackConfig(kind.strip(), attackers=args.attackers,
                     prepend=args.prepend)
        for kind in args.kinds.split(",") if kind.strip()
    ]
    policies = [
        policy_from_name(name.strip())
        for name in args.policies.split(",") if name.strip()
    ]
    if args.fractions == "all":
        fractions: tuple = (None,)
    else:
        fractions = tuple(
            None if token.strip() == "all" else float(token)
            for token in args.fractions.split(",") if token.strip()
        )
    sampler = (
        AnyAsPairSampler() if args.sampler == "any" else StubPairSampler()
    )
    stop_kwargs = {
        name: value
        for name in ("stopping", "stop_ci_width", "stop_min_trials",
                     "stop_check_every")
        if (value := getattr(args, name)) is not None
    }
    return ExperimentSpec.grid(
        attacks, policies,
        trials=args.trials,
        seed=args.seed,
        fractions=fractions,
        sampler=sampler,
        victim_prefix=Prefix.parse(args.victim_prefix),
        attack_prefix=(
            Prefix.parse(args.attack_prefix) if args.attack_prefix else None
        ),
        executor=args.executor or "serial",
        **stop_kwargs,
    )


def _cmd_experiment(args: argparse.Namespace) -> int:
    import json

    from .netbase.errors import ReproError

    try:
        spec = _experiment_spec_from_args(args)
    except (ReproError, OSError, ValueError) as exc:
        # OSError: unreadable --spec file; ValueError: malformed
        # numbers in flags (e.g. --fractions 0,abc).
        print(f"bad experiment spec: {exc}", file=sys.stderr)
        return 2
    if args.emit_spec:
        print(spec.to_json())
        return 0

    from .exper.runner import ExperimentRunner

    topology = _topology_from_args(args)
    sink = None
    if args.sink:
        from .results.sinks import JsonlSink

        sink = JsonlSink(args.sink)
    elif args.resume:
        print("--resume requires --sink", file=sys.stderr)
        return 2
    reporter = None
    if args.progress:
        from .obs.progress import ProgressReporter

        reporter = ProgressReporter(
            spec, interval=args.progress_interval
        )
    if args.trace:
        from .obs.trace import enable_tracing

        enable_tracing()
    shard_transport = None
    if args.shard_hosts:
        from .serve.shards import HttpShardTransport

        try:
            shard_transport = HttpShardTransport(
                [h for h in args.shard_hosts.split(",") if h.strip()]
            )
        except ReproError as exc:
            print(f"bad --shard-hosts: {exc}", file=sys.stderr)
            return 2
    try:
        runner = ExperimentRunner(
            topology, spec, executor=args.executor, workers=args.workers,
            sink=sink, resume_from=sink if args.resume else None,
            shards=args.shards, shard_store=args.shard_store,
            shard_transport=shard_transport,
            shard_retries=args.shard_retries,
            shard_timeout=args.shard_timeout,
        )
        print(
            f"topology: {len(topology)} ASes, "
            f"{topology.edge_count()} links; "
            f"{spec.total_trials} trials x {len(spec.cells)} cells "
            f"({runner.executor} executor)",
            file=sys.stderr,
        )
        result = runner.run(
            on_record=reporter.record if reporter is not None else None
        )
    except (ReproError, OSError) as exc:
        # OSError: an unwritable/unreadable --sink path.
        print(f"experiment failed: {exc}", file=sys.stderr)
        return 1
    finally:
        if sink is not None:
            sink.close()
        if reporter is not None:
            reporter.finish()
        if args.trace:
            from .obs.trace import disable_tracing, write_chrome_trace

            disable_tracing()
            events = write_chrome_trace(args.trace)
            print(
                f"trace: {events} events -> {args.trace}",
                file=sys.stderr,
            )
    if sink is not None:
        print(f"recorded run: {args.sink}", file=sys.stderr)
    if args.json:
        print(json.dumps(_result_to_json(result), indent=2))
    else:
        print(result.render())
    return 0


def _result_to_json(result) -> dict:
    from .results.store import result_to_json

    return result_to_json(result)


def _cmd_results(args: argparse.Namespace) -> int:
    import json

    from .netbase.errors import ReproError
    from .results.sinks import read_run
    from .results.store import merge_runs, run_result

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
        print(json.dumps(_result_to_json(result), indent=2))
    else:
        print(result.render())
    return 0


def _topology_from_args(args: argparse.Namespace):
    """``--topology FILE`` where the command has that flag and it is
    given, else the synthetic ``--ases``/``--topology-seed`` graph."""
    if getattr(args, "topology", None):
        from .data.caida import read_caida

        return read_caida(args.topology)
    from .data.asgraph import TopologyProfile, generate_topology

    return generate_topology(
        TopologyProfile(ases=args.ases), random.Random(args.topology_seed)
    )


def _cmd_shard_worker(args: argparse.Namespace) -> int:
    from .netbase.errors import ReproError

    if args.listen:
        import time as time_module

        from .serve.shards import ThreadedShardWorkerServer

        topology = _topology_from_args(args)
        try:
            server = ThreadedShardWorkerServer(
                topology, host=args.host, port=args.port
            ).start()
        except OSError as exc:
            print(f"shard-worker failed to bind: {exc}", file=sys.stderr)
            return 1
        print(
            f"shard worker: {len(topology)} ASes "
            f"(topology {server.topology_hash}) on "
            f"http://{server.host}:{server.port}",
            file=sys.stderr,
        )
        try:
            while True:
                time_module.sleep(3600)
        except KeyboardInterrupt:
            pass
        finally:
            server.close()
        return 0

    if not (args.spec and args.out is not None
            and args.shard is not None and args.shards is not None):
        print(
            "shard-worker needs --listen, or all of "
            "--spec/--shard/--shards/--out",
            file=sys.stderr,
        )
        return 2
    from .exper.sharded import plan_shards, run_shard
    from .exper.spec import ExperimentSpec
    from .results.sinks import JsonlSink

    try:
        spec = ExperimentSpec.from_json(
            Path(args.spec).read_text(encoding="utf-8")
        )
        topology = _topology_from_args(args)
        plan = plan_shards(spec, args.shards)
        if not 0 <= args.shard < len(plan):
            raise ReproError(
                f"--shard {args.shard} outside the "
                f"{len(plan)}-shard plan"
            )
        shard = plan[args.shard]
        sink = JsonlSink(args.out)
        try:
            written = run_shard(
                topology, spec, shard, sink=sink, resume=True
            )
        finally:
            sink.close()
    except (ReproError, OSError) as exc:
        print(f"shard-worker failed: {exc}", file=sys.stderr)
        return 1
    print(
        f"shard {shard.shard_index}/{shard.shard_count}: "
        f"{written} records ({shard.trial_count} trials x "
        f"{len(spec.cells)} cells) -> {args.out}",
        file=sys.stderr,
    )
    return 0


def _chaos_plan(args: argparse.Namespace):
    from .faults.plan import FaultPlan

    if args.plan:
        return FaultPlan.from_json(
            Path(args.plan).read_text(encoding="utf-8")
        )
    profile = "sharded" if args.drill == "experiment" else "serve"
    return FaultPlan.generate(
        args.seed, shards=args.shards, rules=args.rules, profile=profile,
    )


def _chaos_spec(args: argparse.Namespace):
    """The grid ``repro-roa experiment --trials N --seed S`` runs: its
    own flags, parsed, so the two defaults cannot drift apart."""
    parser = argparse.ArgumentParser(add_help=False)
    _add_spec_arguments(parser)
    return _experiment_spec_from_args(parser.parse_args(
        ["--trials", str(args.trials), "--seed", str(args.spec_seed)]
    ))


def _chaos_experiment(args: argparse.Namespace, plan) -> int:
    """Sharded grid run under worker faults.

    Stdout is exactly what ``repro-roa experiment --json`` prints for
    the same grid run serially and fault-free — the chaos-equivalence
    invariant, checked byte-for-byte by the CI ``chaos-smoke`` job.
    """
    import json
    import os as os_module

    from .exper.runner import ExperimentRunner
    from .faults.plan import PLAN_ENV, install
    from .netbase.errors import ReproError

    spec = _chaos_spec(args)
    topology = _topology_from_args(args)
    # Ship the plan to shard workers through the environment (local
    # processes inherit it; install_from_env() gives each attempt
    # fresh hit counters) and install it here for any in-process path.
    os_module.environ[PLAN_ENV] = plan.to_json()
    install(plan)
    sink = None
    if args.sink:
        from .results.sinks import JsonlSink

        sink = JsonlSink(args.sink)
    try:
        runner = ExperimentRunner(
            topology, spec, executor="sharded", shards=args.shards,
            shard_store=args.shard_store, sink=sink,
        )
        print(
            f"chaos: {len(plan.rules)} fault rules (seed {plan.seed}) "
            f"against {runner.shards} shards, "
            f"{spec.total_trials} trials x {len(spec.cells)} cells",
            file=sys.stderr,
        )
        result = runner.run()
    except (ReproError, OSError) as exc:
        print(f"chaos experiment drill failed: {exc}", file=sys.stderr)
        return 1
    finally:
        if sink is not None:
            sink.close()
        os_module.environ.pop(PLAN_ENV, None)
    # Worker faults fire inside worker processes; the coordinator
    # observes them as shard failures and retries, so those counters
    # are the drill's evidence (plan.fired covers in-process sites).
    from .obs.metrics import get_registry

    snap = get_registry().snapshot()
    print(
        f"shards failed: {snap.get('exper.shards_failed', 0)}, "
        f"retried: {snap.get('exper.shards_retried', 0)}; "
        f"in-process faults fired: {len(plan.fired)}",
        file=sys.stderr,
    )
    if args.sink:
        print(f"recorded run: {args.sink}", file=sys.stderr)
    if args.json:
        print(json.dumps(_result_to_json(result), indent=2))
    else:
        print(result.render())
    return 0


def _chaos_serve(args: argparse.Namespace, plan) -> int:
    """HTTP tier under request faults, then a graceful-drain check.

    Exit status 0 requires observing the health flip: ``/healthz``
    answers 200 before the drain and 503 during it (with ``/validity``
    shed alongside) — the contract load balancers rely on.
    """
    import asyncio
    import json

    from .faults.plan import install
    from .netbase.prefix import Prefix
    from .rpki.vrp import Vrp
    from .serve.http import QueryHttpServer
    from .serve.query import QueryService

    install(plan)

    async def probe(host: str, port: int, path: str) -> int:
        """Status code of one GET, or 0 if the connection died."""
        reader, writer = await asyncio.open_connection(host, port)
        try:
            writer.write(
                f"GET {path} HTTP/1.1\r\nHost: {host}\r\n"
                f"Connection: close\r\n\r\n".encode("ascii")
            )
            await writer.drain()
            status = await reader.readline()
            parts = status.split()
            return int(parts[1]) if len(parts) >= 2 else 0
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except OSError:
                pass

    async def drill() -> dict:
        vrps = [
            Vrp(Prefix.parse("168.122.0.0/16"), 24, 111),
            Vrp(Prefix.parse("10.0.0.0/8"), 16, 65000),
        ]
        server = QueryHttpServer(QueryService(vrps), drain_timeout=5.0)
        await server.start()
        try:
            before = await probe(server.host, server.port, "/healthz")
            attempted, failed = 8, 0
            for _ in range(attempted):
                try:
                    status = await probe(
                        server.host, server.port,
                        "/validity?asn=111&prefix=168.122.10.0/24",
                    )
                except OSError:
                    status = 0  # reset before the status line arrived
                if status != 200:
                    failed += 1  # injected faults land here — expected
            drained = await server.drain()
            during = await probe(server.host, server.port, "/healthz")
            shed = await probe(
                server.host, server.port,
                "/validity?asn=111&prefix=168.122.10.0/24",
            )
        finally:
            await server.close()
        return {
            "drill": "serve",
            "plan_seed": plan.seed,
            "rules": len(plan.rules),
            "faults_fired": len(plan.fired),
            "requests_attempted": attempted,
            "requests_failed": failed,
            "healthz_before": before,
            "drain_seconds": round(drained, 6),
            "healthz_during_drain": during,
            "validity_during_drain": shed,
            "requests_shed": server.metrics["requests_shed"],
        }

    report = asyncio.run(drill())
    print(json.dumps(report, indent=2 if args.json else None))
    flipped = (
        report["healthz_before"] == 200
        and report["healthz_during_drain"] == 503
        and report["validity_during_drain"] == 503
    )
    if not flipped:
        print("chaos serve drill: health flip NOT observed",
              file=sys.stderr)
        return 1
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from .netbase.errors import ReproError

    try:
        plan = _chaos_plan(args)
    except (ReproError, OSError) as exc:
        print(f"bad fault plan: {exc}", file=sys.stderr)
        return 2
    if args.emit_plan:
        print(plan.to_json())
        return 0
    if args.drill == "serve":
        return _chaos_serve(args, plan)
    return _chaos_experiment(args, plan)


def _job_spec_from_args(args: argparse.Namespace):
    from .jobs.model import JobSpec

    return JobSpec(
        spec=_experiment_spec_from_args(args),
        run=args.run,
        ases=args.ases,
        topology_seed=args.topology_seed,
        workers=args.workers,
        shards=args.shards,
    )


def _jobs_request(
    server: str, method: str, path: str, body: Optional[dict] = None
):
    """One platform HTTP call; returns ``(status, response text)``."""
    import json
    from urllib import error, request

    from .netbase.errors import ReproError

    url = server.rstrip("/") + path
    data = None if body is None else json.dumps(body).encode("utf-8")
    http_request = request.Request(url, data=data, method=method)
    if data is not None:
        http_request.add_header("Content-Type", "application/json")
    try:
        with request.urlopen(http_request, timeout=60) as response:
            return response.status, response.read().decode("utf-8")
    except error.HTTPError as exc:
        return exc.code, exc.read().decode("utf-8")
    except (error.URLError, OSError) as exc:
        raise ReproError(f"{url}: {exc}")


def _jobs_local(args: argparse.Namespace, store_dir: str) -> int:
    import json

    from .jobs.scheduler import JobScheduler
    from .jobs.store import JobStore

    store = JobStore(store_dir)
    command = args.jobs_command
    if command == "submit":
        job_id = JobScheduler(store).submit(_job_spec_from_args(args))
        state = store.job(job_id)
        print(f"{job_id} queued (run {state.spec.run})")
        return 0
    if command == "list":
        summaries = [
            state.summary()
            for _, state in sorted(store.jobs().items())
        ]
        if args.json:
            print(json.dumps({"jobs": summaries}, indent=2))
        else:
            for summary in summaries:
                print(
                    f"{summary['job']}  {summary['status']:<9}  "
                    f"run={summary['run']}  "
                    f"spec={summary['spec_hash'][:12]}"
                )
            if not summaries:
                print("no jobs", file=sys.stderr)
        return 0
    if command == "show":
        state = store.job(args.job)
        if state is None:
            print(f"no job named {args.job!r}", file=sys.stderr)
            return 1
        print(json.dumps(state.summary(), indent=2))
        return 0
    if command == "cancel":
        state = JobScheduler(store).cancel(args.job)
        print(f"{args.job} cancelled (was {state.status})")
        return 0
    if command == "diff":
        from .results.store import run_diff_document

        results = store.results_store()
        a_header, a_records = results.read(args.a)
        b_header, b_records = results.read(args.b)
        document = run_diff_document(
            args.a, a_header, a_records, args.b, b_header, b_records
        )
        # Canonical serialization: byte-identical to the serve tier's
        # GET /diff of the same runs (a pinned determinism test).
        print(json.dumps(document, sort_keys=True,
                         separators=(",", ":")))
        return 0
    # "run": the foreground drain — also the crash-recovery path.
    from .faults.plan import install_from_env

    install_from_env()
    executed = JobScheduler(store).run_pending()
    print(
        f"executed {executed} job(s); "
        f"{len(store.pending())} still pending",
        file=sys.stderr,
    )
    return 0


def _jobs_over_http(args: argparse.Namespace, server: str) -> int:
    from urllib.parse import quote, urlencode

    command = args.jobs_command
    if command == "submit":
        spec = _job_spec_from_args(args)
        status, body = _jobs_request(
            server, "POST", "/experiments", spec.to_json_dict()
        )
    elif command == "list":
        status, body = _jobs_request(server, "GET", "/jobs")
    elif command == "show":
        status, body = _jobs_request(
            server, "GET", f"/jobs/{quote(args.job)}"
        )
    elif command == "cancel":
        status, body = _jobs_request(
            server, "DELETE", f"/jobs/{quote(args.job)}"
        )
    else:  # diff
        query = urlencode({"a": args.a, "b": args.b})
        status, body = _jobs_request(server, "GET", f"/diff?{query}")
    if status >= 400:
        print(f"jobs {command} failed ({status}): {body}",
              file=sys.stderr)
        return 1
    print(body)
    return 0


def _cmd_jobs(args: argparse.Namespace) -> int:
    from .netbase.errors import ReproError

    command = args.jobs_command
    store_dir = getattr(args, "store", None)
    server = getattr(args, "server", None)
    if store_dir and server:
        print("choose one of --store or --server", file=sys.stderr)
        return 2
    if not store_dir and not server:
        print(
            f"jobs {command} needs --store DIR or --server URL",
            file=sys.stderr,
        )
        return 2
    try:
        if server:
            return _jobs_over_http(args, server)
        return _jobs_local(args, store_dir)
    except (ReproError, OSError, ValueError) as exc:
        # ValueError: malformed numbers in the grid flags.
        print(f"jobs {command} failed: {exc}", file=sys.stderr)
        return 1


_COMMANDS = {
    "compress": _cmd_compress,
    "minimal": _cmd_minimal,
    "analyze": _cmd_analyze,
    "generate": _cmd_generate,
    "roa-lint": _cmd_roa_lint,
    "lint": _cmd_lint,
    "table1": _cmd_table1,
    "figure3": _cmd_figure3,
    "serve": _cmd_serve,
    "experiment": _cmd_experiment,
    "results": _cmd_results,
    "shard-worker": _cmd_shard_worker,
    "chaos": _cmd_chaos,
    "jobs": _cmd_jobs,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point: parse ``argv`` and dispatch to the subcommand."""
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
