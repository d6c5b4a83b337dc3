#!/usr/bin/env python3
"""The performance ledger: one command, every metric by name.

Two ways to call it, from the root of the repository:

``python3 perfledger/run.py --workload NAME --seed N --seconds S --trace 0|1``
    One run of one workload, as the benchmark driver makes it.  The
    last line of standard output is one JSON object with the keys
    ``correct``, ``attempted``, ``failed`` and ``metrics``: with
    ``--trace 0`` every end-to-end metric of ``BENCHMARK.json``
    (measured with tracing off), with ``--trace 1`` every per-layer
    metric (from one traced repetition).  Everything meant for a
    person goes to standard error.

``python3 perfledger/run.py [--seed N] [--runs K] [--aa] [--report PATH]``
    The whole ledger: every workload, ``K`` untraced runs at seeds
    ``N .. N+K-1`` and one traced run, printed as a table.  ``--aa``
    does all of that twice on the same tree and says, for each
    end-to-end metric × workload, whether the two medians agree within
    the metric's bound, and whether the exact-count metrics repeated.

The program under test is ``src/repro``; it only ever sees inputs made
from ``--seed``.  See ``perfledger/README.md`` for what each name means.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from ledger_core import (
    ROOT,
    SRC,
    LedgerError,
    adopt_orphans,
    load_catalogue,
    wait_for_descendants,
)

#: One run must end well inside the driver's 180 s limit.
WATCHDOG_SECONDS = 170

#: Counts that must repeat exactly between two runs at one seed.
EXACT_COUNTS = (
    "bgp.fastprop.sweeps", "bgp.fastprop.touched_ases",
    "bgp.fastprop.mask_builds", "bgp.fastprop.profile_hits",
    "bgp.fastprop.profile_misses", "core.compress.vrps_in",
    "core.compress.vrps_out", "results.sinks.records",
    "results.sinks.bytes", "exper.spec.trials",
)


def _dispatch(workload: str):
    """The workload's ``run(seed, seconds, trace, work, toy)``.  The
    workload modules import ``repro``, so they load only now, after
    ``main`` has put ``src/`` on the path."""
    if workload in ("grid_10k", "platform_small"):
        import ledger_experiment

        return (ledger_experiment.run_grid if workload == "grid_10k"
                else ledger_experiment.run_platform)
    if workload == "paper_pipeline":
        import ledger_pipeline

        return ledger_pipeline.run
    import ledger_serve

    if workload in ledger_serve.WORKLOADS:
        return lambda *args: ledger_serve.run(workload, *args)
    raise LedgerError(f"unknown workload {workload!r}")


def _write_report(path: str, document: dict) -> None:
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(document, indent=2) + "\n")


def _watchdog(signum, frame):
    raise LedgerError(f"run exceeded {WATCHDOG_SECONDS} s")


def _terminated(signum, frame):
    raise LedgerError("terminated")


def run_one(args: argparse.Namespace, catalogue: dict) -> int:
    """One run of one workload; prints the driver's JSON line."""
    names = [w["name"] for w in catalogue["workloads"]]
    if args.workload not in names:
        raise LedgerError(
            f"unknown workload {args.workload!r}; expected one of {names}")
    run = _dispatch(args.workload)
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    (work / "tmp").mkdir(parents=True)
    # The program's own temporary files (shard stores) stay in the
    # checkout too; CLI children inherit the variable.
    os.environ["TMPDIR"] = str(work / "tmp")
    tempfile.tempdir = None
    # Commands the run starts may leave processes of their own behind
    # (a sharded command's resource tracker outlives it); adopt them, and
    # on every path out wait until the last one has ended.
    adopt_orphans()
    signal.signal(signal.SIGALRM, _watchdog)
    signal.signal(signal.SIGTERM, _terminated)
    signal.alarm(WATCHDOG_SECONDS)
    started = time.perf_counter()
    try:
        outcome = run(args.seed, args.seconds, bool(args.trace),
                      work, args.toy)
    finally:
        signal.alarm(0)
        killed = wait_for_descendants()
        shutil.rmtree(work, ignore_errors=True)
    elapsed = time.perf_counter() - started
    if killed:
        raise LedgerError(
            f"{killed} process(es) the run started had to be killed")

    declared = catalogue["per_layer" if args.trace else "end_to_end"]
    known = {m["name"] for m in catalogue["end_to_end"]} | {
        m["name"] for m in catalogue["per_layer"]}
    stray = sorted(set(outcome.metrics) - known)
    if stray:
        raise LedgerError(f"metrics not declared in BENCHMARK.json: {stray}")
    metrics = {}
    for entry in declared:
        name = entry["name"]
        if args.trace:
            # A layer this workload never enters did no work: 0.
            value = outcome.metrics.get(name, 0.0)
        elif name not in outcome.metrics:
            raise LedgerError(f"{args.workload} produced no {name}")
        else:
            value = outcome.metrics[name]
        if not math.isfinite(value):
            raise LedgerError(f"{name} is not finite: {value}")
        metrics[name] = {"value": value, "unit": entry["unit"]}

    correct = outcome.failed == 0 and not outcome.problems
    log = sys.stderr
    print(f"== {args.workload}  seed={args.seed}  trace={args.trace}  "
          f"({elapsed:.1f} s)", file=log)
    print(f"   sizes: {json.dumps(outcome.details.get('sizes', {}))}",
          file=log)
    for name, item in metrics.items():
        if item["value"] or not args.trace:
            print(f"   {name:<40} {item['value']:>16.6g} {item['unit']}",
                  file=log)
    for key in ("refused_percentiles", "generator_bound",
                "attribution_problem"):
        if key in outcome.details:
            print(f"   note: {key}: {outcome.details[key]}", file=log)
    print(f"   ops_attempted={outcome.attempted} "
          f"ops_failed={outcome.failed}", file=log)
    for problem in outcome.problems:
        print(f"   FAILED CHECK: {problem}", file=log)

    result = {
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }
    if args.report:
        _write_report(args.report, {
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "elapsed_s": elapsed, "result": result,
            "details": outcome.details, "problems": outcome.problems,
        })
    print(json.dumps(result))
    return 0 if correct else 1


# ----------------------------------------------------------------------
# The whole ledger
# ----------------------------------------------------------------------


def _child_run(workload: str, seed: int, seconds: float, trace: int,
               toy: bool, scratch: Path) -> dict:
    report = scratch / f"{workload}-{seed}-{trace}.json"
    argv = [sys.executable, str(Path(__file__).resolve()),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--report", str(report)]
    if toy:
        argv.append("--toy")
    done = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE)
    if not report.exists():
        raise LedgerError(f"{workload} (trace {trace}) did not report; "
                          f"exit {done.returncode}")
    return json.loads(report.read_text())


def _quartile_spread(values: list) -> float:
    """Inter-quartile distance as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def one_ledger(args: argparse.Namespace, catalogue: dict,
               scratch: Path) -> dict:
    """Every workload: ``--runs`` untraced runs, then one traced run."""
    ledger = {}
    for workload in (w["name"] for w in catalogue["workloads"]):
        untraced = [
            _child_run(workload, args.seed + i, args.seconds, 0,
                       args.toy, scratch)
            for i in range(args.runs)
        ]
        traced = _child_run(workload, args.seed, args.seconds, 1,
                            args.toy, scratch)
        end_to_end = {}
        for entry in catalogue["end_to_end"]:
            values = [run["result"]["metrics"][entry["name"]]["value"]
                      for run in untraced]
            end_to_end[entry["name"]] = {
                "median": statistics.median(values),
                "min": min(values), "max": max(values),
                "iqr_share": _quartile_spread(values),
                "n": len(values), "unit": entry["unit"],
            }
        ledger[workload] = {
            "end_to_end": end_to_end,
            "per_layer": {
                name: item["value"]
                for name, item in traced["result"]["metrics"].items()
            },
            "ops_attempted": sum(r["result"]["attempted"]
                                 for r in untraced + [traced]),
            "ops_failed": sum(r["result"]["failed"]
                              for r in untraced + [traced]),
            "correct": all(r["result"]["correct"]
                           for r in untraced + [traced])
            and traced["details"].get("attribution_ok", True),
            "sizes": traced["details"].get("sizes"),
            "spans": traced["details"].get("spans"),
            "notes": {
                key: traced["details"][key]
                for key in ("refused_percentiles", "generator_bound",
                            "unattributed_share", "attribution_problem")
                if key in traced["details"]
            },
            "problems": [p for r in untraced + [traced]
                         for p in r["problems"]],
        }
    return ledger


def print_ledger(ledger: dict, catalogue: dict) -> None:
    units = {m["name"]: m["unit"] for m in catalogue["per_layer"]}
    for workload, entry in ledger.items():
        print(f"\n## {workload}   sizes={json.dumps(entry['sizes'])}")
        print(f"   ops_attempted={entry['ops_attempted']} "
              f"ops_failed={entry['ops_failed']}")
        for name, stats in entry["end_to_end"].items():
            print(f"   {name:<40} {stats['median']:>14.6g} "
                  f"{stats['unit']:<6} (min {stats['min']:.6g}, "
                  f"max {stats['max']:.6g}, n={stats['n']})")
        for name, value in entry["per_layer"].items():
            if value:
                print(f"     {name:<38} {value:>14.6g} {units[name]}")
        for key, note in entry["notes"].items():
            print(f"   note: {key}: {note}")
        for problem in entry["problems"]:
            print(f"   FAILED CHECK: {problem}")


def compare(first: dict, second: dict, catalogue: dict) -> bool:
    """The A/A verdict: do two ledgers of one tree agree?"""
    agreed = exact = True
    print("\n## A/A: two ledgers of the same tree")
    print(f"   {'workload':<16}{'metric':<14}{'A':>12}{'B':>12}"
          f"{'worse by':>10}{'bound':>8}{'spread A':>10}{'spread B':>10}")
    for workload in first:
        for entry in catalogue["end_to_end"]:
            name = entry["name"]
            a = first[workload]["end_to_end"][name]
            b = second[workload]["end_to_end"][name]
            change = (b["median"] - a["median"]) / a["median"]
            worse = change if entry["better"] == "lower" else -change
            ok = abs(worse) <= entry["bound"]
            agreed &= ok
            print(f"   {workload:<16}{name:<14}{a['median']:>12.5g}"
                  f"{b['median']:>12.5g}{worse:>+10.1%}"
                  f"{entry['bound']:>8.0%}{a['iqr_share']:>10.1%}"
                  f"{b['iqr_share']:>10.1%}"
                  f"{'' if ok else f'  DISAGREE: a bound of {2 * abs(worse):.0%} would hold'}")
        for name in EXACT_COUNTS + ("serve.frames.encodes",):
            if workload == "rtr_update" and name == "serve.frames.encodes":
                continue  # one per update: follows the update count
            a = first[workload]["per_layer"][name]
            b = second[workload]["per_layer"][name]
            if a != b:
                exact = False
                print(f"   {workload:<16}{name}: {a} != {b}  NOT EXACT")
    print(f"   => medians {'agree' if agreed else 'DO NOT agree'} within "
          f"bounds; exact counts {'repeat' if exact else 'DO NOT repeat'}")
    return agreed and exact


def run_ledger(args: argparse.Namespace, catalogue: dict) -> int:
    scratch = ROOT / ".bench_work" / f"ledger-{os.getpid()}"
    scratch.mkdir(parents=True)
    try:
        ledgers = [one_ledger(args, catalogue, scratch)]
        print_ledger(ledgers[0], catalogue)
        agreed = True
        if args.aa:
            ledgers.append(one_ledger(args, catalogue, scratch))
            print_ledger(ledgers[1], catalogue)
            agreed = compare(ledgers[0], ledgers[1], catalogue)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    correct = all(entry["correct"] for ledger in ledgers
                  for entry in ledger.values())
    if args.report:
        _write_report(args.report, {
            "benchmark": "perfledger",
            "seed": args.seed, "runs": args.runs,
            "run_seconds": args.seconds,
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "machine": platform.machine(),
            "ledgers": ledgers,
            "aa_agree": agreed if args.aa else None,
        })
    return 0 if correct and agreed else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=2017)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--runs", type=int, default=3,
                        help="untraced runs per workload (whole ledger)")
    parser.add_argument("--aa", action="store_true",
                        help="run the whole ledger twice and compare")
    parser.add_argument("--toy", action="store_true",
                        help="toy sizes (the smoke test)")
    parser.add_argument("--report", help="also write the full report here")
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"perfledger: no program to measure at {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    catalogue = load_catalogue()
    if args.seconds is None:
        args.seconds = catalogue["run_seconds"]
    try:
        if args.workload:
            return run_one(args, catalogue)
        return run_ledger(args, catalogue)
    except LedgerError as exc:
        print(f"perfledger: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
