#!/usr/bin/env python3
"""Experiment-engine trial throughput: serial vs sharded, sink and
telemetry overhead.

The workload is the paper's §4/§5 ROA-granularity grid — a
forged-origin/subprefix attacker evaluated against a spectrum of ROA
maxLength choices (minimal … loose … none) — on a synthetic ≥10k-AS
topology, array engine, run through ``ExperimentRunner``: the compiled
topology shipped once as a flat blob over shared memory, one reusable
``PropagationWorkspace`` per worker, trials streamed lazily.  It is
timed serial and multi-process (the sharded executor, ``--workers`` at
once over ``--shards`` shards), and both must produce byte-identical
aggregated results.  A synthetic CAIDA-scale (75k-AS) serial run is
also recorded — reduced trial count, success plus trials/sec — unless
``--skip-75k``.

Until PR 22 this script also rebuilt a "pre-overhaul" baseline from
``evaluate_trial`` with no workspace and gated ≥3× over it.  That slow
path (fresh state arrays and an ordered sweep for every propagation)
no longer exists in the library — a workspace-free call is now a
transient workspace running the same closures — so the baseline arm
and its gate are retired; the last recorded ratio was 18.9× (PR 21).
Speed is tracked by the ledger's ``grid_10k`` workload instead.

Durable recording must stay effectively free: the serial engine is
also timed with a :class:`repro.results.JsonlSink` attached, and the
recorded run may cost **at most 230 µs more per trial** (ten records
encoded, written and flushed), with byte-identical results.  Both arms
take the best of ``--sink-repeats`` timing runs so shared-runner noise
cannot flake the gate.

So must telemetry: the serial engine is timed with the process
metrics registry live (tracing off) vs the null registry, and the
instrumented run may cost **at most 90 µs more per trial** with
byte-identical results — the :mod:`repro.obs` contract that telemetry
observes the engine without perturbing it.

Both budgets are absolute because what they bound is: a record costs
what it costs to write however long its trial took to compute.  Until
PR 24 they were shares of trials/sec — ≤5 % and ≤2 % — which divide by
the very time a propagation speed-up removes, so a faster engine failed
gates on code it had not touched.  230 µs and 90 µs are those shares at
the speed they were set against (4.6 ms a trial, PR 23); the shares are
still reported, as ``overhead_fraction``.

Emits a JSON document to stdout and a copy into
``benchmarks/results/trial_throughput.json``.

Run:  PYTHONPATH=src python benchmarks/bench_trial_throughput.py \\
          [--ases 10000] [--trials 24] [--workers 4] [--skip-75k]
"""

from __future__ import annotations

import argparse
import os
import random
import sys
import tempfile
import time
from pathlib import Path

from benchlib import emit_report, phase
from repro.data import TopologyProfile, generate_topology
from repro.obs import NULL_REGISTRY, MetricsRegistry, use_registry
from repro.exper import (
    ExperimentRunner,
    ExperimentSpec,
    MaxLengthLooseRoa,
    MinimalRoa,
    NoRoa,
    PartialCoverageRoa,
    ScenarioCell,
)
from repro.results import JsonlSink

#: Per-trial cost budgets of the two overhead gates, in microseconds
#: (see the module docstring for where the numbers come from).
SINK_BUDGET_US = 230.0
TELEMETRY_BUDGET_US = 90.0


def granularity_spec(trials: int, seed: int) -> ExperimentSpec:
    """The §4/§5 maxLength-granularity sweep: one attack, ten ROA
    postures from minimal to absent."""
    policies = (
        MinimalRoa(),
        MaxLengthLooseRoa(17),
        MaxLengthLooseRoa(18),
        MaxLengthLooseRoa(19),
        MaxLengthLooseRoa(20),
        MaxLengthLooseRoa(22),
        MaxLengthLooseRoa(),
        PartialCoverageRoa(MinimalRoa(), 0.5),
        NoRoa(),
    )
    cells = tuple(
        ScenarioCell("forged-origin-subprefix", policy)
        for policy in policies
    ) + (ScenarioCell("subprefix-hijack", MinimalRoa()),)
    return ExperimentSpec(cells=cells, trials=trials, seed=seed)


def run_engine(topology, spec, executor, workers, shards=None):
    runner = ExperimentRunner(
        topology, spec, executor=executor,
        workers=workers if executor == "sharded" else None,
        shards=shards if executor == "sharded" else None,
    )
    return runner.run(bootstrap_resamples=200)


def timed(label, fn, *args):
    print(f"  {label}...", file=sys.stderr)
    start = time.perf_counter()
    result = fn(*args)
    elapsed = time.perf_counter() - start
    return elapsed, result


def bench_sink_overhead(topology, spec, repeats):
    """Serial trials/sec with and without a JSONL sink attached.

    Interleaved best-of-``repeats`` timing (plain, sink, plain, sink,
    …) so a load spike on a shared runner hits both arms alike; the
    sink writes to a fresh temp file per run.
    """
    total = spec.total_trials
    best = {"plain": None, "sink": None}
    results = {}
    with tempfile.TemporaryDirectory() as tmp:
        for repeat in range(repeats):
            for arm in ("plain", "sink"):
                sink = None
                if arm == "sink":
                    path = Path(tmp) / f"run-{repeat}.jsonl"
                    sink = JsonlSink(path)
                runner = ExperimentRunner(topology, spec, sink=sink)
                start = time.perf_counter()
                results[arm] = runner.run(bootstrap_resamples=200)
                elapsed = time.perf_counter() - start
                if sink is not None:
                    sink.close()
                if best[arm] is None or elapsed < best[arm]:
                    best[arm] = elapsed
    plain_tps = total / best["plain"]
    sink_tps = total / best["sink"]
    return {
        "trials": total,
        "timing_repeats": repeats,
        "plain_wall_seconds": round(best["plain"], 4),
        "plain_trials_per_second": round(plain_tps, 2),
        "sink_wall_seconds": round(best["sink"], 4),
        "sink_trials_per_second": round(sink_tps, 2),
        "overhead_fraction": round(1.0 - sink_tps / plain_tps, 4),
        "cost_us_per_trial": round(
            1e6 * (best["sink"] - best["plain"]) / total, 1
        ),
        "_identical": results["plain"] == results["sink"],
    }


def bench_telemetry_overhead(topology, spec, repeats):
    """Serial trials/sec with telemetry off (null registry) vs on.

    The tentpole's overhead gate: instruments record on every trial,
    sweep, and record release, so "on" pays the real metric cost while
    "off" proves the null-registry fast path skips even the clock
    reads.  Interleaved best-of-``repeats`` timing, like the sink arm
    — but additionally alternating which arm goes first each repeat,
    so CPU warm-up and frequency-scaling transients cannot
    systematically favor one arm of a 90 µs gate; results must be
    byte-identical (telemetry never touches the trial RNG).
    """
    total = spec.total_trials
    best = {"off": None, "on": None}
    results = {}
    for repeat in range(repeats):
        order = ("off", "on") if repeat % 2 == 0 else ("on", "off")
        for arm in order:
            registry = NULL_REGISTRY if arm == "off" else MetricsRegistry()
            with use_registry(registry):
                runner = ExperimentRunner(topology, spec)
                start = time.perf_counter()
                results[arm] = runner.run(bootstrap_resamples=200)
                elapsed = time.perf_counter() - start
            if best[arm] is None or elapsed < best[arm]:
                best[arm] = elapsed
    off_tps = total / best["off"]
    on_tps = total / best["on"]
    return {
        "trials": total,
        "timing_repeats": repeats,
        "off_wall_seconds": round(best["off"], 4),
        "off_trials_per_second": round(off_tps, 2),
        "on_wall_seconds": round(best["on"], 4),
        "on_trials_per_second": round(on_tps, 2),
        "overhead_fraction": round(1.0 - on_tps / off_tps, 4),
        "cost_us_per_trial": round(
            1e6 * (best["on"] - best["off"]) / total, 1
        ),
        "_identical": results["off"] == results["on"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ases", type=int, default=10000,
                        help="topology size for the gated runs")
    parser.add_argument("--trials", type=int, default=48,
                        help="trials per engine/executor combination")
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--seed", type=int, default=2017)
    parser.add_argument("--big-ases", type=int, default=75000,
                        help="CAIDA-scale topology size")
    parser.add_argument("--big-trials", type=int, default=3)
    parser.add_argument("--skip-75k", action="store_true",
                        help="skip the CAIDA-scale run (CI time budget)")
    parser.add_argument("--shards", type=int, default=None,
                        help="shard count of the current engine's "
                             "multi-process arm (default: --workers)")
    parser.add_argument("--sink-repeats", type=int, default=3,
                        help="timing repetitions per sink-overhead arm; "
                             "best run counts")
    parser.add_argument("--telemetry-repeats", type=int, default=10,
                        help="timing repetitions per telemetry-overhead "
                             "arm; best run counts (the telemetry "
                             "budget is tighter than the sink's, so it "
                             "takes more repeats to outrun runner noise)")
    args = parser.parse_args(argv)

    print(f"generating a {args.ases}-AS topology...", file=sys.stderr)
    with phase("setup"):
        topology = generate_topology(
            TopologyProfile(ases=args.ases), random.Random(args.seed)
        )
    spec = granularity_spec(args.trials, args.seed)
    total = spec.total_trials
    workers = args.workers

    runs = {}
    results = {}
    with phase("run"):
        for executor in ("serial", "sharded"):
            elapsed, result = timed(
                f"{executor} ({total} trials x {len(spec.cells)} cells)",
                run_engine, topology, spec, executor, workers,
                args.shards,
            )
            runs[executor] = {
                "wall_seconds": round(elapsed, 4),
                "trials": total,
                "trials_per_second": round(total / elapsed, 2),
            }
            results[executor] = result

    print(
        f"  sink overhead (serial, best of {args.sink_repeats})...",
        file=sys.stderr,
    )
    with phase("run"):
        sink_overhead = bench_sink_overhead(
            topology, spec, args.sink_repeats
        )
    sink_identical = sink_overhead.pop("_identical")

    print(
        f"  telemetry overhead (serial, best of "
        f"{args.telemetry_repeats})...",
        file=sys.stderr,
    )
    with phase("run"):
        telemetry_overhead = bench_telemetry_overhead(
            topology, spec, args.telemetry_repeats
        )
    telemetry_identical = telemetry_overhead.pop("_identical")

    with phase("aggregate"):
        identical = results["serial"] == results["sharded"]

    big_run = None
    if not args.skip_75k:
        print(f"generating a {args.big_ases}-AS topology...",
              file=sys.stderr)
        big_topology = generate_topology(
            TopologyProfile(ases=args.big_ases), random.Random(args.seed)
        )
        big_spec = granularity_spec(args.big_trials, args.seed)
        big_total = big_spec.total_trials
        try:
            elapsed, _ = timed(
                f"serial at {args.big_ases} ASes "
                f"({big_total} trials)",
                run_engine, big_topology, big_spec, "serial", workers,
            )
            big_run = {
                "ases": args.big_ases,
                "trials": big_total,
                "wall_seconds": round(elapsed, 4),
                "trials_per_second": round(big_total / elapsed, 3),
                "succeeded": True,
            }
        except Exception as exc:  # recorded, and fails acceptance below
            big_run = {
                "ases": args.big_ases,
                "succeeded": False,
                "error": f"{type(exc).__name__}: {exc}",
            }

    return emit_report(
        "trial_throughput",
        {
            "topology_ases": args.ases,
            "topology_edges": topology.edge_count(),
            "workers": workers,
            "shards": args.shards or workers,
            "cpu_count": os.cpu_count() or 1,
            "cells": len(spec.cells),
            "runs": runs,
            "sink_overhead": sink_overhead,
            "telemetry_overhead": telemetry_overhead,
            "synthetic_75k": big_run,
        },
        {
            "results_identical": identical,
            "sink_results_identical": sink_identical,
            "sink_cost_lte_230us_per_trial": (
                sink_overhead["cost_us_per_trial"] <= SINK_BUDGET_US
            ),
            "telemetry_results_identical": telemetry_identical,
            "telemetry_cost_lte_90us_per_trial": (
                telemetry_overhead["cost_us_per_trial"]
                <= TELEMETRY_BUDGET_US
            ),
            # null = skipped via --skip-75k
            "caida_scale_run": (
                None if big_run is None else big_run["succeeded"]
            ),
        },
    )


if __name__ == "__main__":
    sys.exit(main())
