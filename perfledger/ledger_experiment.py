"""Experiment workloads: ``grid_10k`` and ``platform_small``.

Both run the same ``repro.exper`` engine through the CLI, used two
ways.  ``grid_10k`` is one expensive grid — the ten-cell §4/§5
maxLength-granularity sweep on a 10 000-AS topology — where
``bgp.fastprop`` does almost all the work.  ``platform_small`` is many
cheap trials — four jobs on a 400-AS topology through ``repro-roa
jobs``, two of them sharded — where per-trial overhead (sampling, mask
build, record construction, JSONL encode, bootstrap, shard
dispatch/merge, job-queue appends) is a large share and propagation a
small one.  A propagation change should move the first and barely
touch the second.

A repetition is timed from outside (exec of the CLI to its exit with
the run file closed).  The traced repetition does in-process what the
CLI does, one public call per layer, each inside a span.
"""

from __future__ import annotations

import dataclasses
import json
import random
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from typing import Dict, List, Sequence

from repro.bgp.fastprop import PropagationWorkspace
from repro.data import TopologyProfile, generate_topology
from repro.exper import (
    ExperimentRunner,
    ExperimentSpec,
    aggregate_records,
    evaluate_trial,
    materialize_trials,
    plan_shards,
    run_shard,
)
from repro.jobs import JobScheduler, JobSpec, JobStore
from repro.obs import MetricsRegistry, use_registry
from repro.results import (
    JsonlSink,
    ResultsStore,
    RunHeader,
    merge_runs,
    result_to_json,
)

from ledger_core import (
    Child,
    LedgerError,
    Outcome,
    SpanRecorder,
    digest,
    fastest,
    repetitions,
    run_cli,
)

#: Share of a plain ``ExperimentRunner.run()`` the traced repetition
#: may leave unattributed to a named layer before the ledger fails
#: (``attribution_ok`` in the report).
MAX_UNATTRIBUTED = 0.05
#: ... or this many seconds, whichever is more: one scheduler hiccup of
#: the box, which at toy sizes is a large share of a 30 ms run.
UNATTRIBUTED_FLOOR_S = 0.025

#: The §4/§5 granularity sweep: one attack against ten ROA postures
#: from minimal to absent, plus the plain subprefix hijack.
_GRID_POLICIES = (
    "minimal", "maxlength-17", "maxlength-18", "maxlength-19",
    "maxlength-20", "maxlength-22", "maxlength-loose",
    {"partial": {"base": "minimal", "coverage": 0.5}}, "none",
)


@dataclass(frozen=True)
class Sizes:
    ases: int
    trials: int            # per validating fraction
    fractions: tuple
    jobs: int = 0
    setups: int = 3


def sizes(workload: str, toy: bool) -> Sizes:
    if workload == "grid_10k":
        if toy:
            return Sizes(300, 2, (0.0, 0.5, 1.0), setups=1)
        return Sizes(10_000, 25, (0.0, 0.5, 1.0))
    if toy:
        return Sizes(120, 3, (0.0, 0.5, 1.0), jobs=2, setups=1)
    return Sizes(400, 50, (0.0, 0.25, 0.5, 0.75, 1.0), jobs=4)


def raw_spec(workload: str, size: Sizes, seed: int) -> dict:
    if workload == "grid_10k":
        cells = [
            {"kind": "forged-origin-subprefix", "policy": policy}
            for policy in _GRID_POLICIES
        ] + [{"kind": "subprefix-hijack", "policy": "minimal"}]
    else:
        cells = [
            {"kind": kind, "policy": policy}
            for kind in ("forged-origin-subprefix", "subprefix-hijack")
            for policy in ("minimal", "maxlength-loose")
        ]
    return {
        "cells": cells,
        "trials": size.trials,
        "seed": seed,
        "fractions": list(size.fractions),
        "engine": "array",
    }


def _record_lines(path: Path) -> int:
    return path.read_bytes().count(b"\n") - 1  # minus the header line


# ----------------------------------------------------------------------
# Set-up, shared
# ----------------------------------------------------------------------


def _set_up(workload: str, size: Sizes, seed: int, work: Path,
            out: Outcome) -> Path:
    """Write the grid and have the CLI itself canonicalise it.

    ``repro-roa experiment --spec raw.json --emit-spec`` validates the
    spec through the program and prints the canonical form — floats as
    floats, every default filled in — which is the file every later
    command reads.  It is also a bare CLI start-up, so the set-up time
    of these workloads is ``cli.startup_ms``.
    """
    raw = work / "raw_spec.json"
    spec_path = work / "spec.json"
    times = []
    for attempt in range(size.setups):
        started = time.perf_counter()
        raw.write_text(json.dumps(raw_spec(workload, size, seed)))
        child = run_cli(
            ["experiment", "--spec", str(raw), "--emit-spec"],
            work, "emit_spec",
        )
        if not child.ok:
            raise LedgerError(
                f"--emit-spec failed: {child.stderr.read_text()}")
        spec_path.write_bytes(child.stdout.read_bytes())
        times.append(time.perf_counter() - started)
    out.metrics["setup_s"] = median(times)
    out.metrics["cli.startup_ms"] = child.wall_s * 1e3
    out.details["setup_s"] = times
    return spec_path


# ----------------------------------------------------------------------
# The traced repetition: one public call per layer
# ----------------------------------------------------------------------


def _workspace_bytes(workspace) -> int:
    """Computed, not measured: Σ len × itemsize over the per-AS arrays
    of the propagation lane every single-attacker trial runs in (a list
    slot counts as one 8-byte pointer, a typed array as its itemsize)."""
    lane = workspace.lane(0)
    total = 0
    for name in getattr(lane, "__slots__", None) or vars(lane):
        value = getattr(lane, name, None)
        if isinstance(value, (bytes, bytearray)):
            total += len(value)
        elif isinstance(value, list):
            total += len(value) * 8
        elif hasattr(value, "itemsize") and hasattr(value, "__len__"):
            total += len(value) * value.itemsize
    return total


def layered_run(spans: SpanRecorder, spec, size: Sizes, topology_seed: int,
                sink_path: Path, out: Outcome) -> None:
    """``repro-roa experiment`` taken apart into its layers.

    Fills the per-layer metrics of groups 1–4 (propagation, topology,
    sampling, sink/aggregate/render), then times one plain
    ``ExperimentRunner.run()`` of the same spec and reports what the
    layers leave unattributed.
    """
    m = out.metrics
    registry = MetricsRegistry()
    with use_registry(registry), spans.span("exper.layered_run"):
        with spans.span("data.generate_topology", ases=size.ases):
            topology = generate_topology(
                TopologyProfile(ases=size.ases),
                random.Random(topology_seed),
            )
        with spans.span("bgp.topology.compile"):
            compiled = topology.compiled()
        blob_bytes = len(compiled.to_blob())
        with spans.span("exper.spec.materialize") as span:
            trials = materialize_trials(spec, topology)
            span.counts["trials"] = len(trials)
        with spans.span("bgp.fastprop.workspace_init"):
            workspace = PropagationWorkspace(compiled)
        sink = JsonlSink(sink_path)
        with spans.span("results.sinks.write"):
            sink.begin(RunHeader.for_spec(spec, topology))
        records = []
        for trial in trials:
            with spans.span("bgp.fastprop.evaluate"):
                produced = evaluate_trial(
                    compiled, spec, trial, workspace=workspace)
            with spans.span("results.sinks.write", records=len(produced)):
                for record in produced:
                    sink.write(record)
            records.extend(produced)
        with spans.span("results.sinks.write"):
            sink.finish((spec.trials,) * len(spec.fractions))
            sink.close()
        with spans.span("exper.aggregate"):
            result = aggregate_records(spec, records)
        with spans.span("results.store.render"):
            rendered = json.dumps(result_to_json(result), indent=2)
    out.details["rendered_json_bytes"] = len(rendered)

    counters = registry.snapshot()
    evaluate = spans.durations("bgp.fastprop.evaluate")
    m["bgp.fastprop.evaluate_busy_s"] = sum(evaluate)
    m["bgp.fastprop.trial_p50_ms"] = median(evaluate) * 1e3
    out.tail("bgp.fastprop.trial_p80_ms", evaluate, 0.80, 1e3)
    m["bgp.fastprop.workspace_init_s"] = spans.busy(
        "bgp.fastprop.workspace_init")
    for name in ("sweeps", "touched_ases", "mask_builds",
                 "profile_hits", "profile_misses"):
        m[f"bgp.fastprop.{name}"] = counters.get(f"fastprop.{name}", 0)
    lookups = m["bgp.fastprop.profile_hits"] + m[
        "bgp.fastprop.profile_misses"]
    m["bgp.fastprop.profile_hit_ratio"] = (
        m["bgp.fastprop.profile_hits"] / lookups if lookups else 0.0
    )
    m["bgp.fastprop.workspace_bytes"] = _workspace_bytes(workspace)
    m["data.generate_topology_s"] = spans.busy("data.generate_topology")
    m["bgp.topology.compile_s"] = spans.busy("bgp.topology.compile")
    m["bgp.topology.blob_bytes"] = blob_bytes
    m["exper.spec.materialize_s"] = spans.busy("exper.spec.materialize")
    m["exper.spec.trials"] = len(trials)
    m["results.sinks.write_s"] = spans.busy("results.sinks.write")
    m["results.sinks.records"] = counters.get("results.records_written", 0)
    m["results.sinks.bytes"] = counters.get("results.bytes_written", 0)
    m["exper.aggregate.busy_s"] = spans.busy("exper.aggregate")
    m["results.store.render_s"] = spans.busy("results.store.render")

    # A plain run on the same (already compiled) topology: whatever its
    # wall exceeds the layers by is runner glue nobody has named.  This
    # box's timing noise is of the order of the 5 % limit, and noise
    # only ever adds time, so an apparent excess is re-measured (up to
    # five plain runs or 8 s of them, the fastest counts); layers that
    # sum to *more* than the plain wall are noise in the layered pass,
    # not a failure.
    attributed = sum(
        m[name] for name in (
            "exper.spec.materialize_s", "bgp.fastprop.workspace_init_s",
            "bgp.fastprop.evaluate_busy_s", "results.sinks.write_s",
            "exper.aggregate.busy_s",
        )
    )
    plain_path = sink_path.with_name(sink_path.stem + "_plain.jsonl")
    plain_walls: List[float] = []
    while True:
        plain_path.unlink(missing_ok=True)
        plain_sink = JsonlSink(plain_path)
        with spans.span("exper.runner.plain_run") as plain:
            try:
                ExperimentRunner(
                    topology, spec, executor="serial", sink=plain_sink
                ).run()
            finally:
                plain_sink.close()
        plain_walls.append(plain.seconds)
        wall = min(plain_walls)
        allowed = max(MAX_UNATTRIBUTED * wall, UNATTRIBUTED_FLOOR_S)
        if (wall - attributed <= allowed or len(plain_walls) == 5
                or sum(plain_walls) > 8.0):
            break
    m["exper.runner.unattributed_s"] = wall - attributed
    out.details["plain_run_s"] = plain_walls
    out.details["unattributed_share"] = (wall - attributed) / wall
    # A verdict on the measurement, not on the program's output: it is
    # kept apart from the output checks, so that timing noise can never
    # make a run report wrong results.  The whole-ledger command and
    # the smoke test fail on it.
    out.details["attribution_ok"] = wall - attributed <= allowed
    if not out.details["attribution_ok"]:
        out.details["attribution_problem"] = (
            f"layers leave {out.details['unattributed_share']:.1%} of the "
            f"plain runner wall unattributed (limit {MAX_UNATTRIBUTED:.0%})"
        )
    out.check(digest(plain_path) == digest(sink_path),
              "layered run file differs from the plain runner's")


# ----------------------------------------------------------------------
# grid_10k
# ----------------------------------------------------------------------


def _grid_rep(index: int, size: Sizes, seed: int, spec_path: Path,
              work: Path) -> Child:
    return run_cli(
        ["experiment", "--spec", str(spec_path),
         "--ases", str(size.ases), "--topology-seed", str(seed),
         "--executor", "serial", "--engine", "array",
         "--sink", str(work / f"run{index}.jsonl"), "--json"],
        work, f"rep{index}",
    )


def run_grid(seed: int, seconds: float, trace: bool, work: Path,
             toy: bool) -> Outcome:
    size = sizes("grid_10k", toy)
    out = Outcome()
    spans = SpanRecorder()
    spec_path = _set_up("grid_10k", size, seed, work, out)
    spec = ExperimentSpec.from_json(spec_path.read_text())
    cells = len(spec.cells)
    out.details["sizes"] = {
        "ases": size.ases, "cells": cells,
        "fractions": list(size.fractions),
        "trials_per_fraction": size.trials,
        "trials": spec.total_trials,
    }

    def repeat(index: int) -> Child:
        child = _grid_rep(index, size, seed, spec_path, work)
        out.check(child.ok, f"rep {index}: CLI exit {child.returncode}")
        return child

    reps: List[Child] = repetitions(repeat, seconds, just_one=trace)
    first = work / "run0.jsonl"
    out.check(_record_lines(first) == spec.total_trials * cells,
              "run file record count is not trials × cells")
    for index in range(1, len(reps)):
        out.check(digest(work / f"run{index}.jsonl") == digest(first),
                  f"run file of rep {index} differs from rep 0")
        out.check(reps[index].stdout.read_bytes()
                  == reps[0].stdout.read_bytes(),
                  f"--json output of rep {index} differs from rep 0")

    walls = [child.wall_s for child in reps]
    out.metrics["work_per_s"] = spec.total_trials / fastest(walls)
    out.metrics["op_latency_ms"] = fastest(walls) * 1e3
    out.metrics["peak_rss_mb"] = median([child.rss_mb for child in reps])
    out.details["wall_s"] = walls

    if trace:
        spans.rep = len(reps)
        traced = work / "traced.jsonl"
        started = time.perf_counter()
        layered_run(spans, spec, size, seed, traced, out)
        out.check(digest(traced) == digest(first),
                  "traced in-process run file differs from the CLI's")
        # The traced repetition also ran the plain runner; compare
        # like with like: the layered pass alone against one CLI rep.
        layered = spans.busy("exper.layered_run")
        out.metrics["trace.overhead_share"] = (
            (layered + out.metrics["cli.startup_ms"] / 1e3)
            / fastest(walls)
        )
        out.details["traced_s"] = time.perf_counter() - started
        out.details["spans"] = spans.summary()
    return out


# ----------------------------------------------------------------------
# platform_small
# ----------------------------------------------------------------------


def _job_sharded(job: int) -> bool:
    return job % 2 == 1  # every second job: 2 and 4 of four


def _platform_rep(index: int, size: Sizes, seed: int,
                  job_specs: Sequence[Path], work: Path) -> Dict[str, object]:
    store = work / f"store{index}"
    children: List[Child] = []
    started = time.perf_counter()
    for job, spec_path in enumerate(job_specs):
        extra = (["--executor", "sharded", "--shards", "2"]
                 if _job_sharded(job) else [])
        children.append(run_cli(
            ["jobs", "submit", "--store", str(store),
             "--spec", str(spec_path), "--ases", str(size.ases),
             "--topology-seed", str(seed), *extra],
            work, f"rep{index}_submit{job}",
        ))
    children.append(run_cli(
        ["jobs", "run", "--store", str(store)], work, f"rep{index}_run"))
    return {
        "store": store,
        "children": children,
        "wall_s": time.perf_counter() - started,
        "rss_mb": max(child.rss_mb for child in children),
    }


def run_platform(seed: int, seconds: float, trace: bool, work: Path,
                 toy: bool) -> Outcome:
    size = sizes("platform_small", toy)
    out = Outcome()
    spans = SpanRecorder()
    base_path = _set_up("platform_small", size, seed, work, out)
    base = json.loads(base_path.read_text())
    job_paths = []
    for job in range(size.jobs):
        path = work / f"job{job}.json"
        path.write_text(json.dumps(dict(base, seed=seed + job)))
        job_paths.append(path)
    specs = [ExperimentSpec.from_json(p.read_text()) for p in job_paths]
    cells = len(specs[0].cells)
    total_trials = sum(spec.total_trials for spec in specs)
    out.details["sizes"] = {
        "ases": size.ases, "jobs": size.jobs, "cells": cells,
        "fractions": list(size.fractions),
        "trials_per_fraction": size.trials,
        "trials": total_trials,
        "sharded_jobs": sum(map(_job_sharded, range(size.jobs))),
        "shards": 2,
    }

    def repeat(index: int) -> Dict[str, object]:
        rep = _platform_rep(index, size, seed, job_paths, work)
        for child in rep["children"]:
            out.check(child.ok, f"rep {index}: {child.argv[:2]} "
                                f"exit {child.returncode}")
        states = JobStore(rep["store"]).jobs()
        out.check(
            len(states) == size.jobs
            and all(s.status == "done" for s in states.values()),
            f"rep {index}: not every job is done",
        )
        return rep

    reps = repetitions(repeat, seconds, just_one=trace)

    def run_file(rep: Dict[str, object], job: int) -> Path:
        return rep["store"] / "runs" / f"job-{job + 1:06d}.jsonl"

    for job, spec in enumerate(specs):
        out.check(
            _record_lines(run_file(reps[0], job))
            == spec.total_trials * cells,
            f"job {job + 1}: record count is not trials × cells",
        )
        for index in range(1, len(reps)):
            out.check(
                digest(run_file(reps[index], job))
                == digest(run_file(reps[0], job)),
                f"job {job + 1}: run file of rep {index} differs",
            )

    walls = [rep["wall_s"] for rep in reps]
    out.metrics["work_per_s"] = total_trials / fastest(walls)
    out.metrics["op_latency_ms"] = fastest(walls) * 1e3
    out.metrics["peak_rss_mb"] = median([rep["rss_mb"] for rep in reps])
    out.details["wall_s"] = walls

    if trace:
        spans.rep = len(reps)
        started = time.perf_counter()
        layered_run(spans, specs[0], size, seed, work / "traced.jsonl", out)
        out.check(digest(work / "traced.jsonl")
                  == digest(run_file(reps[0], 0)),
                  "traced in-process run file differs from job 1's")
        _traced_platform(spans, specs, size, seed, work, out,
                         [run_file(reps[0], job)
                          for job in range(size.jobs)])
        out.metrics["trace.overhead_share"] = (
            (time.perf_counter() - started) / fastest(walls))
        out.details["spans"] = spans.summary()
    return out


def _traced_platform(spans: SpanRecorder, specs: Sequence, size: Sizes,
                     seed: int, work: Path, out: Outcome,
                     cli_runs: Sequence[Path]) -> None:
    """The layers only ``platform_small`` has: shards and the job queue."""
    m = out.metrics
    registry = MetricsRegistry()

    def job_spec(job: int) -> JobSpec:
        spec = specs[job]
        if _job_sharded(job):
            spec = dataclasses.replace(spec, executor="sharded")
        return JobSpec(
            spec=spec, ases=size.ases, topology_seed=seed,
            shards=2 if _job_sharded(job) else None,
        )

    # Direct runs of all four specs: the byte-identity reference for
    # the scheduler's run files (invariants 6 and 8) and the baseline
    # the scheduler's overhead is measured against.
    direct_walls = []
    direct_store = ResultsStore(work / "direct")
    with use_registry(registry):
        for job in range(size.jobs):
            spec = job_spec(job)
            sink = direct_store.sink(f"job{job}")
            with spans.span("exper.runner.direct_run", job=job) as span:
                try:
                    topology = spec.build_topology()
                    ExperimentRunner(
                        topology, spec.spec, shards=spec.shards, sink=sink,
                    ).run()
                finally:
                    sink.close()
            direct_walls.append(span.seconds)
            out.check(
                digest(direct_store.path(f"job{job}"))
                == digest(cli_runs[job]),
                f"job {job + 1}: scheduler run file differs from the "
                f"direct ExperimentRunner run",
            )

        # The sharded executor, taken apart on job 2's spec.
        sharded = job_spec(1)
        topology = sharded.build_topology()
        compiled = topology.compiled()
        with spans.span("exper.sharded.plan"):
            plan = plan_shards(sharded.spec, 2)
        shard_store = ResultsStore(work / "shards")
        workspace = PropagationWorkspace(compiled)
        shard_paths = []
        for shard in plan:
            sink = shard_store.sink(shard.run_id("traced"))
            with spans.span("exper.sharded.shard", shard=shard.shard_index):
                try:
                    run_shard(topology, sharded.spec, shard, sink=sink,
                              eval_topology=compiled, workspace=workspace)
                finally:
                    sink.close()
            shard_paths.append(sink.path)
        with spans.span("results.store.merge"):
            merge_runs(work / "merged.jsonl", shard_paths)
        out.check(digest(work / "merged.jsonl") == digest(cli_runs[1]),
                  "merged shard runs differ from job 2's run file")
        m["exper.sharded.coordinator_wall_s"] = direct_walls[1]

        # The job queue and scheduler, in-process, with the store's
        # own calls timed where they happen.
        class TimedStore(JobStore):
            def enqueue(self, spec):
                with spans.span("jobs.store.enqueue"):
                    return super().enqueue(spec)

            def mark(self, job_id, event, detail=""):
                with spans.span("jobs.store.mark"):
                    return super().mark(job_id, event, detail)

            def jobs(self):
                with spans.span("jobs.store.fold"):
                    return super().jobs()

        store = TimedStore(work / "traced_store")
        scheduler = JobScheduler(store, registry=registry)
        for job in range(size.jobs):
            scheduler.submit(job_spec(job))
        with spans.span("jobs.scheduler.run_pending") as pending:
            executed = scheduler.run_pending()
        out.check(executed == size.jobs,
                  f"in-process scheduler executed {executed} jobs")

    counters = registry.snapshot()
    m["exper.sharded.plan_s"] = spans.busy("exper.sharded.plan")
    m["exper.sharded.shard_busy_s"] = spans.busy("exper.sharded.shard")
    m["results.store.merge_s"] = spans.busy("results.store.merge")
    m["exper.sharded.shards_retried"] = counters.get(
        "exper.shards_retried", 0)
    m["exper.sharded.shards_failed"] = counters.get(
        "exper.shards_failed", 0)
    for call in ("enqueue", "mark", "fold"):
        m[f"jobs.store.{call}_ms"] = median(
            spans.durations(f"jobs.store.{call}")) * 1e3
    m["jobs.scheduler.job_overhead_ms"] = (
        (pending.seconds - sum(direct_walls)) / size.jobs * 1e3)
    out.details["direct_run_s"] = direct_walls
    out.details["run_pending_s"] = pending.seconds
