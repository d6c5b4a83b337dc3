"""``repro-roa chaos`` — seeded fault-injection drills
(:mod:`repro.faults`): a sharded experiment under worker crashes and
sink IO errors whose output is byte-identical to a fault-free serial
run, or the HTTP tier under connection faults plus a graceful-drain
health-flip check; ``--emit-plan`` prints the deterministic fault
plan."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

__all__ = ["COMMANDS"]


def _chaos_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=7,
                        help="fault-plan seed (same seed, same faults)")
    parser.add_argument(
        "--plan", metavar="FILE",
        help="JSON FaultPlan file to install (instead of generating "
             "one from --seed)",
    )
    parser.add_argument(
        "--emit-plan", action="store_true",
        help="print the fault plan as JSON and exit (no drill)",
    )
    parser.add_argument(
        "--drill", choices=("experiment", "serve"), default="experiment",
        help="experiment: sharded grid run under worker faults, "
             "result identical to a fault-free serial run; serve: "
             "HTTP tier under request faults plus a graceful-drain "
             "health-flip check (default experiment)",
    )
    parser.add_argument("--rules", type=int, default=2,
                        help="rules per generated plan (default 2)")
    parser.add_argument("--trials", type=int, default=12)
    parser.add_argument("--spec-seed", type=int, default=0,
                        help="experiment grid seed (default 0, matching "
                             "repro-roa experiment)")
    parser.add_argument("--ases", type=int, default=150,
                        help="synthetic topology size")
    parser.add_argument("--topology-seed", type=int, default=11)
    parser.add_argument("--shards", type=int, default=3)
    parser.add_argument(
        "--shard-store", metavar="DIR",
        help="keep per-shard run files under DIR (default: temporary)",
    )
    parser.add_argument(
        "--sink", metavar="PATH",
        help="record the drilled run into this JSONL file — "
             "byte-identical to a fault-free serial recording",
    )
    parser.add_argument("--json", action="store_true",
                        help="print the drill result as JSON")


def _chaos_plan(args: argparse.Namespace):
    from ..faults.plan import FaultPlan

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
    from .grid import add_spec_arguments, spec_from_args

    parser = argparse.ArgumentParser(add_help=False)
    add_spec_arguments(parser)
    return spec_from_args(parser.parse_args(
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

    from ..exper.runner import ExperimentRunner
    from ..faults.plan import PLAN_ENV, install
    from ..netbase.errors import ReproError
    from .grid import topology_from_args

    spec = _chaos_spec(args)
    topology = topology_from_args(args)
    # Ship the plan to shard workers through the environment (local
    # processes inherit it; install_from_env() gives each attempt
    # fresh hit counters) and install it here for any in-process path.
    os_module.environ[PLAN_ENV] = plan.to_json()
    install(plan)
    sink = None
    if args.sink:
        from ..results.sinks import JsonlSink

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
    from ..obs.metrics import get_registry

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
        from ..results.store import result_to_json

        print(json.dumps(result_to_json(result), indent=2))
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

    from ..faults.plan import install
    from ..netbase.prefix import Prefix
    from ..rpki.vrp import Vrp
    from ..serve.http import QueryHttpServer
    from ..serve.query import QueryService

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
    from ..netbase.errors import ReproError

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


#: Command name -> (flag declarer, handler); see :mod:`repro.cli`.
COMMANDS = {"chaos": (_chaos_arguments, _cmd_chaos)}
