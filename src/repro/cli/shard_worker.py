"""``repro-roa shard-worker`` — execute one shard of a grid into its
own run file, or (``--listen``) serve shards over HTTP to a
``--shard-hosts`` coordinator (see :mod:`repro.exper.sharded`)."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

__all__ = ["COMMANDS"]


def _shard_worker_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--spec", help="JSON ExperimentSpec file (one-shot mode)"
    )
    parser.add_argument(
        "--shard", type=int, metavar="K",
        help="one-shot mode: run shard K of the --shards plan",
    )
    parser.add_argument(
        "--shards", type=int, metavar="N",
        help="one-shot mode: total shard count of the plan",
    )
    parser.add_argument(
        "--out", metavar="PATH",
        help="one-shot mode: stream the shard's records into this "
             "JSONL run file (re-running resumes it)",
    )
    parser.add_argument(
        "--listen", action="store_true",
        help="serve shards over HTTP instead (POST /shards dispatch, "
             "GET /shards/<i> heartbeat, GET /shards/<i>/records)",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0)
    parser.add_argument("--topology",
                        help="CAIDA relationship file (else "
                             "synthetic)")
    parser.add_argument("--ases", type=int, default=400,
                        help="synthetic topology size")
    parser.add_argument("--topology-seed", type=int, default=11)


def _cmd_shard_worker(args: argparse.Namespace) -> int:
    from ..netbase.errors import ReproError
    from .grid import topology_from_args

    if args.listen:
        import time as time_module

        from ..serve.shards import ThreadedShardWorkerServer

        topology = topology_from_args(args)
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
    from ..exper.sharded import plan_shards, run_shard
    from ..exper.spec import ExperimentSpec
    from ..results.sinks import JsonlSink

    try:
        spec = ExperimentSpec.from_json(
            Path(args.spec).read_text(encoding="utf-8")
        )
        topology = topology_from_args(args)
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


#: Command name -> (flag declarer, handler); see :mod:`repro.cli`.
COMMANDS = {"shard-worker": (_shard_worker_arguments, _cmd_shard_worker)}
