"""``repro-roa experiment`` — run an attack-effectiveness grid on the
:mod:`repro.exper` engine, from flags or a JSON spec file; with
``--sink`` the run records durably (and ``--resume`` continues an
interrupted recording to a byte-identical result)."""

from __future__ import annotations

import argparse
import sys

from .grid import add_spec_arguments, spec_from_args, topology_from_args

__all__ = ["COMMANDS"]


def _experiment_arguments(parser: argparse.ArgumentParser) -> None:
    add_spec_arguments(parser)
    parser.add_argument("--topology",
                        help="CAIDA relationship file (else synthetic)")
    parser.add_argument("--ases", type=int, default=400,
                        help="synthetic topology size")
    parser.add_argument("--topology-seed", type=int, default=11)
    parser.add_argument("--workers", type=int,
                        help="sharded executor: shard workers in "
                             "flight at once (default: CPU count)")
    parser.add_argument(
        "--shards", type=int, metavar="N",
        help="sharded executor: split the grid into N shards "
             "(default: the worker count; with early stopping, at "
             "least N)",
    )
    parser.add_argument(
        "--shard-store", metavar="DIR",
        help="sharded executor: keep per-shard run files under DIR "
             "(resumable and mergeable with repro-roa results merge; "
             "default: a temporary directory, removed afterwards)",
    )
    parser.add_argument(
        "--shard-hosts", metavar="HOSTS",
        help="sharded executor: dispatch shards to these comma-"
             "separated repro-roa shard-worker hosts (host:port) "
             "instead of local processes",
    )
    parser.add_argument(
        "--shard-retries", type=int, default=2, metavar="N",
        help="sharded executor: retries per shard before the run "
             "fails (default 2)",
    )
    parser.add_argument(
        "--shard-timeout", type=float, default=120.0, metavar="SECS",
        help="sharded executor: reassign a shard after SECS without "
             "progress (default 120)",
    )
    parser.add_argument(
        "--sink",
        help="record every trial durably into this JSONL run file "
             "(appendable, crash-safe; see repro-roa results)",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="continue an interrupted recording in --sink: completed "
             "trials replay instead of re-running, and the final "
             "result is byte-identical to an uninterrupted run",
    )
    parser.add_argument(
        "--progress", action="store_true",
        help="print heartbeat lines (trials/sec, ETA, per-cell "
             "completion) to stderr while the grid runs",
    )
    parser.add_argument(
        "--progress-interval", type=float, default=2.0, metavar="N",
        help="seconds between --progress heartbeats (default 2)",
    )
    parser.add_argument(
        "--trace", metavar="PATH",
        help="record span traces and write them to PATH as Chrome "
             "trace JSON (open in Perfetto / chrome://tracing)",
    )
    parser.add_argument("--emit-spec", action="store_true",
                        help="print the spec as JSON and exit")
    parser.add_argument("--json", action="store_true",
                        help="print the aggregated result as JSON")


def _cmd_experiment(args: argparse.Namespace) -> int:
    import json

    from ..netbase.errors import ReproError

    try:
        spec = spec_from_args(args)
    except (ReproError, OSError, ValueError) as exc:
        # OSError: unreadable --spec file; ValueError: malformed
        # numbers in flags (e.g. --fractions 0,abc).
        print(f"bad experiment spec: {exc}", file=sys.stderr)
        return 2
    if args.emit_spec:
        print(spec.to_json())
        return 0

    from ..exper.runner import ExperimentRunner

    topology = topology_from_args(args)
    sink = None
    if args.sink:
        from ..results.sinks import JsonlSink

        sink = JsonlSink(args.sink)
    elif args.resume:
        print("--resume requires --sink", file=sys.stderr)
        return 2
    reporter = None
    if args.progress:
        from ..obs.progress import ProgressReporter

        reporter = ProgressReporter(
            spec, interval=args.progress_interval
        )
    if args.trace:
        from ..obs.trace import enable_tracing

        enable_tracing()
    shard_transport = None
    if args.shard_hosts:
        from ..serve.shards import HttpShardTransport

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
            from ..obs.trace import disable_tracing, write_chrome_trace

            disable_tracing()
            events = write_chrome_trace(args.trace)
            print(
                f"trace: {events} events -> {args.trace}",
                file=sys.stderr,
            )
    if sink is not None:
        print(f"recorded run: {args.sink}", file=sys.stderr)
    if args.json:
        from ..results.store import result_to_json

        print(json.dumps(result_to_json(result), indent=2))
    else:
        print(result.render())
    return 0


#: Command name -> (flag declarer, handler); see :mod:`repro.cli`.
COMMANDS = {"experiment": (_experiment_arguments, _cmd_experiment)}
