"""``repro-roa jobs`` — the experiment platform's client and offline
drain (:mod:`repro.jobs`): ``submit``/``list``/``show``/``cancel``/
``diff`` against either a local ``--store`` directory or a running
``serve --jobs`` instance via ``--server``, and ``run`` to drain a
store's pending jobs in the foreground (also the crash-recovery path —
interrupted jobs resume to byte-identical runs)."""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from .grid import add_spec_arguments, spec_from_args

__all__ = ["COMMANDS"]


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


def _jobs_arguments(parser: argparse.ArgumentParser) -> None:
    jobs_sub = parser.add_subparsers(dest="jobs_command", required=True)

    submit = jobs_sub.add_parser(
        "submit", help="enqueue an experiment job (flags as in "
                       "repro-roa experiment)",
    )
    _target_arguments(submit)
    add_spec_arguments(submit)
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


def _job_spec_from_args(args: argparse.Namespace):
    from ..jobs.model import JobSpec

    return JobSpec(
        spec=spec_from_args(args),
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

    from ..netbase.errors import ReproError

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

    from ..jobs.scheduler import JobScheduler
    from ..jobs.store import JobStore

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
        from ..results.store import run_diff_document

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
    from ..faults.plan import install_from_env

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
    from ..netbase.errors import ReproError

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


#: Command name -> (flag declarer, handler); see :mod:`repro.cli`.
COMMANDS = {"jobs": (_jobs_arguments, _cmd_jobs)}
