"""``repro-roa serve`` — the full serving tier: async high-fanout RTR
distribution plus the origin-validation HTTP/JSON query service;
``--jobs --jobs-store DIR`` upgrades it to the always-on experiment
platform (:mod:`repro.jobs`): ``POST /experiments`` enqueues jobs a
background scheduler executes durably."""

from __future__ import annotations

import argparse
import sys

__all__ = ["COMMANDS"]


def _serve_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("vrps", help="input VRP CSV")
    parser.add_argument("--rtr-host", default="127.0.0.1")
    parser.add_argument("--rtr-port", type=int, default=8282)
    parser.add_argument("--http-host", default="127.0.0.1")
    parser.add_argument("--http-port", type=int, default=8080)
    parser.add_argument("--compress", action="store_true",
                        help="compress before serving")
    parser.add_argument(
        "--results",
        help="directory of recorded runs (a ResultsStore) to serve "
             "on the /experiments endpoints (not with --jobs, which "
             "serves its store's runs/)",
    )
    parser.add_argument(
        "--metrics-interval", type=float, metavar="N",
        help="log a metrics snapshot to stderr every N seconds",
    )
    parser.add_argument(
        "--max-clients", type=int, metavar="N",
        help="load shedding: refuse connections beyond N concurrent "
             "clients per server (RTR closes immediately, HTTP "
             "answers 503; default: unlimited)",
    )
    parser.add_argument(
        "--client-deadline", type=float, metavar="SECS",
        help="evict an RTR client whose socket cannot absorb a write "
             "within SECS (slow-consumer protection; default: wait "
             "forever)",
    )
    parser.add_argument(
        "--drain-timeout", type=float, metavar="SECS",
        help="on SIGTERM, wait up to SECS for in-flight HTTP "
             "requests to finish before closing (default 10)",
    )
    parser.add_argument(
        "--jobs", action="store_true",
        help="run the experiment platform: a durable job queue and "
             "scheduler behind POST /experiments and the /jobs "
             "endpoints (requires --jobs-store)",
    )
    parser.add_argument(
        "--jobs-store", metavar="DIR",
        help="platform directory (queue.jsonl + runs/) backing "
             "--jobs; restarting with the same DIR resumes jobs a "
             "crash left mid-flight",
    )


def _cmd_serve(args: argparse.Namespace) -> int:
    # Imported here so the pure-analysis commands stay socket-free.
    import asyncio

    from ..data.rpki_archive import read_vrp_csv
    from ..serve.http import QueryHttpServer
    from ..serve.metrics import ServeMetrics
    from ..serve.query import QueryService
    from ..serve.rtr_async import AsyncRtrServer

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
        from ..core.compress import compress_vrps

        vrps = compress_vrps(vrps)

    store = None
    scheduler = None
    if args.results:
        from ..results.store import ResultsStore

        store = ResultsStore(args.results)
        print(
            f"results: {len(store.run_ids())} run files in {args.results}"
        )
    if args.jobs:
        from ..faults.plan import install_from_env
        from ..jobs.http import JobsHttpServer
        from ..jobs.scheduler import JobScheduler
        from ..jobs.store import JobStore

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

        from ..obs.metrics import get_registry

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


#: Command name -> (flag declarer, handler); see :mod:`repro.cli`.
COMMANDS = {"serve": (_serve_arguments, _cmd_serve)}
