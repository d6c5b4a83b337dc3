"""The experiment platform's HTTP control plane.

:class:`JobsHttpServer` extends the serve tier's
:class:`~repro.serve.http.QueryHttpServer` (it lives up here, not in
``repro.serve``, because jobs sit *above* serve in the import
layering) with the write side of the platform:

* ``POST /experiments`` — enqueue a job: ``{"spec": {...}, "run":
  ..., "ases": ..., "topology_seed": ..., "workers": ..., "shards":
  ...}`` (only ``spec`` required) → 201 with the job and run ids.
* ``GET /jobs`` — every job's folded state.
* ``GET /jobs/<id>`` — one job.
* ``DELETE /jobs/<id>`` — cancel (404 unknown, 409 already terminal).

Everything read-only — ``/experiments``, ``/experiments/<run>/ci``,
``/diff``, ``/validity``, ``/metrics`` — is inherited: the server is
constructed around the scheduler's results store, so a job's run
shows on ``GET /experiments/<run>`` from its first durable line, and
on ``/ci`` and ``/diff`` once it holds a complete trial.  Its
``status`` is ``"running"`` while the queue file says its job is, and
``"finished"`` otherwise; a sharded job executed by this server's
scheduler adds its per-shard progress as ``"shards"``.
"""

from __future__ import annotations

import json
from typing import Dict, Optional, Tuple
from urllib.parse import unquote

from ..netbase.errors import ReproError
from ..serve.http import Answer, HttpRequestError, QueryHttpServer
from ..serve.metrics import ServeMetrics
from ..serve.query import QueryService
from .model import JobSpec
from .scheduler import JobScheduler

__all__ = ["JobsHttpServer"]


class JobsHttpServer(QueryHttpServer):
    """The always-on platform front end: query serving + job control.

    The attached :class:`~repro.jobs.scheduler.JobScheduler` supplies
    the results store behind every ``/experiments`` endpoint and
    ``/diff``, the queue that says which runs are still recording,
    and the per-shard progress of the sharded jobs it executes.
    """

    def __init__(
        self,
        service: QueryService,
        scheduler: JobScheduler,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        metrics: Optional[ServeMetrics] = None,
        max_clients: Optional[int] = None,
        idle_timeout: Optional[float] = None,
        drain_timeout: Optional[float] = None,
    ) -> None:
        super().__init__(
            service,
            host=host,
            port=port,
            metrics=metrics,
            store=scheduler.results,
            max_clients=max_clients,
            idle_timeout=idle_timeout,
            drain_timeout=drain_timeout,
        )
        self.scheduler = scheduler

    def _running(self) -> frozenset:
        return frozenset(
            state.spec.run
            for state in self.scheduler.store.jobs().values()
            if state.status == "running"
        )

    def _shards(self, run_id: str) -> Optional[dict]:
        return self.scheduler.shards(run_id)

    def _route(
        self, method: str, path: str, query: str, body: bytes
    ) -> Answer:
        if path == "/experiments" and method == "POST":
            return self._submit(body)
        if path == "/jobs" or path.startswith("/jobs/"):
            return self._jobs(method, path)
        return super()._route(method, path, query, body)

    # ------------------------------------------------------------------
    # Handlers
    # ------------------------------------------------------------------

    def _submit(self, body: bytes) -> Tuple[int, Dict[str, object]]:
        """``POST /experiments``: parse, enqueue, 201."""
        try:
            document = json.loads(body or b"{}")
        except json.JSONDecodeError as exc:
            raise HttpRequestError(f"invalid JSON body: {exc}")
        if not isinstance(document, dict) or "spec" not in document:
            raise HttpRequestError(
                'body must be {"spec": {...}, ...} '
                "(an ExperimentSpec plus optional run/ases/"
                "topology_seed/workers/shards)"
            )
        try:
            spec = JobSpec.from_json_dict(document)
            job_id = self.scheduler.submit(spec)
        except (ReproError, ValueError, TypeError) as exc:
            raise HttpRequestError(f"bad job spec: {exc}")
        state = self.scheduler.store.job(job_id)
        return 201, {
            "job": job_id,
            "run": None if state is None else state.spec.run,
            "status": "queued",
        }

    def _jobs(
        self, method: str, path: str
    ) -> Tuple[int, Dict[str, object]]:
        """The ``/jobs`` family: list, show, cancel."""
        if path == "/jobs":
            if method != "GET":
                return 405, {"error": f"{method} not allowed on /jobs"}
            return 200, {
                "jobs": [
                    state.summary()
                    for _, state in sorted(
                        self.scheduler.store.jobs().items()
                    )
                ]
            }
        job_id = unquote(path[len("/jobs/"):])
        state = self.scheduler.store.job(job_id)
        if state is None:
            return 404, {"error": f"no job named {job_id!r}"}
        if method == "GET":
            return 200, state.summary()
        if method == "DELETE":
            if not state.pending:
                return 409, {
                    "error": f"job {job_id} already {state.status}"
                }
            self.scheduler.cancel(job_id)
            return 200, {"job": job_id, "status": "cancelled"}
        return 405, {"error": f"{method} not allowed on {path}"}
