"""Remote shard workers over the serve tier's HTTP channel.

The sharded executor (:mod:`repro.exper.sharded`) is transport-
agnostic: its coordinator drives any object with ``start`` / ``poll``
/ ``stop`` / ``collect``.  This module supplies the multi-host
implementation of that contract:

* :class:`ShardWorkerServer` — an asyncio HTTP server that holds one
  AS topology and executes dispatched shards on worker threads,
  streaming each into a local JSONL run file:

  - ``POST /shards`` — dispatch: ``{"shard": ..., "header": ...,
    "attempt": N, "finished": [[f, t], ...]}``.  The header carries
    the full spec *and* the topology digest; a digest mismatch is
    refused, so a worker can never silently evaluate the wrong world.
  - ``GET /shards`` / ``GET /shards/<i>`` — status and heartbeat
    (state, records written, seconds since the last record).
  - ``GET /shards/<i>/records`` — the shard's JSONL records.
  - ``POST /shards/<i>/cancel`` — stop a running shard.
  - ``GET /status`` — topology digest and shard count.

* :class:`ThreadedShardWorkerServer` — the synchronous facade over a
  private :class:`~repro.netbase.loopthread.LoopThread`.

* :class:`HttpShardTransport` — the coordinator-side client.  Shard
  *k*, attempt *a* lands on host ``(k + a) % len(hosts)``, so a retry
  after a dead or unreachable host is automatically a *reassignment*
  to the next one.  Completed shard records are downloaded to the
  coordinator's local shard store, after which merging, resume, and
  byte-identity work exactly as in the local-process case.

Workers install any :data:`~repro.faults.PLAN_ENV` fault plan (in the
*server's* environment) at start and fire the same
``exper.shard.record`` site local workers do — which is how the
fault-injection tests exercise this path.  Hardening
(connection caps, drain, ``/healthz``) comes from
:class:`~repro.serve.http.HttpServerBase`.
"""

from __future__ import annotations

import asyncio
import json
import time
import urllib.error
import urllib.request
from pathlib import Path
from tempfile import mkdtemp
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..exper.evaluate import RECORD_RULE
from ..exper.sharded import Shard, run_shard
from ..exper.spec import ExperimentSpec
from ..faults.plan import fire, install_from_env
from ..faults.retry import RetryPolicy
from ..netbase.codec import Field, decode, encode, many, nested
from ..netbase.errors import ReproError
from ..netbase.loopthread import LoopThread
from ..results.sinks import (
    JsonlSink,
    RunHeader,
    check_header_compatible,
    topology_digest,
)
from .http import HttpRequestError, HttpServerBase, TextPayload
from .metrics import ServeMetrics

__all__ = [
    "HttpShardTransport",
    "ShardWorkerServer",
    "ThreadedShardWorkerServer",
]

#: Content type of the ``/shards/<i>/records`` JSONL download.
_JSONL_CONTENT_TYPE = "application/x-ndjson"

#: The ``POST /shards`` body: :class:`HttpShardTransport` writes it,
#: :class:`ShardWorkerServer` reads it.
_DISPATCH_FIELDS = (
    Field("shard", nested(Shard)),
    Field("header", nested(RunHeader)),
    Field("attempt", int, 0, check=(0).__le__),
    Field("finished", many(many(int, 2)), ()),
)


class _WorkerJob:
    """One dispatched shard on a worker: state shared between the
    executor thread that runs it and the event loop that reports it."""

    __slots__ = (
        "shard", "attempt", "path", "state", "reason", "records",
        "beat", "cancelled", "future",
    )

    def __init__(self, shard: Shard, attempt: int, path: Path) -> None:
        self.shard = shard
        self.attempt = attempt
        self.path = path
        self.state = "running"
        self.reason: Optional[str] = None
        self.records = 0
        self.beat = time.monotonic()
        self.cancelled = False
        self.future: Optional[asyncio.Future] = None

    def status(self) -> Dict[str, object]:
        age = (
            time.monotonic() - self.beat
            if self.state == "running" else None
        )
        return {
            "shard": self.shard.shard_index,
            "attempt": self.attempt,
            "state": self.state,
            "records": self.records,
            "age": age,
            "reason": self.reason,
        }


class ShardWorkerServer(HttpServerBase):
    """Execute dispatched experiment shards over HTTP.

    One server holds one topology (the heavyweight thing worth
    pre-placing on a host); every dispatch carries its own spec, shard
    slice, and run header, so one worker serves any number of grids
    over that topology.  Shard evaluation runs in the default thread
    executor — the event loop stays free for status polls, which is
    what makes the coordinator's heartbeat monitoring work.
    Connection handling, load shedding, drain, and the health
    endpoints come from :class:`~repro.serve.http.HttpServerBase`.
    """

    def __init__(
        self,
        topology,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        workdir: Optional[str] = None,
        metrics: Optional[ServeMetrics] = None,
        max_clients: Optional[int] = None,
        idle_timeout: Optional[float] = None,
        drain_timeout: Optional[float] = None,
    ) -> None:
        super().__init__(
            host=host,
            port=port,
            metrics=metrics,
            max_clients=max_clients,
            idle_timeout=idle_timeout,
            drain_timeout=drain_timeout,
        )
        self.topology = topology
        self.topology_hash = topology_digest(topology)
        self._workdir = Path(workdir) if workdir is not None else None
        self._own_workdir: Optional[Path] = None
        self._jobs: Dict[int, _WorkerJob] = {}

    async def start(self) -> "ShardWorkerServer":
        # A worker launched under a fault plan honors it: fresh parse,
        # fresh hit counters, deterministic per process.
        install_from_env()
        await super().start()
        # After the bind, so a failed start leaves no directory behind.
        if self._workdir is None:
            self._own_workdir = Path(mkdtemp(prefix="repro-shard-worker-"))
            self._workdir = self._own_workdir
        return self

    async def close(self) -> None:
        for job in self._jobs.values():
            job.cancelled = True
        futures = [
            job.future for job in self._jobs.values()
            if job.future is not None and not job.future.done()
        ]
        stuck: set = set()
        if futures:
            _, pending = await asyncio.wait(futures, timeout=5)
            if pending:
                # Jobs that ignored the cancelled flag: cancel their
                # futures outright and wait again — close() must not
                # leak still-running shard evaluations.
                for future in pending:
                    future.cancel()
                _, stuck = await asyncio.wait(pending, timeout=5)
        await super().close()
        if self._own_workdir is not None:
            import shutil

            await asyncio.get_running_loop().run_in_executor(
                None, shutil.rmtree, self._own_workdir, True)
            # Forget the path too: a restart makes (and removes) its own.
            self._own_workdir = self._workdir = None
        if stuck:
            raise ReproError(
                f"{len(stuck)} shard job(s) still running after close "
                f"cancelled them"
            )

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    async def _route(
        self, method: str, path: str, body: bytes
    ) -> Tuple[int, object]:
        if path == "/shards" and method == "POST":
            return await self._dispatch(body)
        if path == "/shards" and method == "GET":
            return 200, {
                "shards": [
                    self._jobs[index].status()
                    for index in sorted(self._jobs)
                ]
            }
        if path == "/status" and method == "GET":
            return 200, {
                "topology_hash": self.topology_hash,
                "shards": len(self._jobs),
            }
        if path.startswith("/shards/"):
            return await self._shard_route(method, path)
        if path in ("/shards", "/status"):
            return 405, {"error": f"{method} not allowed on {path}"}
        return 404, {"error": f"no such endpoint {path}"}

    async def _shard_route(
        self, method: str, path: str
    ) -> Tuple[int, object]:
        parts = path[len("/shards/"):].split("/")
        try:
            index = int(parts[0])
        except ValueError:
            raise HttpRequestError(f"bad shard index {parts[0]!r}")
        job = self._jobs.get(index)
        if job is None:
            return 404, {"error": f"no shard {index} on this worker"}
        if len(parts) == 1 and method == "GET":
            return 200, job.status()
        if parts[1:] == ["records"] and method == "GET":
            loop = asyncio.get_running_loop()
            try:
                text = await loop.run_in_executor(
                    None, _read_text, job.path)
            except OSError:
                return 404, {
                    "error": f"shard {index} has no records yet"
                }
            return 200, TextPayload(text, _JSONL_CONTENT_TYPE)
        if parts[1:] == ["cancel"] and method == "POST":
            if job.state == "running":
                job.cancelled = True
            return 200, job.status()
        return 404, {"error": f"no such endpoint {path}"}

    async def _dispatch(self, body: bytes) -> Tuple[int, object]:
        try:
            document = json.loads(body or b"{}")
        except json.JSONDecodeError as exc:
            raise HttpRequestError(f"invalid JSON body: {exc}")
        try:
            values = decode("dispatch body", _DISPATCH_FIELDS, document)
            shard, header = values["shard"], values["header"]
            # What this worker records is of its own topology and rule.
            check_header_compatible(RunHeader(
                header.spec_hash, header.spec, self.topology_hash,
                RECORD_RULE,
            ), header, "this shard worker")
        except ReproError as exc:
            raise HttpRequestError(str(exc))
        attempt, finished = values["attempt"], frozenset(values["finished"])
        spec = header.experiment_spec()
        fire(
            "serve.shards.dispatch",
            shard=shard.shard_index,
            attempt=attempt,
        )
        existing = self._jobs.get(shard.shard_index)
        if existing is not None and existing.state == "running":
            # A superseded attempt (the coordinator timed it out and
            # reassigned) keeps writing to its own per-attempt file
            # until it notices the flag; it can't corrupt the new one.
            existing.cancelled = True
        assert self._workdir is not None, "server not started"
        path = self._workdir / (
            f"shard{shard.shard_index}.attempt{attempt}.jsonl"
        )
        job = _WorkerJob(shard, attempt, path)
        self._jobs[shard.shard_index] = job
        self.metrics.increment("shard_dispatches")
        loop = asyncio.get_running_loop()
        job.future = loop.run_in_executor(
            None, self._execute, job, spec, finished, header)
        return 200, job.status()

    # ------------------------------------------------------------------
    # Shard execution (worker threads)
    # ------------------------------------------------------------------

    def _execute(
        self,
        job: _WorkerJob,
        spec: ExperimentSpec,
        finished: frozenset,
        header: RunHeader,
    ) -> None:
        sink = JsonlSink(job.path)
        try:
            fire(
                "serve.shards.execute",
                shard=job.shard.shard_index,
                attempt=job.attempt,
            )

            def on_record(record) -> None:
                if job.cancelled:
                    raise ReproError(
                        f"shard {job.shard.shard_index} cancelled"
                    )
                job.records += 1
                job.beat = time.monotonic()

            run_shard(
                self.topology,
                spec,
                job.shard,
                sink=sink,
                resume=True,
                finished=finished,
                header=header,
                on_record=on_record,
                attempt=job.attempt,
            )
        except BaseException as exc:
            job.reason = f"{type(exc).__name__}: {exc}"
            job.state = "cancelled" if job.cancelled else "failed"
            self.metrics.increment("shard_failures")
        else:
            job.state = "done"
            self.metrics.increment("shard_completions")
        finally:
            sink.close()


def _read_text(path: Path) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


class ThreadedShardWorkerServer:
    """:class:`ShardWorkerServer` behind a synchronous facade.

    Proxies ``start/close`` onto a private
    :class:`~repro.netbase.loopthread.LoopThread`, so synchronous
    callers (tests, an in-process coordinator) can hold a live worker
    without touching asyncio.
    """

    def __init__(
        self,
        topology,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        workdir: Optional[str] = None,
        metrics: Optional[ServeMetrics] = None,
    ) -> None:
        self._async = ShardWorkerServer(
            topology, host=host, port=port, workdir=workdir,
            metrics=metrics,
        )
        self._loop = LoopThread("shard-worker-loop")

    @property
    def topology_hash(self) -> str:
        return self._async.topology_hash

    @property
    def metrics(self) -> ServeMetrics:
        return self._async.metrics

    @property
    def host(self) -> str:
        return self._async.host

    @property
    def port(self) -> int:
        return self._async.port

    def start(self) -> "ThreadedShardWorkerServer":
        self._loop.start(self._async.start)
        return self

    def close(self) -> None:
        self._loop.stop(self._async.close)

    def __enter__(self) -> "ThreadedShardWorkerServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class _TransportUnreachable(ReproError):
    """A worker request failed at the transport level (retryable)."""


class _HttpJob:
    """Coordinator-side record of one dispatched remote shard."""

    __slots__ = ("shard", "host", "attempt", "dead")

    def __init__(
        self,
        shard: Shard,
        host: str,
        attempt: int,
        dead: Optional[str] = None,
    ) -> None:
        self.shard = shard
        self.host = host
        self.attempt = attempt
        self.dead = dead


class HttpShardTransport:
    """Dispatch shards to :class:`ShardWorkerServer` hosts.

    Implements the :class:`~repro.exper.sharded.ShardCoordinator`
    transport contract over HTTP.  Shard *k* at attempt *a* goes to
    ``hosts[(k + a) % len(hosts)]``: retries rotate to the next host,
    so the coordinator's ordinary retry loop doubles as dead-host
    reassignment.  A dispatch that can't even reach its host is
    reported as a failed shard on the next ``poll`` rather than
    raised, feeding the same retry path.

    Every HTTP round trip passes the ``serve.shards.request`` fault
    site and retries transient failures under ``retry`` — the shared
    :class:`~repro.faults.RetryPolicy` — before reporting the request
    failed.  The default policy retries twice with a short jittered
    backoff, so one dropped packet does not cost a whole shard
    reassignment; dead hosts still surface quickly and feed the
    coordinator's rotation.

    ``hosts`` are base URLs (``http://10.0.0.7:8293``) or bare
    ``host:port`` pairs.
    """

    def __init__(
        self,
        hosts: Sequence[str],
        *,
        request_timeout: float = 10.0,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        if not hosts:
            raise ReproError(
                "HttpShardTransport needs at least one worker host"
            )
        self.hosts: List[str] = [_normalize_host(h) for h in hosts]
        self.request_timeout = float(request_timeout)
        self.retry = retry if retry is not None else RetryPolicy(
            retries=2, base_delay=0.05, jitter=0.5
        )
        self._jobs: Dict[int, _HttpJob] = {}

    def host_for(self, shard_index: int, attempt: int) -> str:
        """The host shard ``shard_index`` lands on at ``attempt``."""
        return self.hosts[(shard_index + attempt) % len(self.hosts)]

    def start(
        self,
        shard: Shard,
        path: Path,
        finished: Iterable[Tuple[int, int]],
        attempt: int,
        header: RunHeader,
    ) -> None:
        """Dispatch one shard to its host for this attempt."""
        host = self.host_for(shard.shard_index, attempt)
        body = json.dumps(encode(_DISPATCH_FIELDS, {
            "shard": shard,
            "header": header,
            "attempt": attempt,
            "finished": sorted(finished),
        })).encode("utf-8")
        job = _HttpJob(shard, host, attempt)
        try:
            self._request("POST", f"{host}/shards", body)
        except ReproError as exc:
            job.dead = str(exc)
        self._jobs[shard.shard_index] = job

    def poll(self) -> Dict[int, Tuple[str, object]]:
        """Status of every dispatched shard, straight off its host."""
        statuses: Dict[int, Tuple[str, object]] = {}
        for index in sorted(self._jobs):
            job = self._jobs[index]
            if job.dead is not None:
                statuses[index] = ("failed", job.dead)
                continue
            try:
                doc = self._request(
                    "GET", f"{job.host}/shards/{index}")
            except ReproError as exc:
                statuses[index] = ("failed", str(exc))
                continue
            state = doc.get("state")
            if state == "done":
                statuses[index] = ("done", None)
            elif state == "running":
                statuses[index] = (
                    "running", float(doc.get("age") or 0.0))
            else:
                reason = doc.get("reason") or (
                    f"worker reported state {state!r}"
                )
                statuses[index] = ("failed", str(reason))
        return statuses

    def stop(self, shard_index: int) -> None:
        """Cancel a shard on its host (best effort) and forget it."""
        job = self._jobs.pop(shard_index, None)
        if job is None or job.dead is not None:
            return
        try:
            self._request(
                "POST", f"{job.host}/shards/{shard_index}/cancel", b"{}")
        except ReproError:
            pass

    def collect(self, shard: Shard, path: Path) -> None:
        """Download a completed shard's records to the local path."""
        job = self._jobs.pop(shard.shard_index, None)
        if job is None:
            raise ReproError(
                f"shard {shard.shard_index} was never dispatched"
            )
        data = self._request_raw(
            "GET", f"{job.host}/shards/{shard.shard_index}/records")
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        Path(path).write_bytes(data)

    def close(self) -> None:
        """Cancel whatever is still in flight."""
        for index in sorted(self._jobs):
            self.stop(index)

    def _request(
        self, method: str, url: str, body: Optional[bytes] = None
    ) -> dict:
        data = self._request_raw(method, url, body)
        try:
            document = json.loads(data.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ReproError(f"worker {url}: bad response: {exc}")
        if not isinstance(document, dict):
            raise ReproError(f"worker {url}: bad response shape")
        return document

    def _request_raw(
        self, method: str, url: str, body: Optional[bytes] = None
    ) -> bytes:
        """One logical request: attempts paced by the retry policy.

        An HTTP error status is the worker *answering* (refusing a bad
        dispatch, say) — retrying would resend the same doomed request,
        so only transport-level failures (unreachable host, dropped
        connection, injected ``serve.shards.request`` faults) retry.
        """
        attempt = 0
        while True:
            attempt += 1
            try:
                fire(
                    "serve.shards.request",
                    method=method, url=url, attempt=attempt,
                )
                return self._request_once(method, url, body)
            except _TransportUnreachable as exc:
                if not self.retry.allows(attempt):
                    raise ReproError(str(exc)) from None
            except OSError as exc:
                # Injected faults at the site surface here (reset and
                # IO errors alike); treat them exactly like wire
                # trouble.
                if not self.retry.allows(attempt):
                    raise ReproError(f"worker {url}: {exc}") from None
            backoff = self.retry.backoff(attempt, token=url)
            if backoff > 0:
                time.sleep(backoff)

    def _request_once(
        self, method: str, url: str, body: Optional[bytes]
    ) -> bytes:
        headers = (
            {"Content-Type": "application/json"}
            if body is not None else {}
        )
        request = urllib.request.Request(
            url, data=body, method=method, headers=headers)
        try:
            with urllib.request.urlopen(
                request, timeout=self.request_timeout
            ) as response:
                return response.read()
        except urllib.error.HTTPError as exc:
            try:
                detail = json.loads(exc.read().decode("utf-8")).get(
                    "error", "")
            except Exception:
                detail = ""
            raise ReproError(
                f"worker {url}: HTTP {exc.code}"
                + (f": {detail}" if detail else "")
            )
        except (urllib.error.URLError, OSError) as exc:
            raise _TransportUnreachable(
                f"worker {url} unreachable: {exc}"
            )


def _normalize_host(host: str) -> str:
    host = host.strip().rstrip("/")
    if not host:
        raise ReproError("empty worker host")
    if "://" not in host:
        host = f"http://{host}"
    return host
