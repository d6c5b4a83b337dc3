"""A minimal HTTP/1.1 JSON front end for the query service.

Just enough HTTP to put :class:`~repro.serve.query.QueryService` on a
socket without pulling in a web framework: request-line + header
parsing over asyncio streams, keep-alive, Content-Length bodies.

Endpoints:

* ``GET /validity?asn=65000&prefix=10.0.0.0/24`` — one RFC 6811
  decision as JSON (state, reason, matched VRP, covering VRPs).
* ``POST /validity`` — batch: ``{"queries": [{"asn": ..., "prefix":
  ...}, ...]}`` in, ``{"results": [...]}`` out.
* ``GET /metrics`` — the shared :class:`ServeMetrics` snapshot as
  JSON; ``GET /metrics?format=prometheus`` serves the same registry
  in the Prometheus text exposition format instead.
* ``GET /status`` — VRP count and snapshot serial.
* ``GET /experiments`` — one summary per run in the attached
  :class:`~repro.results.store.ResultsStore`
  (:func:`~repro.results.store.run_listing`).
* ``GET /experiments/<run>`` — one run's per-cell stats,
  :func:`~repro.results.store.run_document` of the run file as it is
  at the request, so a run still being recorded shows its progress.
* ``GET /experiments/<run>/ci`` — per-cell *bootstrap CIs* for a run
  archived in the attached
  :class:`~repro.results.store.ResultsStore`, exactly
  :func:`~repro.results.store.run_ci_document` of the run's bytes.
* ``GET /diff?a=<run>&b=<run>`` — deterministic run-to-run
  comparison (:func:`~repro.results.store.run_diff_document`).
* ``GET /healthz`` / ``GET /readyz`` — liveness and readiness (both
  flip to 503 while the server drains; see :class:`HttpServerBase`).

Malformed input gets a 400 with a JSON error body; unknown paths 404.

:class:`HttpServerBase` carries the production hardening every HTTP
front end in the serve tier shares — connection caps with 503 load
shedding, keep-alive idle timeouts, graceful drain, the health
endpoints — so :class:`QueryHttpServer` here and the shard worker
server in :mod:`repro.serve.shards` subclass it and implement only
``_route``.  See ``docs/robustness.md``.
"""

from __future__ import annotations

import asyncio
import json
import time
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple
from urllib.parse import parse_qs, unquote, urlsplit

from ..faults.plan import fire_async
from ..netbase.asnum import parse_asn
from ..netbase.errors import AsnError, ReproError
from ..netbase.prefix import Prefix
from .metrics import ServeMetrics, ensure_metrics
from .query import QueryService

if TYPE_CHECKING:  # pragma: no cover
    from ..results.store import ResultsStore

__all__ = [
    "HttpRequestError",
    "HttpServerBase",
    "QueryHttpServer",
    "TextPayload",
    "read_http_request",
    "write_http_response",
]

_MAX_HEADER_BYTES = 16384
_MAX_BODY_BYTES = 4 << 20
#: Largest POST /validity batch accepted in one request.  Bigger
#: batches also get offloaded; the cap just bounds per-request memory.
_MAX_BATCH_QUERIES = 100_000
#: Batches at least this large run in the default executor so the
#: event loop keeps serving RTR sessions and notifies meanwhile (the
#: snapshot is immutable, so cross-thread reads are safe).
_EXECUTOR_BATCH_THRESHOLD = 512


class HttpRequestError(ReproError):
    """Client-side error: reported as a 400 response, not a crash."""


class TextPayload:
    """A non-JSON response body; :func:`write_http_response` sends its
    ``text`` verbatim under its ``content_type``."""

    __slots__ = ("content_type", "text")

    def __init__(self, text: str, content_type: str) -> None:
        self.text = text
        self.content_type = content_type


#: Content type Prometheus scrapers expect for the text exposition.
_PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


class _UnknownRun(ReproError):
    """A request names a run the attached store does not hold."""


def _canonical_json(document: dict) -> str:
    """Sorted keys, no whitespace, newline-terminated: the same
    document is the same bytes in every process — and the /ci and
    /diff bodies are exactly ``repro-roa jobs diff`` stdout."""
    return json.dumps(
        document, sort_keys=True, separators=(",", ":")
    ) + "\n"


async def read_http_request(
    reader: asyncio.StreamReader,
) -> Optional[Tuple[str, str, str, Dict[str, str], bytes]]:
    """Read one HTTP/1.1 request from an asyncio stream.

    Returns ``(method, path, version, headers, body)`` — method and
    version uppercased, header names lowercased — or ``None`` on a
    clean EOF before any bytes of a request.  Malformed, truncated or
    oversized input raises :class:`HttpRequestError`, which servers
    report as a 400.  A Content-Length is ASCII digits only (RFC 9110
    §8.6: no sign, no ``_``), and repeated ones must agree.  This is
    the request side of every HTTP front end in the serve tier (query
    service, shard workers).
    """
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if exc.partial:
            raise HttpRequestError("request head truncated")
        return None
    except asyncio.LimitOverrunError:
        # Head exceeded the StreamReader's own limit before our
        # size check could run; same answer either way.
        raise HttpRequestError("request head too large")
    if len(head) > _MAX_HEADER_BYTES:
        raise HttpRequestError("request head too large")
    lines = head.decode("latin-1").split("\r\n")
    try:
        method, path, version = lines[0].split(" ", 2)
    except ValueError:
        raise HttpRequestError(f"malformed request line {lines[0]!r}")
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, _, value = line.partition(":")
        name, value = name.strip().lower(), value.strip()
        if name == "content-length" and headers.get(name, value) != value:
            raise HttpRequestError("conflicting Content-Length headers")
        headers[name] = value
    body = b""
    raw_length = headers.get("content-length", "0")
    try:
        if not (raw_length.isascii() and raw_length.isdigit()):
            raise ValueError(raw_length)
        length = int(raw_length)  # ValueError past 4300 digits, too
    except ValueError:
        raise HttpRequestError(f"bad Content-Length {raw_length!r}")
    if length:
        if length > _MAX_BODY_BYTES:
            raise HttpRequestError("request body too large")
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError:
            raise HttpRequestError("request body shorter than Content-Length")
    return method.upper(), path, version.strip().upper(), headers, body


async def write_http_response(
    writer: asyncio.StreamWriter,
    status: int,
    payload: object,
    keep_alive: bool,
) -> None:
    """Write one HTTP/1.1 response and drain the stream.

    ``payload`` is either a JSON-serializable dict (sent as
    ``application/json``) or a :class:`TextPayload` (sent verbatim
    under its own content type).
    """
    reason = {200: "OK", 201: "Created", 400: "Bad Request",
              404: "Not Found", 405: "Method Not Allowed",
              409: "Conflict",
              503: "Service Unavailable"}.get(status, "OK")
    if isinstance(payload, TextPayload):
        content_type = payload.content_type
        body = payload.text.encode("utf-8")
    else:
        content_type = "application/json"
        body = json.dumps(payload).encode("utf-8")
    head = (
        f"HTTP/1.1 {status} {reason}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
        f"\r\n"
    ).encode("latin-1")
    writer.write(head + body)
    await writer.drain()


class HttpServerBase:
    """The hardened asyncio HTTP server every serve-tier front end
    shares; subclasses implement ``_route`` only.

    What the base owns:

    * **Connection cap + load shedding** — with ``max_clients`` set, a
      connection beyond the cap gets an immediate 503 and close
      (counted as ``requests_shed``) instead of growing server state.
    * **Keep-alive idle timeout** — with ``idle_timeout`` set, a
      keep-alive connection that sends nothing for that long is
      reaped, so idle peers can't pin file descriptors forever.
    * **Graceful drain** — :meth:`drain` flips the server to draining
      (health endpoints answer 503, other requests are shed, new
      keep-alives are refused), waits for in-flight requests to
      finish, and records the elapsed time in the ``drain_seconds``
      gauge.  The listener deliberately stays open so load balancers
      observe the flip; call :meth:`close` afterwards.
    * **Health endpoints** — ``GET /healthz`` (liveness: 200 until
      draining) and ``GET /readyz`` (readiness: also 503 while at the
      connection cap).
    * The fault-injection sites ``serve.http.accept`` and
      ``serve.http.request`` (see :mod:`repro.faults`).
    """

    def __init__(
        self,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        metrics: Optional[ServeMetrics] = None,
        max_clients: Optional[int] = None,
        idle_timeout: Optional[float] = None,
        drain_timeout: Optional[float] = None,
    ) -> None:
        if max_clients is not None and max_clients < 1:
            raise ReproError("max_clients must be positive")
        if idle_timeout is not None and idle_timeout <= 0:
            raise ReproError("idle_timeout must be positive")
        if drain_timeout is not None and drain_timeout <= 0:
            raise ReproError("drain_timeout must be positive")
        self.metrics = ensure_metrics(metrics)
        self.max_clients = max_clients
        self.idle_timeout = idle_timeout
        self.drain_timeout = drain_timeout
        self._requested = (host, port)
        self.host = host
        self.port = port
        self._server: Optional[asyncio.base_events.Server] = None
        self._writers: Set[asyncio.StreamWriter] = set()
        self._active_requests = 0
        self._draining = False

    @property
    def draining(self) -> bool:
        """Is the server refusing new work pending :meth:`close`?"""
        return self._draining

    async def start(self) -> "HttpServerBase":
        self._server = await asyncio.start_server(
            self._handle_connection, *self._requested)
        self.host, self.port = self._server.sockets[0].getsockname()[:2]
        return self

    async def drain(self, timeout: Optional[float] = None) -> float:
        """Quiesce: shed new work, wait out in-flight requests.

        Returns the seconds it took (bounded by ``timeout``, default
        the constructor's ``drain_timeout``) and records it in the
        ``drain_seconds`` gauge.  The listener stays open — health
        probes must observe the 503 flip — so follow with ``close()``.
        """
        if timeout is None:
            timeout = self.drain_timeout
        self._draining = True
        start = time.monotonic()
        while self._active_requests > 0:
            if timeout is not None and time.monotonic() - start >= timeout:
                break
            await asyncio.sleep(0.005)
        elapsed = time.monotonic() - start
        self.metrics.drain_seconds.set(elapsed)
        return elapsed

    async def close(self) -> None:
        # Force idle keep-alive connections closed BEFORE awaiting
        # wait_closed(): since Python 3.12.1 it waits for connection
        # handlers, which otherwise sit in readuntil() forever.
        if self._server is not None:
            self._server.close()
        for writer in list(self._writers):
            writer.close()
        self._writers.clear()
        if self._server is not None:
            await self._server.wait_closed()
            self._server = None

    async def __aenter__(self) -> "HttpServerBase":
        return await self.start()

    async def __aexit__(self, *exc_info: object) -> None:
        await self.close()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        if (
            self.max_clients is not None
            and len(self._writers) >= self.max_clients
        ):
            self.metrics.increment("requests_shed")
            try:
                await write_http_response(
                    writer, 503,
                    {"error": "server at connection capacity"}, False)
            except OSError:
                pass
            writer.close()
            return
        self._writers.add(writer)
        try:
            await fire_async("serve.http.accept")
            while True:
                try:
                    if self.idle_timeout is not None:
                        request = await asyncio.wait_for(
                            read_http_request(reader), self.idle_timeout)
                    else:
                        request = await read_http_request(reader)
                except asyncio.TimeoutError:
                    break  # idle keep-alive connection reaped
                except HttpRequestError as exc:
                    self.metrics.increment("http_errors")
                    await write_http_response(
                        writer, 400, {"error": str(exc)}, False)
                    break
                if request is None:
                    break
                method, path, version, headers, body = request
                self.metrics.increment("http_requests")
                # Header values are case-insensitive (RFC 9110), and
                # HTTP/1.0 defaults to close rather than keep-alive.
                connection = headers.get("connection", "").lower()
                if version == "HTTP/1.0":
                    keep_alive = connection == "keep-alive"
                else:
                    keep_alive = connection != "close"
                if self._draining:
                    keep_alive = False
                try:
                    status, payload = await self._respond(
                        method, path, body)
                except HttpRequestError as exc:
                    self.metrics.increment("http_errors")
                    status, payload = 400, {"error": str(exc)}
                await write_http_response(writer, status, payload, keep_alive)
                if not keep_alive:
                    break
        except (OSError, asyncio.IncompleteReadError,
                asyncio.LimitOverrunError):
            # ConnectionError and injected IO faults alike end this
            # connection, never the server.
            pass
        finally:
            self._writers.discard(writer)
            writer.close()

    async def _respond(
        self, method: str, path: str, body: bytes
    ) -> Tuple[int, object]:
        """Health checks, drain shedding, then the subclass router."""
        bare = path.split("?", 1)[0]
        if bare in ("/healthz", "/readyz"):
            return self._health(method, bare)
        if self._draining:
            self.metrics.increment("requests_shed")
            return 503, {"error": "server is draining"}
        await fire_async("serve.http.request", path=bare)
        self._active_requests += 1
        try:
            return await self._route(method, path, body)
        finally:
            self._active_requests -= 1

    def _health(self, method: str, path: str) -> Tuple[int, object]:
        if method != "GET":
            return 405, {"error": f"{method} not allowed on {path}"}
        if self._draining:
            return 503, {"status": "draining"}
        if path == "/readyz" and (
            self.max_clients is not None
            and len(self._writers) >= self.max_clients
        ):
            return 503, {"status": "saturated"}
        return 200, {"status": "ok" if path == "/healthz" else "ready"}

    async def _route(
        self, method: str, path: str, body: bytes
    ) -> Tuple[int, object]:
        raise NotImplementedError  # pragma: no cover — subclass duty


class QueryHttpServer(HttpServerBase):
    """Serve origin-validation queries — and experiment results —
    over HTTP/JSON.

    ``store`` is the :class:`~repro.results.store.ResultsStore`
    behind ``/experiments``, ``/experiments/<run>``,
    ``/experiments/<run>/ci`` and ``/diff``.  Every answer is read
    from the run files at request time, off the event loop, so a run
    recorded into the store after start-up — by this process or
    another — is served like any other.  Without a store,
    ``/experiments`` lists no runs and the others answer 404.
    Hardening knobs (``max_clients``, ``idle_timeout``,
    ``drain_timeout``) come from :class:`HttpServerBase`.
    """

    def __init__(
        self,
        service: QueryService,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        metrics: Optional[ServeMetrics] = None,
        store: Optional["ResultsStore"] = None,
        max_clients: Optional[int] = None,
        idle_timeout: Optional[float] = None,
        drain_timeout: Optional[float] = None,
    ) -> None:
        super().__init__(
            host=host,
            port=port,
            metrics=metrics if metrics is not None else service.metrics,
            max_clients=max_clients,
            idle_timeout=idle_timeout,
            drain_timeout=drain_timeout,
        )
        self.service = service
        self.store = store

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    async def _route(
        self, method: str, path: str, body: bytes
    ) -> Tuple[int, Dict[str, object]]:
        url = urlsplit(path)
        if url.path == "/validity" and method == "GET":
            return 200, self._single_query(parse_qs(url.query))
        if url.path == "/validity" and method == "POST":
            return 200, await self._batch_query(body)
        if url.path == "/metrics" and method == "GET":
            fmt = (parse_qs(url.query).get("format") or ["json"])[0]
            if fmt == "prometheus":
                return 200, TextPayload(
                    self.metrics.render_prometheus(),
                    _PROMETHEUS_CONTENT_TYPE,
                )
            if fmt != "json":
                raise HttpRequestError(
                    f"unknown metrics format {fmt!r}; "
                    f"expected json or prometheus"
                )
            return 200, self.metrics.snapshot()
        if url.path == "/status" and method == "GET":
            return 200, {
                "vrps": len(self.service),
                "serial": self.service.serial,
            }
        if url.path == "/experiments" or url.path.startswith(
            "/experiments/"
        ):
            if method != "GET":
                return 405, {
                    "error": f"{method} not allowed on {url.path}"
                }
            return await self._experiments(url.path)
        if url.path == "/diff":
            if method != "GET":
                return 405, {"error": f"{method} not allowed on /diff"}
            return await self._diff(parse_qs(url.query))
        if url.path in ("/validity", "/metrics", "/status"):
            return 405, {"error": f"{method} not allowed on {url.path}"}
        return 404, {"error": f"no such endpoint {url.path}"}

    async def _experiments(
        self, path: str
    ) -> Tuple[int, Dict[str, object]]:
        """The results endpoints, read from the attached store."""
        self.metrics.increment("experiment_requests")
        if path == "/experiments":
            if self.store is None:
                return 200, {"runs": []}
            try:
                return 200, await self._off_loop(self._listing)
            except (ReproError, OSError) as exc:
                raise HttpRequestError(f"cannot list runs: {exc}")
        rest = path[len("/experiments/"):]
        if rest.endswith("/ci"):
            return await self._experiment_ci(unquote(rest[: -len("/ci")]))
        run_id = unquote(rest)
        try:
            return 200, await self._off_loop(self._run_document, run_id)
        except _UnknownRun as exc:
            return 404, {"error": str(exc)}
        except (ReproError, OSError) as exc:
            raise HttpRequestError(f"cannot read run {run_id!r}: {exc}")

    @staticmethod
    async def _off_loop(function, *args):
        # Reading a run file (and bootstrap resampling) is CPU and IO
        # on a worker thread, so RTR sessions sharing the event loop
        # keep being served.
        return await asyncio.get_running_loop().run_in_executor(
            None, function, *args)

    def _running(self) -> frozenset:
        """Run ids still being recorded; a plain store has none."""
        return frozenset()

    def _shards(self, run_id: str) -> Optional[dict]:
        """Per-shard progress of ``run_id``; no file holds it, so a
        plain store has none."""
        return None

    def _listing(self) -> dict:
        from ..results.store import run_listing

        return {"runs": run_listing(self.store, self._running())}

    def _run_document(self, run_id: str) -> dict:
        from ..results.store import run_document

        if self.store is None or not self.store.path(run_id).exists():
            raise _UnknownRun(f"no experiment run named {run_id!r}")
        header, records = self.store.read(run_id)
        document = run_document(
            run_id, header, records, running=run_id in self._running())
        shards = self._shards(run_id)
        if shards is not None:
            document["shards"] = shards
        return document

    async def _experiment_ci(self, run_id: str) -> Tuple[int, object]:
        """``GET /experiments/<run>/ci``: bootstrap CIs of stored bytes."""
        if self.store is None:
            return 404, {
                "error": "no results store attached; "
                "/experiments/<run>/ci needs the run's durable bytes"
            }

        def build() -> str:
            from ..results.store import run_ci_document

            if not self.store.path(run_id).exists():
                raise FileNotFoundError(run_id)
            header, records = self.store.read(run_id)
            return _canonical_json(
                run_ci_document(run_id, header, records)
            )

        try:
            text = await self._off_loop(build)
        except FileNotFoundError:
            return 404, {"error": f"no stored run named {run_id!r}"}
        except (ReproError, OSError) as exc:
            raise HttpRequestError(
                f"cannot aggregate run {run_id!r}: {exc}")
        return 200, TextPayload(text, "application/json")

    async def _diff(
        self, params: Dict[str, List[str]]
    ) -> Tuple[int, object]:
        """``GET /diff?a=&b=``: deterministic run-to-run comparison."""
        self.metrics.increment("experiment_requests")
        a_id = (params.get("a") or [None])[0]
        b_id = (params.get("b") or [None])[0]
        if not a_id or not b_id:
            raise HttpRequestError(
                "both 'a' and 'b' run ids are required")
        if self.store is None:
            return 404, {
                "error": "no results store attached; "
                "/diff needs the runs' durable bytes"
            }

        def build() -> str:
            from ..results.store import run_diff_document

            sides = []
            for run_id in (a_id, b_id):
                if not self.store.path(run_id).exists():
                    raise _UnknownRun(
                        f"no stored run named {run_id!r}")
                sides.append(self.store.read(run_id))
            (a_header, a_records), (b_header, b_records) = sides
            return _canonical_json(run_diff_document(
                a_id, a_header, a_records,
                b_id, b_header, b_records,
            ))

        try:
            text = await self._off_loop(build)
        except _UnknownRun as exc:
            return 404, {"error": str(exc)}
        except (ReproError, OSError) as exc:
            raise HttpRequestError(
                f"cannot diff {a_id!r} against {b_id!r}: {exc}")
        return 200, TextPayload(text, "application/json")

    def _single_query(self, params: Dict[str, List[str]]) -> Dict[str, object]:
        asn, prefix = _parse_pair(
            (params.get("asn") or [None])[0],
            (params.get("prefix") or [None])[0],
        )
        return self.service.validity(asn, prefix).to_json()

    async def _batch_query(self, body: bytes) -> Dict[str, object]:
        try:
            document = json.loads(body or b"{}")
        except json.JSONDecodeError as exc:
            raise HttpRequestError(f"invalid JSON body: {exc}")
        queries = document.get("queries")
        if not isinstance(queries, list):
            raise HttpRequestError('body must be {"queries": [...]}')
        if len(queries) > _MAX_BATCH_QUERIES:
            raise HttpRequestError(
                f"batch of {len(queries)} exceeds the "
                f"{_MAX_BATCH_QUERIES}-query limit")
        pairs = [
            _parse_pair(entry.get("asn"), entry.get("prefix"))
            if isinstance(entry, dict)
            else _parse_pair(None, None)
            for entry in queries
        ]
        if len(pairs) >= _EXECUTOR_BATCH_THRESHOLD:
            # Don't stall RTR sessions sharing this loop: the lookup
            # walk is pure CPU over an immutable snapshot, so it can
            # run on a worker thread.
            results = await asyncio.get_running_loop().run_in_executor(
                None, self.service.validity_batch, pairs)
        else:
            results = self.service.validity_batch(pairs)
        return {"results": [result.to_json() for result in results]}


def _parse_pair(asn: object, prefix: object) -> Tuple[int, Prefix]:
    if asn is None or prefix is None:
        raise HttpRequestError("both 'asn' and 'prefix' are required")
    # A JSON number arrives as an int; anything else that is not a
    # string (a float, a bool, a list) is not an AS number.
    if type(asn) is int:
        asn = str(asn)
    if not isinstance(asn, str):
        raise HttpRequestError(f"bad ASN {asn!r}")
    try:
        asn_value = parse_asn(asn)
    except AsnError as exc:
        raise HttpRequestError(f"bad ASN {asn!r}: {exc}")
    try:
        prefix_value = Prefix.parse(str(prefix))
    except ReproError as exc:
        raise HttpRequestError(f"bad prefix {prefix!r}: {exc}")
    return asn_value, prefix_value
