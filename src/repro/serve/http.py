"""A minimal HTTP/1.1 JSON front end for the query service.

Just enough HTTP to put :class:`~repro.serve.query.QueryService` on a
socket without pulling in a web framework: one
:class:`asyncio.Protocol` per connection, a sans-I/O request parser
(:class:`HttpRequestParser`), keep-alive, pipelining, Content-Length
bodies.  A request whose route answers at once is parsed, routed and
written inside ``data_received``; only the routes that leave the
event loop run as a task.

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
from typing import TYPE_CHECKING, Awaitable, Dict, Optional, Tuple, Union
from urllib.parse import unquote

from ..faults.plan import injected_delay
from ..netbase.asnum import parse_asn
from ..netbase.errors import AsnError, ReproError
from ..netbase.loopthread import Listener
from ..netbase.prefix import Prefix
from .metrics import ServeMetrics, ensure_metrics
from .query import QueryService

if TYPE_CHECKING:  # pragma: no cover
    from ..results.store import ResultsStore

__all__ = [
    "HttpRequestError",
    "HttpRequestParser",
    "HttpServerBase",
    "QueryHttpServer",
    "TextPayload",
    "encode_response",
    "query_fields",
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

#: Reason phrase per status code; anything else reads "OK".
REASONS = {
    200: "OK", 201: "Created", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 409: "Conflict",
    503: "Service Unavailable",
}

#: ``(method, path, version, headers, body)``: method and version
#: uppercased, header names lowercased.
Request = Tuple[str, str, str, Dict[str, str], bytes]
#: A route's answer: ``(status, payload)`` now, or an awaitable of it.
Answer = Union[Tuple[int, object], Awaitable[Tuple[int, object]]]


class HttpRequestError(ReproError):
    """Client-side error: reported as a 400 response, not a crash."""


class TextPayload:
    """A non-JSON response body; :func:`encode_response` sends its
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


class HttpRequestParser:
    """HTTP/1.1 request framing without I/O: bytes in, requests out.

    :meth:`feed` the bytes as they arrive; :meth:`next_request` returns
    each complete :data:`Request` in order, or ``None`` until more
    bytes come; :meth:`feed_eof` says the stream ended.  Malformed,
    truncated or oversized input raises :class:`HttpRequestError`,
    which servers report as a 400.  A head past 16 KiB is refused as
    soon as that many bytes hold no blank line.  A Content-Length is
    ASCII digits only (RFC 9110 §8.6: no sign, no ``_``), repeated ones
    must agree, and a body past 4 MiB is refused from the head alone.
    """

    __slots__ = ("_buffer", "_start", "_scanned", "_head")

    def __init__(self) -> None:
        # Bytes as received; a bytearray once a request spans feeds.
        self._buffer: Union[bytes, bytearray] = b""
        self._start = 0  # first byte not yet handed out
        self._scanned = 0  # the head's end is not before this offset
        # The parsed head of a request whose body is still arriving.
        self._head: Optional[Tuple[str, str, str, Dict[str, str], int]] = None

    def feed(self, data: bytes) -> None:
        buffer, start = self._buffer, self._start
        if start == len(buffer):
            self._buffer, self._start, self._scanned = data, 0, 0
            return
        if start or type(buffer) is bytes:
            buffer = self._buffer = bytearray(buffer[start:])
            self._scanned -= start
            self._start = 0
        buffer += data

    def next_request(self) -> Optional[Request]:
        buffer, start = self._buffer, self._start
        if self._head is None:
            end = buffer.find(b"\r\n\r\n", max(start, self._scanned - 3))
            if end < 0:
                if len(buffer) - start >= _MAX_HEADER_BYTES:
                    raise HttpRequestError("request head too large")
                self._scanned = len(buffer)
                return None
            end += 4
            if end - start > _MAX_HEADER_BYTES:
                raise HttpRequestError("request head too large")
            self._head = _parse_head(bytes(buffer[start:end]))
            start = self._start = end
        method, path, version, headers, length = self._head
        stop = start + length
        if len(buffer) < stop:
            return None
        self._head = None
        self._start = self._scanned = stop
        return method, path, version, headers, bytes(buffer[start:stop])

    def feed_eof(self) -> None:
        """The stream ended: raise if it ended inside a request."""
        if self._head is not None:
            raise HttpRequestError("request body shorter than Content-Length")
        if self._start < len(self._buffer):
            raise HttpRequestError("request head truncated")


def _parse_head(head: bytes) -> Tuple[str, str, str, Dict[str, str], int]:
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
    raw_length = headers.get("content-length", "0")
    try:
        if not (raw_length.isascii() and raw_length.isdigit()):
            raise ValueError(raw_length)
        length = int(raw_length)  # ValueError past 4300 digits, too
    except ValueError:
        raise HttpRequestError(f"bad Content-Length {raw_length!r}")
    if length > _MAX_BODY_BYTES:
        raise HttpRequestError("request body too large")
    return method.upper(), path, version.strip().upper(), headers, length


def encode_response(status: int, payload: object, keep_alive: bool) -> bytes:
    """One HTTP/1.1 response, head and body.

    ``payload`` is either a JSON-serializable dict (sent as
    ``application/json``) or a :class:`TextPayload` (sent verbatim
    under its own content type).
    """
    if isinstance(payload, TextPayload):
        content_type = payload.content_type
        body = payload.text.encode("utf-8")
    else:
        content_type = "application/json"
        body = json.dumps(payload).encode("utf-8")
    return (
        f"HTTP/1.1 {status} {REASONS.get(status, 'OK')}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
        f"\r\n"
    ).encode("latin-1") + body


def query_fields(query: str) -> Dict[str, str]:
    """``{name: first value}`` of a URL query string.

    The rules of :mod:`urllib.parse`'s query parser: ``&`` separates
    fields, ``+`` is a space, names and values are percent-decoded
    (UTF-8, undecodable bytes replaced), a field with no ``=`` or a
    blank value is dropped, and the first value of a repeated name
    wins.
    """
    fields: Dict[str, str] = {}
    for field in query.split("&"):
        name, _, value = field.partition("=")
        if value:
            fields.setdefault(_form_decode(name), _form_decode(value))
    return fields


def _form_decode(text: str) -> str:
    if "+" in text:
        text = text.replace("+", " ")
    return unquote(text) if "%" in text else text


class _HttpConnection(asyncio.Protocol):
    """One accepted connection: requests are answered in order, each
    inside the callback that completed it unless its route must wait."""

    __slots__ = (
        "_server", "_parser", "_transport", "_task", "_eof",
        "_write_paused", "_idle_since", "_idle",
    )

    def __init__(self, server: "HttpServerBase") -> None:
        self._server = server
        self._parser = HttpRequestParser()
        self._transport: Optional[asyncio.Transport] = None
        # The answer being awaited; reading pauses until it is written.
        self._task: Optional[asyncio.Task] = None
        self._eof = False
        self._write_paused = False
        # Loop time since which the connection waits for a request.
        self._idle_since: Optional[float] = None
        self._idle: Optional[asyncio.TimerHandle] = None

    # -- transport callbacks ------------------------------------------

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self._transport = transport
        server = self._server
        if server._listener.full(server.max_clients):
            server.metrics.increment("requests_shed")
            transport.write(encode_response(
                503, {"error": "server at connection capacity"}, False))
            transport.close()
            return
        if not server._listener.admit(transport):
            return
        try:
            delay = injected_delay("serve.http.accept")
        except OSError:
            transport.close()
            return
        loop = asyncio.get_running_loop()
        if server.idle_timeout is not None:
            self._idle_since = loop.time()
            self._idle = loop.call_later(
                server.idle_timeout, self._check_idle)
        if delay > 0:
            transport.pause_reading()
            loop.call_later(delay, self._resume)

    def data_received(self, data: bytes) -> None:
        self._parser.feed(data)
        self._serve()

    def eof_received(self) -> bool:
        self._eof = True
        if self._task is None:
            self._serve()
        return True  # half-open: what is buffered still gets answers

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self._server._listener.release(self._transport)
        if self._idle is not None:
            self._idle.cancel()

    def pause_writing(self) -> None:
        self._write_paused = True
        self._transport.pause_reading()

    def resume_writing(self) -> None:
        self._write_paused = False
        self._resume()

    # -- requests -----------------------------------------------------

    def _resume(self) -> None:
        if self._task is None and not self._write_paused:
            self._transport.resume_reading()
            self._serve()

    def _serve(self) -> None:
        """Answer buffered requests in order until one must wait."""
        transport = self._transport
        while (
            self._task is None
            and not self._write_paused
            and not transport.is_closing()
        ):
            try:
                request = self._parser.next_request()
                if request is None and self._eof:
                    self._parser.feed_eof()
            except HttpRequestError as exc:
                self._server.metrics.increment("http_errors")
                transport.write(
                    encode_response(400, {"error": str(exc)}, False))
                transport.close()
                return
            if request is None:
                if self._eof:
                    transport.close()
                elif self._idle_since is None and self._idle is not None:
                    self._idle_since = asyncio.get_running_loop().time()
                return
            self._idle_since = None
            self._answer(request)

    def _answer(self, request: Request) -> None:
        method, path, version, headers, body = request
        server = self._server
        server.metrics.increment("http_requests")
        # Header values are case-insensitive (RFC 9110), and HTTP/1.0
        # defaults to close rather than keep-alive.
        connection = headers.get("connection", "").lower()
        if version == "HTTP/1.0":
            keep_alive = connection == "keep-alive"
        else:
            keep_alive = connection != "close"
        if server._draining:
            keep_alive = False
        try:
            answer = server._respond(method, path, body)
        except HttpRequestError as exc:
            server.metrics.increment("http_errors")
            answer = 400, {"error": str(exc)}
        except OSError:
            # Injected IO faults end this connection, never the server.
            self._transport.close()
            return
        if type(answer) is tuple:
            self._reply(answer, keep_alive)
            return
        self._transport.pause_reading()
        self._task = server._listener.spawn(self._finish(answer, keep_alive))

    def _reply(self, answer: Tuple[int, object], keep_alive: bool) -> None:
        status, payload = answer
        self._transport.write(encode_response(status, payload, keep_alive))
        if not keep_alive:
            self._transport.close()

    async def _finish(
        self, pending: Awaitable[Tuple[int, object]], keep_alive: bool
    ) -> None:
        try:
            answer = await pending
        except HttpRequestError as exc:
            self._server.metrics.increment("http_errors")
            answer = 400, {"error": str(exc)}
        except OSError:
            # Injected IO faults end this connection, never the server.
            self._transport.close()
            return
        except BaseException:
            self._transport.close()  # close() cancelled us, or a bug
            raise
        finally:
            self._task = None
        if not self._transport.is_closing():
            self._reply(answer, keep_alive)
            self._resume()

    def _check_idle(self) -> None:
        timeout = self._server.idle_timeout
        loop = asyncio.get_running_loop()
        if self._idle_since is not None:
            timeout -= loop.time() - self._idle_since
            if timeout <= 0:
                self._transport.close()  # idle keep-alive connection reaped
                return
        self._idle = loop.call_later(timeout, self._check_idle)


class HttpServerBase:
    """The hardened asyncio HTTP server every serve-tier front end
    shares; subclasses implement ``_route`` only.

    ``_route(method, path, query, body)`` gets the request target split
    at ``?`` and returns ``(status, payload)`` — or, for work that
    leaves the event loop, an awaitable of it, which runs as a task
    while the connection stops reading, so pipelined requests are still
    answered in order.  A :class:`HttpRequestError` from either is a
    400.

    What the base owns:

    * **Connection cap + load shedding** — with ``max_clients`` set, a
      connection beyond the cap gets an immediate 503 and close
      (counted as ``requests_shed``) instead of growing server state.
    * **Keep-alive idle timeout** — with ``idle_timeout`` set, a
      keep-alive connection that sends no complete request for that
      long is reaped, so idle peers can't pin file descriptors forever
      (one timer per connection).
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
      ``serve.http.request`` (see :mod:`repro.faults`); a due stall
      defers that connection's reading or answer.
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
        self.host, self.port = host, port
        self._listener = Listener(host, port)
        self._draining = False

    @property
    def draining(self) -> bool:
        """Is the server refusing new work pending :meth:`close`?"""
        return self._draining

    async def start(self) -> "HttpServerBase":
        self.host, self.port = await self._listener.open(
            lambda: _HttpConnection(self))
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
        # Only a deferred answer is a task, and draining defers none.
        if self._listener.tasks:
            await asyncio.wait(self._listener.tasks, timeout=timeout)
        elapsed = time.monotonic() - start
        self.metrics.drain_seconds.set(elapsed)
        return elapsed

    async def close(self) -> None:
        """Stop accepting, close every accepted connection, cancel and
        await every pending answer."""
        await self._listener.close()

    async def __aenter__(self) -> "HttpServerBase":
        return await self.start()

    async def __aexit__(self, *exc_info: object) -> None:
        await self.close()

    # ------------------------------------------------------------------
    # Requests
    # ------------------------------------------------------------------

    def _respond(self, method: str, target: str, body: bytes) -> Answer:
        """Health checks, drain shedding, then the subclass router."""
        path, _, query = target.partition("?")
        if path in ("/healthz", "/readyz"):
            return self._health(method, path)
        if self._draining:
            self.metrics.increment("requests_shed")
            return 503, {"error": "server is draining"}
        delay = injected_delay("serve.http.request", path=path)
        if delay > 0:
            return self._stalled(delay, method, path, query, body)
        return self._route(method, path, query, body)

    async def _stalled(
        self, delay: float, method: str, path: str, query: str, body: bytes
    ) -> Tuple[int, object]:
        await asyncio.sleep(delay)
        answer = self._route(method, path, query, body)
        return answer if type(answer) is tuple else await answer

    def _health(self, method: str, path: str) -> Tuple[int, object]:
        if method != "GET":
            return 405, {"error": f"{method} not allowed on {path}"}
        if self._draining:
            return 503, {"status": "draining"}
        if path == "/readyz" and self._listener.full(self.max_clients):
            return 503, {"status": "saturated"}
        return 200, {"status": "ok" if path == "/healthz" else "ready"}

    def _route(
        self, method: str, path: str, query: str, body: bytes
    ) -> Answer:
        raise NotImplementedError  # pragma: no cover — subclass duty

    @staticmethod
    async def _off_loop(function, *args):
        # Reading a run file (and bootstrap resampling) is CPU and IO
        # on a worker thread, so RTR sessions sharing the event loop
        # keep being served.
        return await asyncio.get_running_loop().run_in_executor(
            None, function, *args)


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

    def _route(
        self, method: str, path: str, query: str, body: bytes
    ) -> Answer:
        if path == "/validity" and method == "GET":
            return 200, self._single_query(query_fields(query))
        if path == "/validity" and method == "POST":
            return self._batch_query(body)
        if path == "/metrics" and method == "GET":
            fmt = query_fields(query).get("format", "json")
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
        if path == "/status" and method == "GET":
            return 200, {
                "vrps": len(self.service),
                "serial": self.service.serial,
            }
        if path == "/experiments" or path.startswith("/experiments/"):
            if method != "GET":
                return 405, {"error": f"{method} not allowed on {path}"}
            return self._experiments(path)
        if path == "/diff":
            if method != "GET":
                return 405, {"error": f"{method} not allowed on /diff"}
            return self._diff(query_fields(query))
        if path in ("/validity", "/metrics", "/status"):
            return 405, {"error": f"{method} not allowed on {path}"}
        return 404, {"error": f"no such endpoint {path}"}

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

    async def _diff(self, params: Dict[str, str]) -> Tuple[int, object]:
        """``GET /diff?a=&b=``: deterministic run-to-run comparison."""
        self.metrics.increment("experiment_requests")
        a_id = params.get("a")
        b_id = params.get("b")
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

    def _single_query(self, params: Dict[str, str]) -> Dict[str, object]:
        asn, prefix = _parse_pair(params.get("asn"), params.get("prefix"))
        return self.service.validity(asn, prefix).to_json()

    def _batch_query(self, body: bytes) -> Answer:
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
            return self._batch_off_loop(pairs)
        return 200, _results(self.service.validity_batch(pairs))

    async def _batch_off_loop(self, pairs: list) -> Tuple[int, object]:
        # Don't stall RTR sessions sharing this loop: the lookup walk
        # is pure CPU over an immutable snapshot, so it can run on a
        # worker thread.
        results = await self._off_loop(self.service.validity_batch, pairs)
        return 200, _results(results)


def _results(results) -> Dict[str, object]:
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
