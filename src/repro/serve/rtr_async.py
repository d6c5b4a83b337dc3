"""Asyncio RTR distribution: one cache, thousands of router sessions.

The paper's deployment story (§6) needs the local cache to be cheap on
general-purpose hardware, which rules out a thread per router and a
table re-encode per Reset Query.  This is the repo's one RTR server:

* **One event loop, no per-client thread or task.**  Each router
  session is an :class:`asyncio.Protocol`; each PDU is answered inside
  ``data_received``, in arrival order.
* **Encode once, fan out by reference.**  Responses come from the
  per-serial :class:`~repro.serve.frames.FrameCache`; serving the same
  serial to 1,000 routers performs one table encode and 1,000
  zero-copy buffer writes.
* **Backpressure-aware.**  A router whose write buffer fills is not
  read or answered until it drains; it throttles only itself.  Serial
  Notify broadcasts are 12-byte fire-and-forget writes that never
  block the update path on a congested peer.
* **Serial Notify on update.**  :meth:`AsyncRtrServer.update` installs
  a new VRP set through :class:`~repro.rtr.session.CacheState` (no-op
  updates are coalesced there) and broadcasts the cached notify frame.

:class:`ThreadedRtrServer` wraps the async server in a dedicated
event-loop thread behind a synchronous surface
(``start/update/close/host/port/state``) — the only synchronous entry,
used by :class:`repro.core.pipeline.LocalCache` and synchronous tests.
:class:`AsyncRtrClient` is the matching coroutine client; it shares
its protocol handling with the synchronous client
(:class:`~repro.rtr.client.RouterSession`).
"""

from __future__ import annotations

import asyncio
from typing import Iterable, Optional

from ..faults.plan import injected_delay
from ..netbase.errors import ReproError
from ..netbase.loopthread import Listener, LoopThread
from ..rpki.vrp import Vrp
from ..rtr.client import RouterSession, RtrClientError
from ..rtr.pdu import (
    CacheResetPdu,
    ErrorReportPdu,
    Pdu,
    PduBuffer,
    PduError,
    ResetQueryPdu,
    SerialNotifyPdu,
    SerialQueryPdu,
    encode_pdu,
)
from ..rtr.session import CacheState, VrpDiff
from .frames import FrameCache
from .metrics import ServeMetrics, ensure_metrics

__all__ = ["AsyncRtrServer", "ThreadedRtrServer", "AsyncRtrClient"]

_RECV_CHUNK = 65536


class AsyncRtrServer:
    """Asyncio RTR cache server over a :class:`CacheState`.

    Pure-async API — create, ``await start()``, ``await update(...)``
    as data refreshes, ``await close()``.  All methods must run on the
    loop that called :meth:`start` (use :class:`ThreadedRtrServer`
    from synchronous code).

    Production hardening knobs: ``max_clients`` caps concurrent
    sessions (excess connections are closed on accept and counted as
    ``requests_shed``); ``client_deadline`` bounds how long a router's
    write buffer may stay full — a consumer that cannot absorb a frame
    within the deadline is disconnected (``clients_evicted``) instead
    of pinning an unbounded write buffer in server memory.
    """

    def __init__(
        self,
        initial: Iterable[Vrp] = (),
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        session_id: int = 1,
        history_limit: int = 16,
        metrics: Optional[ServeMetrics] = None,
        max_clients: Optional[int] = None,
        client_deadline: Optional[float] = None,
    ) -> None:
        if max_clients is not None and max_clients < 1:
            raise ReproError("max_clients must be positive")
        if client_deadline is not None and client_deadline <= 0:
            raise ReproError("client_deadline must be positive")
        self.max_clients = max_clients
        self.client_deadline = client_deadline
        self.state = CacheState(session_id, history_limit=history_limit)
        self.metrics = ensure_metrics(metrics)
        self.frames = FrameCache(self.state, metrics=self.metrics)
        self.host, self.port = host, port
        self._listener = Listener(host, port)
        if initial:
            self.state.update(initial)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> "AsyncRtrServer":
        self.host, self.port = await self._listener.open(
            lambda: _RtrConnection(self))
        return self

    async def close(self) -> None:
        """Stop accepting and close every router connection."""
        await self._listener.close()

    async def __aenter__(self) -> "AsyncRtrServer":
        return await self.start()

    async def __aexit__(self, *exc_info: object) -> None:
        await self.close()

    # ------------------------------------------------------------------
    # Data updates
    # ------------------------------------------------------------------

    async def update(self, vrps: Iterable[Vrp]) -> VrpDiff:
        """Install a new VRP set; broadcast Serial Notify if it changed."""
        diff = self.state.update(vrps)
        if not diff.empty:
            notify = self.frames.notify()
            routers = [transport for transport in self._listener.transports
                       if not transport.is_closing()]
            for transport in routers:
                # 12 bytes, fire-and-forget: a congested router delays
                # its own notify, never the update path or its peers.
                transport.write(notify)
            self.metrics.increment("notifies_sent", len(routers))
            self.metrics.increment("bytes_sent", len(notify) * len(routers))
            self.metrics.increment("pdus_sent", len(routers))
        return diff


class _RtrConnection(asyncio.Protocol):
    """One router session: each PDU is answered, in order, inside the
    callback that completed it, unless the session is held."""

    __slots__ = ("_server", "_transport", "_buffer", "_write_paused",
                 "_stall", "_evict")

    def __init__(self, server: AsyncRtrServer) -> None:
        self._server = server
        self._transport: Optional[asyncio.Transport] = None
        self._buffer = PduBuffer()
        self._write_paused = False
        # An injected stall; the eviction armed while writes are paused.
        self._stall: Optional[asyncio.TimerHandle] = None
        self._evict: Optional[asyncio.TimerHandle] = None

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self._transport = transport
        server = self._server
        if server._listener.full(server.max_clients):
            # Shed at accept: a full house must not grow its memory
            # footprint per extra router; the router retries later.
            server.metrics.increment("requests_shed")
            transport.close()
        elif server._listener.admit(transport):
            server.metrics.increment("connections_opened")
            self._fault("serve.rtr.accept")

    def data_received(self, data: bytes) -> None:
        self._buffer.feed(data)
        self._answer()

    def connection_lost(self, exc: Optional[Exception]) -> None:
        if self._server._listener.release(self._transport):
            self._server.metrics.increment("connections_closed")
        for timer in (self._stall, self._evict):
            if timer is not None:
                timer.cancel()

    def pause_writing(self) -> None:
        self._write_paused = True
        self._transport.pause_reading()
        if self._server.client_deadline is not None:
            self._evict = asyncio.get_running_loop().call_later(
                self._server.client_deadline, self._evict_router)

    def resume_writing(self) -> None:
        self._write_paused = False
        if self._evict is not None:
            self._evict.cancel()
        self._resume()

    def _answer(self) -> None:
        """Answer buffered PDUs in order until the session must wait."""
        while (
            self._stall is None
            and not self._write_paused
            and not self._transport.is_closing()
        ):
            try:
                pdu = self._buffer.next()
            except PduError as exc:
                self._send(encode_pdu(ErrorReportPdu(
                    ErrorReportPdu.CORRUPT_DATA, text=str(exc))), 1, True)
                return
            if pdu is None:
                return
            self._dispatch(pdu)

    def _dispatch(self, pdu: Pdu) -> None:
        server = self._server
        if isinstance(pdu, ResetQueryPdu):
            server.metrics.increment("reset_queries")
            self._send(*server.frames.full_table())
        elif isinstance(pdu, SerialQueryPdu):
            server.metrics.increment("serial_queries")
            cached = None
            if pdu.session_id == server.state.session_id:
                cached = server.frames.diff(pdu.serial)
            if cached is None:
                server.metrics.increment("cache_resets_sent")
                cached = encode_pdu(CacheResetPdu()), 1
            self._send(*cached)
        else:
            self._send(encode_pdu(ErrorReportPdu(
                ErrorReportPdu.UNSUPPORTED_PDU,
                text=f"cache cannot handle {type(pdu).__name__}")), 1)

    def _send(self, frame: bytes, pdu_count: int, close: bool = False) -> None:
        """One frame, one write; ``close`` ends the session after it."""
        if self._fault("serve.rtr.send", frame, pdu_count, close):
            self._write(frame, pdu_count, close)

    def _write(self, frame: bytes, pdu_count: int, close: bool) -> None:
        if not self._transport.is_closing():
            self._transport.write(frame)
            self._server.metrics.increment("bytes_sent", len(frame))
            self._server.metrics.increment("pdus_sent", pdu_count)
            if close:
                self._transport.close()

    def _fault(self, site: str, *write: object) -> bool:
        """Inject at ``site``; may the session go on at once?  An error
        ends the session, never the server; a stall holds it, then
        makes the deferred ``write``."""
        try:
            delay = injected_delay(site)
        except OSError:
            self._transport.close()
            return False
        if delay > 0:
            self._transport.pause_reading()
            self._stall = asyncio.get_running_loop().call_later(
                delay, self._release, write)
        return delay <= 0

    def _release(self, write: tuple) -> None:
        self._stall = None
        if write:
            self._write(*write)
        self._resume()

    def _resume(self) -> None:
        if self._stall is None and not self._write_paused:
            self._transport.resume_reading()
            self._answer()

    def _evict_router(self) -> None:
        """The write buffer stayed full for ``client_deadline``."""
        self._server.metrics.increment("clients_evicted")
        self._transport.abort()


class ThreadedRtrServer:
    """:class:`AsyncRtrServer` behind a synchronous facade.

    Proxies ``start/update/close`` onto a private
    :class:`~repro.netbase.loopthread.LoopThread`, so
    :class:`~repro.core.pipeline.LocalCache` and the synchronous
    :class:`~repro.rtr.client.RtrClient` never touch asyncio.
    """

    def __init__(
        self,
        initial: Iterable[Vrp] = (),
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        session_id: int = 1,
        history_limit: int = 16,
        metrics: Optional[ServeMetrics] = None,
        max_clients: Optional[int] = None,
        client_deadline: Optional[float] = None,
    ) -> None:
        self._async = AsyncRtrServer(
            initial,
            host=host,
            port=port,
            session_id=session_id,
            history_limit=history_limit,
            metrics=metrics,
            max_clients=max_clients,
            client_deadline=client_deadline,
        )
        self._loop = LoopThread("rtr-async-loop")

    @property
    def state(self) -> CacheState:
        return self._async.state

    @property
    def metrics(self) -> ServeMetrics:
        return self._async.metrics

    @property
    def frames(self) -> FrameCache:
        return self._async.frames

    @property
    def host(self) -> str:
        return self._async.host

    @property
    def port(self) -> int:
        return self._async.port

    def start(self) -> "ThreadedRtrServer":
        self._loop.start(self._async.start)
        return self

    def update(self, vrps: Iterable[Vrp]) -> VrpDiff:
        return self._loop.call(self._async.update(list(vrps)))

    def close(self) -> None:
        self._loop.stop(self._async.close)

    def __enter__(self) -> "ThreadedRtrServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class AsyncRtrClient(RouterSession):
    """Coroutine RTR router client (the async twin of ``RtrClient``).

    Hundreds of these can share one loop; each holds just a
    reader/writer pair and its :class:`~repro.rtr.client.RouterSession`
    state.
    """

    def __init__(self) -> None:
        super().__init__()
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    async def connect(self, host: str, port: int) -> "AsyncRtrClient":
        self._reader, self._writer = await asyncio.open_connection(host, port)
        return self

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            self._writer = None
            self._reader = None

    async def __aenter__(self) -> "AsyncRtrClient":
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.close()

    # ------------------------------------------------------------------
    # Synchronization
    # ------------------------------------------------------------------

    async def sync(self) -> int:
        """Bring the table up to date; returns PDUs processed."""
        assert self._writer is not None, "not connected"
        processed = 0
        while not processed:
            self._writer.write(encode_pdu(self._query()))
            while (processed := self._receive()) is None:
                await self._fill()
        return processed

    async def wait_for_notify(self, timeout: float = 5.0) -> SerialNotifyPdu:
        """Wait until the cache signals new data with Serial Notify.

        A timeout cannot lose bytes: StreamReader.read pops its buffer
        synchronously after the wakeup await, so cancellation mid-wait
        leaves any arrived bytes inside the stream for the next call.
        """
        async def _wait() -> SerialNotifyPdu:
            while True:
                pdu = await self._recv_pdu()
                if isinstance(pdu, SerialNotifyPdu):
                    return pdu

        return await asyncio.wait_for(_wait(), timeout)

    # ------------------------------------------------------------------
    # Wire helpers
    # ------------------------------------------------------------------

    async def _recv_pdu(self) -> Pdu:
        while (pdu := self._buffer.next()) is None:
            await self._fill()
        return pdu

    async def _fill(self) -> None:
        assert self._reader is not None, "not connected"
        chunk = await self._reader.read(_RECV_CHUNK)
        if not chunk:
            raise RtrClientError("cache closed the connection")
        self._buffer.feed(chunk)
