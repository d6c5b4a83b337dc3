"""Asyncio RTR distribution: one cache, thousands of router sessions.

The paper's deployment story (§6) needs the local cache to be cheap on
general-purpose hardware, which rules out a thread per router and a
table re-encode per Reset Query.  This is the repo's one RTR server:

* **One event loop, zero per-client threads.**  Each router session is
  a coroutine multiplexed by asyncio; concurrency is bounded by file
  descriptors, not thread stacks.
* **Encode once, fan out by reference.**  Responses come from the
  per-serial :class:`~repro.serve.frames.FrameCache`; serving the same
  serial to 1,000 routers performs one table encode and 1,000
  zero-copy buffer writes.
* **Backpressure-aware.**  After writing a data frame the handler
  awaits ``drain()``, so one slow router throttles only its own
  coroutine while others stream at full speed.  Serial Notify
  broadcasts are 12-byte fire-and-forget writes that never block the
  update path on a congested peer.
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
from typing import Iterable, Optional, Set

from ..faults.plan import fire_async
from ..netbase.errors import ReproError
from ..netbase.loopthread import LoopThread, close_server
from ..rpki.vrp import Vrp
from ..rtr.client import RouterSession, RtrClientError
from ..rtr.pdu import (
    CacheResetPdu,
    ErrorReportPdu,
    Pdu,
    PduError,
    ResetQueryPdu,
    SerialNotifyPdu,
    SerialQueryPdu,
    decode_stream,
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
    ``requests_shed``); ``client_deadline`` bounds every post-write
    ``drain()`` — a consumer that cannot absorb a frame within the
    deadline is disconnected (``clients_evicted``) instead of pinning
    an unbounded write buffer in server memory.
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
        self._requested_host = host
        self._requested_port = port
        self.host = host
        self.port = port
        self._server: Optional[asyncio.base_events.Server] = None
        self._writers: Set[asyncio.StreamWriter] = set()
        self._tasks: Set[asyncio.Task] = set()
        self._closing = False
        if initial:
            self.state.update(initial)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> "AsyncRtrServer":
        self._closing = False
        self._server = await asyncio.start_server(
            self._accept,
            self._requested_host,
            self._requested_port,
        )
        self.host, self.port = self._server.sockets[0].getsockname()[:2]
        return self

    async def close(self) -> None:
        """Stop accepting, close every router connection, cancel and
        await every session handler, then wait for the listener."""
        if self._server is None:
            return
        self._closing = True
        server, self._server = self._server, None
        await close_server(
            server, [writer.transport for writer in self._writers],
            self._tasks)

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
            for writer in list(self._writers):
                if writer.is_closing():
                    continue
                # 12 bytes, fire-and-forget: a congested router delays
                # its own notify, never the update path or its peers.
                writer.write(notify)
                self.metrics.increment("notifies_sent")
                self.metrics.increment("bytes_sent", len(notify))
                self.metrics.increment("pdus_sent")
        return diff

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------

    def _accept(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Register a connection and its handler the moment it is made,
        so :meth:`close` owns it before the handler first runs."""
        if self._closing:
            writer.transport.abort()
            return
        if (
            self.max_clients is not None
            and len(self._writers) >= self.max_clients
        ):
            # Shed at accept: a full house must not grow its memory
            # footprint per extra router; the router retries later.
            self.metrics.increment("requests_shed")
            writer.close()
            return
        self._writers.add(writer)
        self.metrics.increment("connections_opened")
        task = asyncio.get_running_loop().create_task(
            self._handle_connection(reader, writer))
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        buffer = b""
        try:
            await fire_async("serve.rtr.accept")
            while True:
                chunk = await reader.read(_RECV_CHUNK)
                if not chunk:
                    break
                buffer += chunk
                try:
                    pdus, buffer = decode_stream(buffer)
                except PduError as exc:
                    await self._send(writer, encode_pdu(ErrorReportPdu(
                        ErrorReportPdu.CORRUPT_DATA, text=str(exc))), 1)
                    break
                for pdu in pdus:
                    await self._dispatch(writer, pdu)
        except OSError:
            # ConnectionError and injected IO faults alike end the
            # session, never the server.
            pass
        finally:
            self.metrics.increment("connections_closed")
            writer.close()
            try:
                # Registered until the transport is gone, so close()
                # can abort one still flushing to a router that
                # stopped reading.
                await writer.wait_closed()
            except OSError:
                pass
            finally:
                self._writers.discard(writer)

    async def _dispatch(self, writer: asyncio.StreamWriter, pdu: Pdu) -> None:
        if isinstance(pdu, ResetQueryPdu):
            frame, pdu_count = self.frames.full_table()
            self.metrics.increment("reset_queries")
            await self._send(writer, frame, pdu_count)
        elif isinstance(pdu, SerialQueryPdu):
            self.metrics.increment("serial_queries")
            if pdu.session_id != self.state.session_id:
                self.metrics.increment("cache_resets_sent")
                await self._send(writer, encode_pdu(CacheResetPdu()), 1)
                return
            cached = self.frames.diff(pdu.serial)
            if cached is None:
                self.metrics.increment("cache_resets_sent")
                await self._send(writer, encode_pdu(CacheResetPdu()), 1)
                return
            frame, pdu_count = cached
            await self._send(writer, frame, pdu_count)
        else:
            await self._send(writer, encode_pdu(ErrorReportPdu(
                ErrorReportPdu.UNSUPPORTED_PDU,
                text=f"cache cannot handle {type(pdu).__name__}")), 1)

    async def _send(
        self, writer: asyncio.StreamWriter, frame: bytes, pdu_count: int
    ) -> None:
        """One frame, one write, then drain: per-client backpressure.

        With ``client_deadline`` set the drain is bounded: a consumer
        that cannot take the frame in time is evicted (its connection
        closed, the handler unwinding via the read side) so slow
        routers bound, rather than grow, server memory.
        """
        if writer.is_closing():
            return
        await fire_async("serve.rtr.send")
        writer.write(frame)
        self.metrics.increment("bytes_sent", len(frame))
        self.metrics.increment("pdus_sent", pdu_count)
        try:
            if self.client_deadline is not None:
                await asyncio.wait_for(writer.drain(), self.client_deadline)
            else:
                await writer.drain()
        except asyncio.TimeoutError:
            self.metrics.increment("clients_evicted")
            writer.close()
        except ConnectionError:
            pass


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
