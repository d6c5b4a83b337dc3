"""One private event loop in one daemon thread.

Every network component is an asyncio object: the serve tier's RTR
and shard-worker servers and the BGP speaker.  Synchronous callers
(:class:`~repro.core.pipeline.LocalCache`, the ``repro-roa
shard-worker`` command, tests) hold them through a facade that owns a
:class:`LoopThread`.  This is the only place in the package that
creates a loop, runs it in a thread, or submits coroutines to it from
outside.  :class:`Listener` is the one way those servers bind, and
the one way they close what they accepted.
"""

from __future__ import annotations

import asyncio
import threading
from typing import Any, Callable, Coroutine, Optional, Set, Tuple

from .errors import ReproError

_JOIN_TIMEOUT = 5.0

#: A server's ``start`` or ``close``: called only once a loop exists,
#: so no coroutine is ever created and left un-awaited.
_Lifecycle = Callable[[], Coroutine[Any, Any, Any]]


class LoopThread:
    """Runs an asyncio server's lifecycle on a loop thread it owns.

    ``start(startup)`` spins the loop up and awaits ``startup()`` on
    it; ``stop(shutdown)`` awaits ``shutdown()`` and tears the thread
    down.
    """

    def __init__(self, name: str) -> None:
        self._name = name
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None

    def start(self, startup: _Lifecycle) -> None:
        # ``call`` may submit before the loop runs: it queues.
        loop = self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=loop.run_forever, name=self._name, daemon=True)
        self._thread.start()
        try:
            self.call(startup())
        except BaseException:
            # Don't leak the loop thread when the bind fails.
            self._teardown()
            raise

    def call(self, coro: Coroutine[Any, Any, Any]) -> Any:
        """Run ``coro`` on the loop thread and return its result."""
        assert self._loop is not None, "server not started"
        return asyncio.run_coroutine_threadsafe(coro, self._loop).result()

    def stop(self, shutdown: _Lifecycle) -> None:
        """Await ``shutdown()`` and end the thread; no-op when stopped."""
        if self._loop is None:
            return
        self.call(shutdown())
        self._teardown()

    def _teardown(self) -> None:
        assert self._loop is not None and self._thread is not None
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=_JOIN_TIMEOUT)
        if self._thread.is_alive():
            # Closing the loop under a still-running thread would
            # corrupt it; surface the wedge instead of pretending
            # the server stopped.
            raise ReproError(
                f"{self._name} thread did not stop within "
                f"{_JOIN_TIMEOUT:g}s"
            )
        self._loop.close()
        self._loop = None
        self._thread = None


class Listener:
    """One server's listening socket and everything it accepted.

    Each protocol's ``connection_made`` calls :meth:`admit` and its
    ``connection_lost`` :meth:`release`; :attr:`transports` holds the
    admitted connections, :attr:`tasks` what :meth:`spawn` started.
    """

    def __init__(self, host: str, port: int) -> None:
        self._requested = (host, port)
        self.transports: Set[asyncio.BaseTransport] = set()
        self.tasks: Set["asyncio.Task[Any]"] = set()
        self._server: Optional[asyncio.base_events.Server] = None
        self._closing = False

    async def open(self, protocol_factory: Callable) -> Tuple[str, int]:
        """Bind and listen; returns the bound ``(host, port)``."""
        self._closing = False
        self._server = await asyncio.get_running_loop().create_server(
            protocol_factory, *self._requested)
        return self._server.sockets[0].getsockname()[:2]

    def admit(self, transport: asyncio.BaseTransport) -> bool:
        """Own ``transport``; once close has begun, abort it instead."""
        if self._closing:
            transport.abort()
        else:
            self.transports.add(transport)
        return not self._closing

    def full(self, limit: Optional[int]) -> bool:
        """Are ``limit`` connections admitted (never, for None)?"""
        return limit is not None and len(self.transports) >= limit

    def release(self, transport: asyncio.BaseTransport) -> bool:
        """Forget a lost transport; was it admitted?"""
        admitted = transport in self.transports
        self.transports.discard(transport)
        return admitted

    def spawn(self, coro: Coroutine[Any, Any, Any]) -> "asyncio.Task[Any]":
        """Run ``coro`` as a task that :meth:`close` cancels."""
        task = asyncio.get_running_loop().create_task(coro)
        self.tasks.add(task)
        task.add_done_callback(self.tasks.discard)
        return task

    async def close(self) -> None:
        """Close the socket and everything it accepted; a no-op when
        not open.

        Accepting stops first; one loop turn then lets a connection
        already accepted get its transport, so no socket is left
        half-made.  Then the socket closes, every transport is aborted
        (a peer that stopped reading cannot hold up the close), every
        task is cancelled and awaited, and the call returns once every
        transport is gone.  A connection made after this starts is
        aborted by :meth:`admit`.
        """
        if self._server is None:
            return
        self._closing = True
        server, self._server = self._server, None
        loop = asyncio.get_running_loop()
        # A waiter taken before close() covers every live transport on
        # Python 3.11 too, where one taken after close() returns at once.
        gone = loop.create_task(server.wait_closed())
        for sock in server.sockets:
            loop.remove_reader(sock.fileno())
        await asyncio.sleep(0)
        server.close()
        for transport in list(self.transports):
            transport.abort()
        tasks = list(self.tasks)
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
        await gone
        await server.wait_closed()
