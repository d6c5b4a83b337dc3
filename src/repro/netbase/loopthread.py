"""One private event loop in one daemon thread.

Every network component is an asyncio object: the serve tier's RTR
and shard-worker servers and the BGP speaker.  Synchronous callers
(:class:`~repro.core.pipeline.LocalCache`, the ``repro-roa
shard-worker`` command, tests) hold them through a facade that owns a
:class:`LoopThread`.  This is the only place in the package that
creates a loop, runs it in a thread, or submits coroutines to it from
outside.
"""

from __future__ import annotations

import asyncio
import threading
from typing import Any, Callable, Coroutine, Optional

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
