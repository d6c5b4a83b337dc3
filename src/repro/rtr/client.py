"""The router side of RPKI-to-Router: a synchronous RTR client.

Routers use this to populate their validated-prefix table (the input to
RFC 6811 origin validation).  The client performs Reset/Serial queries,
applies announce/withdraw prefix PDUs, and tracks the cache's serial so
subsequent syncs are incremental.

:class:`RouterSession` is that protocol without I/O; :class:`RtrClient`
drives it over a blocking socket and
:class:`~repro.serve.rtr_async.AsyncRtrClient` over asyncio streams.
"""

from __future__ import annotations

import socket
from typing import Optional

from ..faults.plan import fire
from ..netbase.errors import ReproError
from ..rpki.vrp import Vrp
from .pdu import (
    CacheResetPdu,
    CacheResponsePdu,
    EndOfDataPdu,
    ErrorReportPdu,
    FLAG_ANNOUNCE,
    Ipv4PrefixPdu,
    Ipv6PrefixPdu,
    Pdu,
    PduBuffer,
    ResetQueryPdu,
    SerialNotifyPdu,
    SerialQueryPdu,
    encode_pdu,
    pdu_to_vrp,
)

__all__ = ["RouterSession", "RtrClient", "RtrClientError"]


class RtrClientError(ReproError):
    """Protocol violation or cache-reported error."""


class RouterSession:
    """The router's half of an RTR session, without I/O.

    Holds the validated prefix table, the session id and serial it is
    current to, and the receive buffer.  A transport subclass sends
    :meth:`_query`, feeds what it reads into ``_buffer``, and calls
    :meth:`_receive` until a sync completes.
    """

    def __init__(self) -> None:
        self._buffer = PduBuffer()
        self._vrps: set[Vrp] = set()
        self.session_id: Optional[int] = None
        self.serial: Optional[int] = None
        # The sync in progress: whether it is a Reset Query, the Cache
        # Response's session id (None until it arrives), PDUs counted.
        self._resetting = True
        self._response: Optional[int] = None
        self._processed = 0

    @property
    def vrps(self) -> frozenset[Vrp]:
        """The router's current validated prefix table."""
        return frozenset(self._vrps)

    def _query(self) -> Pdu:
        """Start a sync: a Serial Query when a serial is known, else a
        Reset Query."""
        self._response = None
        self._resetting = self.serial is None or self.session_id is None
        if self._resetting:
            return ResetQueryPdu()
        return SerialQueryPdu(self.session_id, self.serial)

    def _receive(self) -> Optional[int]:
        """Apply every complete PDU in the buffer to the sync.

        Returns the PDUs processed once End of Data completes it (the
        Cache Response counted, Serial Notifies before it not); 0 when
        the cache answered a Serial Query with Cache Reset, after
        which :meth:`_query` asks for the full table; None when more
        bytes are needed.
        """
        next_pdu = self._buffer.next
        if self._response is None:
            pdu = next_pdu()
            # Serial Notifies may already sit in the buffer (the cache
            # pushes one per update); they are advisory and skipped.
            while isinstance(pdu, SerialNotifyPdu):
                pdu = next_pdu()
            if pdu is None:
                return None
            if isinstance(pdu, CacheResetPdu) and not self._resetting:
                self.serial = None
                return 0
            if not isinstance(pdu, CacheResponsePdu):
                raise RtrClientError(f"expected Cache Response, got {pdu}")
            if self._resetting:
                self._vrps.clear()
            self._response = pdu.session_id
            self._processed = 1
        vrps = self._vrps
        processed = self._processed
        while True:
            pdu = next_pdu()
            if pdu is None:
                self._processed = processed
                return None
            processed += 1
            if isinstance(pdu, (Ipv4PrefixPdu, Ipv6PrefixPdu)):
                if pdu.flags & FLAG_ANNOUNCE:
                    vrps.add(pdu_to_vrp(pdu))
                else:
                    vrps.discard(pdu_to_vrp(pdu))
            elif isinstance(pdu, EndOfDataPdu):
                self.session_id = self._response
                self.serial = pdu.serial
                self._response = None
                return processed
            elif isinstance(pdu, ErrorReportPdu):
                raise RtrClientError(
                    f"cache reported error {pdu.error_code}: {pdu.text}")
            elif not isinstance(pdu, SerialNotifyPdu):
                # A notify racing the data stream is harmless; this is not.
                raise RtrClientError(f"unexpected PDU {pdu}")


class RtrClient(RouterSession):
    """A synchronous RTR router client.

    Typical use::

        client = RtrClient(host, port)
        client.sync()                 # full Reset Query the first time
        ...
        client.sync()                 # incremental afterwards
        vrps = client.vrps            # feed to origin validation
        client.close()
    """

    def __init__(self, host: str, port: int, *, timeout: float = 5.0) -> None:
        super().__init__()
        self._socket = socket.create_connection((host, port), timeout=timeout)

    def close(self) -> None:
        try:
            self._socket.close()
        except OSError:
            pass

    def __enter__(self) -> "RtrClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def sync(self) -> int:
        """Bring the local table up to date; returns PDUs processed.

        Sends a Serial Query when a serial is known, falling back to a
        full Reset Query on Cache Reset (or on first sync).
        """
        processed = 0
        while not processed:
            self._send(self._query())
            while (processed := self._receive()) is None:
                self._fill()
        return processed

    def wait_for_notify(self, timeout: float = 5.0) -> SerialNotifyPdu:
        """Block until the cache sends Serial Notify (new data signal)."""
        previous = self._socket.gettimeout()
        self._socket.settimeout(timeout)
        try:
            while True:
                pdu = self._buffer.next()
                if pdu is None:
                    self._fill()
                elif isinstance(pdu, SerialNotifyPdu):
                    return pdu
        finally:
            self._socket.settimeout(previous)

    def _send(self, pdu: Pdu) -> None:
        fire("rtr.client.send", pdu=type(pdu).__name__)
        self._socket.sendall(encode_pdu(pdu))

    def _fill(self) -> None:
        fire("rtr.client.recv")
        chunk = self._socket.recv(65536)
        if not chunk:
            raise RtrClientError("cache closed the connection")
        self._buffer.feed(chunk)
