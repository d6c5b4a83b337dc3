"""The router side of RPKI-to-Router: a synchronous RTR client.

Routers use this to populate their validated-prefix table (the input to
RFC 6811 origin validation).  The client performs Reset/Serial queries,
applies announce/withdraw prefix PDUs, and tracks the cache's serial so
subsequent syncs are incremental.
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

__all__ = ["RtrClient", "RtrClientError"]


class RtrClientError(ReproError):
    """Protocol violation or cache-reported error."""


class RtrClient:
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
        self._socket = socket.create_connection((host, port), timeout=timeout)
        self._buffer = PduBuffer()
        self._vrps: set[Vrp] = set()
        self.session_id: Optional[int] = None
        self.serial: Optional[int] = None

    @property
    def vrps(self) -> frozenset[Vrp]:
        """The router's current validated prefix table."""
        return frozenset(self._vrps)

    def close(self) -> None:
        try:
            self._socket.close()
        except OSError:
            pass

    def __enter__(self) -> "RtrClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Synchronization
    # ------------------------------------------------------------------

    def sync(self) -> int:
        """Bring the local table up to date; returns PDUs processed.

        Sends a Serial Query when a serial is known, falling back to a
        full Reset Query on Cache Reset (or on first sync).
        """
        if self.serial is None or self.session_id is None:
            return self._reset_sync()
        self._send(SerialQueryPdu(self.session_id, self.serial))
        first = self._recv_response_header()
        if isinstance(first, CacheResetPdu):
            return self._reset_sync()
        if not isinstance(first, CacheResponsePdu):
            raise RtrClientError(f"expected Cache Response, got {first}")
        return 1 + self._consume_data(first.session_id)

    def _reset_sync(self) -> int:
        self._send(ResetQueryPdu())
        first = self._recv_response_header()
        if not isinstance(first, CacheResponsePdu):
            raise RtrClientError(f"expected Cache Response, got {first}")
        self._vrps.clear()
        return 1 + self._consume_data(first.session_id)

    def _recv_response_header(self) -> Pdu:
        """The next PDU that answers a query.

        Serial Notifies may already sit in the receive buffer (the
        cache pushes one per update); they are advisory and skipped.
        """
        while True:
            pdu = self._recv_pdu()
            if not isinstance(pdu, SerialNotifyPdu):
                return pdu

    def _consume_data(self, session_id: int) -> int:
        processed = 0
        while True:
            pdu = self._recv_pdu()
            processed += 1
            if isinstance(pdu, (Ipv4PrefixPdu, Ipv6PrefixPdu)):
                vrp = pdu_to_vrp(pdu)
                if pdu.flags & FLAG_ANNOUNCE:
                    self._vrps.add(vrp)
                else:
                    self._vrps.discard(vrp)
            elif isinstance(pdu, EndOfDataPdu):
                self.session_id = session_id
                self.serial = pdu.serial
                return processed
            elif isinstance(pdu, ErrorReportPdu):
                raise RtrClientError(
                    f"cache reported error {pdu.error_code}: {pdu.text}"
                )
            elif isinstance(pdu, SerialNotifyPdu):
                continue  # a notify racing the data stream is harmless
            else:
                raise RtrClientError(f"unexpected PDU {pdu}")

    def wait_for_notify(self, timeout: float = 5.0) -> SerialNotifyPdu:
        """Block until the cache sends Serial Notify (new data signal)."""
        previous = self._socket.gettimeout()
        self._socket.settimeout(timeout)
        try:
            while True:
                pdu = self._recv_pdu()
                if isinstance(pdu, SerialNotifyPdu):
                    return pdu
        finally:
            self._socket.settimeout(previous)

    # ------------------------------------------------------------------
    # Wire helpers
    # ------------------------------------------------------------------

    def _send(self, pdu: Pdu) -> None:
        fire("rtr.client.send", pdu=type(pdu).__name__)
        self._socket.sendall(encode_pdu(pdu))

    def _recv_pdu(self) -> Pdu:
        while True:
            pdu = self._buffer.next()
            if pdu is not None:
                return pdu
            fire("rtr.client.recv")
            chunk = self._socket.recv(65536)
            if not chunk:
                raise RtrClientError("cache closed the connection")
            self._buffer.feed(chunk)
