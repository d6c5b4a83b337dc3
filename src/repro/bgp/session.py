"""A minimal BGP speaker: sessions over TCP using the wire codec.

Enough of the RFC 4271 state machine to run realistic end-to-end
experiments on localhost: OPEN exchange, KEEPALIVEs, UPDATE
announcement/withdrawal, NOTIFICATION on protocol errors.  Policy is
out of scope (the propagation *model* lives in
:mod:`repro.bgp.simulation`); what this speaker adds is the part the
paper's Figure 1 implies but never draws — routers applying RFC 6811
origin validation to real UPDATE messages using VRPs learned over
RPKI-to-Router.

A speaker holds an Adj-RIB-In per peer and a Loc-RIB; when constructed
with a :class:`~repro.bgp.origin_validation.VrpIndex` (or given one
later via :meth:`set_vrp_index`), RPKI-invalid routes are rejected at
ingress, exactly like a router configured to drop invalids.

Threads service each peer connection; the public API is synchronous
and thread-safe.
"""

from __future__ import annotations

import socket
import threading
from typing import Optional

from ..netbase.errors import ReproError
from ..netbase.prefix import Prefix
from .announcement import Announcement
from .message import (
    BgpMessage,
    BgpMessageError,
    HEADER_LENGTH,
    KeepaliveMessage,
    NotificationMessage,
    OpenMessage,
    UpdateMessage,
    announcement_to_update,
    decode_message,
    encode_message,
    update_to_announcements,
)
from .origin_validation import ValidationState, VrpIndex
from .rib import AdjRibIn, Rib

__all__ = ["BgpSpeaker", "BgpSessionError"]


class BgpSessionError(ReproError):
    """Session setup or protocol failure."""


class _Peer:
    """One established session, serviced by a reader thread."""

    def __init__(self, speaker: "BgpSpeaker", connection: socket.socket,
                 peer_asn: int, residual: bytes) -> None:
        self.speaker = speaker
        self.connection = connection
        self.peer_asn = peer_asn
        self.established = threading.Event()
        # Bytes the handshake read past the peer's OPEN.
        self._buffer = residual

    def send(self, message: BgpMessage) -> None:
        self.connection.sendall(encode_message(message))

    def reader_loop(self) -> None:
        try:
            # Drain before the first recv: the handshake residue may
            # already hold whole messages and nothing more may follow.
            while self._drain():
                try:
                    chunk = self.connection.recv(65536)
                except OSError:
                    break
                if not chunk:
                    break
                self._buffer += chunk
        finally:
            self.speaker._drop_peer(self)

    def _drain(self) -> bool:
        from .message import BgpHeader

        while len(self._buffer) >= HEADER_LENGTH:
            try:
                header = BgpHeader.decode(self._buffer)
            except BgpMessageError as exc:
                self._notify_and_die(exc)
                return False
            if len(self._buffer) < header.length:
                return True  # framing incomplete: wait for more bytes
            try:
                message, consumed = decode_message(self._buffer)
            except BgpMessageError as exc:
                self._notify_and_die(exc)
                return False
            self._buffer = self._buffer[consumed:]
            if not self.speaker._handle_message(self, message):
                return False
        return True

    def _notify_and_die(self, exc: BgpMessageError) -> None:
        try:
            self.send(NotificationMessage(1, 0, str(exc).encode()[:64]))
        except OSError:
            pass


class BgpSpeaker:
    """A BGP-4 speaker bound to a localhost port.

    Args:
        asn: our AS number.
        bgp_identifier: 32-bit router ID.
        vrp_index: when given, incoming routes that validate INVALID
            are rejected (not installed in any RIB) — RFC 6811 §5
            "drop invalid" policy.

    Typical use::

        left = BgpSpeaker(111).start()
        right = BgpSpeaker(3356).start()
        right.connect_to("127.0.0.1", left.port, expected_asn=111)
        left.wait_for_peer(3356)
        left.announce(Announcement(Prefix.parse("168.122.0.0/16"), (111,)))
        right.wait_for_route(Prefix.parse("168.122.0.0/16"))
    """

    def __init__(
        self,
        asn: int,
        *,
        bgp_identifier: Optional[int] = None,
        vrp_index: Optional[VrpIndex] = None,
        hold_time: int = 90,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.asn = asn
        self.bgp_identifier = (
            bgp_identifier if bgp_identifier is not None else 0x0A000000 + asn % 2**24
        )
        self.hold_time = hold_time
        self.loc_rib = Rib()
        self.adj_rib_in = AdjRibIn()
        self._vrp_index = vrp_index
        self._rejected: list[Announcement] = []
        self._own_routes: dict[Prefix, Announcement] = {}
        self._peers: dict[int, _Peer] = {}
        self._lock = threading.RLock()
        self._closed = threading.Event()
        self._route_event = threading.Condition(self._lock)
        self._listener = socket.create_server((host, port))
        self.host, self.port = self._listener.getsockname()[:2]
        self._accept_thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> "BgpSpeaker":
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name=f"bgp-{self.asn}-accept", daemon=True
        )
        self._accept_thread.start()
        return self

    def close(self) -> None:
        self._closed.set()
        try:
            self._listener.close()
        except OSError:
            pass
        with self._lock:
            for peer in list(self._peers.values()):
                try:
                    peer.connection.close()
                except OSError:
                    pass
            self._peers.clear()

    def __enter__(self) -> "BgpSpeaker":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Session establishment
    # ------------------------------------------------------------------

    def connect_to(self, host: str, port: int, *, expected_asn: Optional[int] = None,
                   timeout: float = 5.0) -> int:
        """Open a session to a remote speaker; returns the peer ASN."""
        connection = socket.create_connection((host, port), timeout=timeout)
        connection.sendall(encode_message(self._open_message()))
        peer_open, residual = self._read_one_open(connection, timeout)
        if expected_asn is not None and peer_open.asn != expected_asn:
            connection.close()
            raise BgpSessionError(
                f"expected AS{expected_asn}, peer claims AS{peer_open.asn}"
            )
        connection.sendall(encode_message(KeepaliveMessage()))
        self._install_peer(connection, peer_open.asn, residual)
        return peer_open.asn

    def _open_message(self) -> OpenMessage:
        return OpenMessage(
            asn=self.asn,
            hold_time=self.hold_time,
            bgp_identifier=self.bgp_identifier,
        )

    @staticmethod
    def _read_one_open(
        connection: socket.socket, timeout: float
    ) -> tuple[OpenMessage, bytes]:
        """The peer's OPEN, plus whatever arrived behind it.

        TCP may coalesce the OPEN with the KEEPALIVE and first UPDATEs
        that follow; those bytes belong to the session's reader.
        """
        connection.settimeout(timeout)
        buffer = b""
        while True:
            try:
                message, consumed = decode_message(buffer)
            except BgpMessageError:
                chunk = connection.recv(65536)
                if not chunk:
                    raise BgpSessionError("peer closed during OPEN") from None
                buffer += chunk
                continue
            if isinstance(message, OpenMessage):
                return message, buffer[consumed:]
            if isinstance(message, KeepaliveMessage):
                buffer = buffer[consumed:]
                continue
            raise BgpSessionError(f"expected OPEN, got {message}")

    def _accept_loop(self) -> None:
        while not self._closed.is_set():
            try:
                connection, _address = self._listener.accept()
            except OSError:
                return
            try:
                peer_open, residual = self._read_one_open(connection, 5.0)
                connection.sendall(encode_message(self._open_message()))
                connection.sendall(encode_message(KeepaliveMessage()))
            except (BgpSessionError, OSError):
                connection.close()
                continue
            self._install_peer(connection, peer_open.asn, residual)

    def _install_peer(
        self, connection: socket.socket, peer_asn: int, residual: bytes
    ) -> None:
        peer = _Peer(self, connection, peer_asn, residual)
        with self._lock:
            self._peers[peer_asn] = peer
            # Existing routes are advertised to the new peer.
            for announcement in self._own_routes.values():
                peer.send(announcement_to_update(
                    announcement.prepended_by(self.asn)
                    if announcement.as_path[0] != self.asn
                    else announcement
                ))
        threading.Thread(
            target=peer.reader_loop,
            name=f"bgp-{self.asn}-peer-{peer_asn}",
            daemon=True,
        ).start()
        peer.established.set()
        with self._route_event:
            self._route_event.notify_all()

    def _drop_peer(self, peer: _Peer) -> None:
        with self._lock:
            if self._peers.get(peer.peer_asn) is peer:
                del self._peers[peer.peer_asn]
        try:
            peer.connection.close()
        except OSError:
            pass

    # ------------------------------------------------------------------
    # Routing operations
    # ------------------------------------------------------------------

    def set_vrp_index(self, index: Optional[VrpIndex]) -> None:
        """Install (or clear) the validated prefix table."""
        with self._lock:
            self._vrp_index = index

    def announce(self, announcement: Announcement) -> None:
        """Originate (or re-advertise) a route to every peer."""
        with self._lock:
            self._own_routes[announcement.prefix] = announcement
            self.loc_rib.install(announcement)
            for peer in self._peers.values():
                try:
                    peer.send(announcement_to_update(announcement))
                except OSError:
                    pass

    def withdraw(self, prefix: Prefix) -> None:
        """Withdraw one of our routes from every peer."""
        with self._lock:
            self._own_routes.pop(prefix, None)
            self.loc_rib.withdraw(prefix)
            update = UpdateMessage(withdrawn=(prefix,))
            for peer in self._peers.values():
                try:
                    peer.send(update)
                except OSError:
                    pass

    @property
    def rejected_routes(self) -> list[Announcement]:
        """Routes refused by origin validation (for inspection)."""
        with self._lock:
            return list(self._rejected)

    def peers(self) -> list[int]:
        with self._lock:
            return sorted(self._peers)

    # ------------------------------------------------------------------
    # Waiting helpers (tests and examples)
    # ------------------------------------------------------------------

    def wait_for_peer(self, peer_asn: int, timeout: float = 5.0) -> None:
        with self._route_event:
            if not self._route_event.wait_for(
                lambda: peer_asn in self._peers, timeout=timeout
            ):
                raise BgpSessionError(f"no session with AS{peer_asn}")

    def wait_for_route(self, prefix: Prefix, timeout: float = 5.0) -> Announcement:
        with self._route_event:
            if not self._route_event.wait_for(
                lambda: self.loc_rib.route_for_prefix(prefix) is not None,
                timeout=timeout,
            ):
                raise BgpSessionError(f"no route to {prefix} arrived")
            route = self.loc_rib.route_for_prefix(prefix)
            assert route is not None
            return route

    def wait_for_withdrawal(self, prefix: Prefix, timeout: float = 5.0) -> None:
        with self._route_event:
            if not self._route_event.wait_for(
                lambda: self.loc_rib.route_for_prefix(prefix) is None,
                timeout=timeout,
            ):
                raise BgpSessionError(f"route to {prefix} not withdrawn")

    def wait_for_rejection(self, prefix: Prefix, timeout: float = 5.0) -> Announcement:
        with self._route_event:
            if not self._route_event.wait_for(
                lambda: any(a.prefix == prefix for a in self._rejected),
                timeout=timeout,
            ):
                raise BgpSessionError(f"no rejected route for {prefix}")
            return next(a for a in self._rejected if a.prefix == prefix)

    # ------------------------------------------------------------------
    # Message handling
    # ------------------------------------------------------------------

    def _handle_message(self, peer: _Peer, message: BgpMessage) -> bool:
        """Returns False to terminate the session."""
        if isinstance(message, KeepaliveMessage):
            return True
        if isinstance(message, NotificationMessage):
            return False
        if isinstance(message, OpenMessage):
            try:
                peer.send(NotificationMessage(6, 0, b"unexpected OPEN"))
            except OSError:
                pass
            return False
        if isinstance(message, UpdateMessage):
            self._handle_update(peer, message)
            return True
        return True

    def _handle_update(self, peer: _Peer, update: UpdateMessage) -> None:
        with self._lock:
            for prefix in update.withdrawn:
                self.adj_rib_in.forget(peer.peer_asn, prefix)
                installed = self.loc_rib.route_for_prefix(prefix)
                if installed is not None and prefix not in self._own_routes:
                    self.loc_rib.withdraw(prefix)
            for announcement in update_to_announcements(update):
                if self.asn in announcement.as_path:
                    continue  # loop prevention
                if self._vrp_index is not None:
                    state = self._vrp_index.validate(
                        announcement.prefix, announcement.origin
                    )
                    if state is ValidationState.INVALID:
                        self._rejected.append(announcement)
                        continue
                self.adj_rib_in.learn(peer.peer_asn, announcement)
                if announcement.prefix not in self._own_routes:
                    self.loc_rib.install(announcement)
            self._route_event.notify_all()
