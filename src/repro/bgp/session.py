"""A minimal BGP speaker: RFC 4271 sessions over TCP.

What the paper's Figure 1 implies but never draws: routers applying
RFC 6811 origin validation to real UPDATEs, with VRPs learned over RTR
(policy is :mod:`repro.bgp.simulation`'s model).  :class:`BgpSession`
is one session without I/O, its six RFC 4271 §8 states one
:data:`TABLE`; :class:`BgpSpeaker` drives a session per peer over
asyncio streams on a :class:`~repro.netbase.loopthread.LoopThread`.
"""

from __future__ import annotations

import asyncio
import enum
from collections import namedtuple
from typing import Any, Callable, Optional

from ..netbase.errors import ReproError
from ..netbase.loopthread import LoopThread
from ..netbase.prefix import Prefix
from .announcement import Announcement
from .message import (
    HEADER_LENGTH, MARKER, TYPE_KEEPALIVE, TYPE_NOTIFICATION, TYPE_OPEN,
    TYPE_UPDATE, BgpHeader, BgpMessageError, KeepaliveMessage,
    NotificationMessage, OpenMessage, UpdateMessage, announcement_to_update,
    decode_message, encode_message, update_to_announcements,
)
from .origin_validation import ValidationState, VrpIndex
from .rib import AdjRibIn, Rib

__all__ = ["BgpSession", "BgpSessionError", "BgpSpeaker", "Event", "State"]

#: RFC 4271 §8.2.2's HoldTimer until the peer's OPEN names a hold time.
OPEN_HOLD_TIME = 240.0

#: NOTIFICATION (code, subcode) for a body that does not decode (§6).
_BODY_ERRORS = {TYPE_OPEN: (2, 0), TYPE_UPDATE: (3, 0),
                TYPE_KEEPALIVE: (1, 2), TYPE_NOTIFICATION: (1, 2)}


class BgpSessionError(ReproError):
    """Session setup or protocol failure."""


class State(enum.Enum):
    """The six session states of RFC 4271 §8.2.2."""

    IDLE, CONNECT, ACTIVE, OPEN_SENT, OPEN_CONFIRM, ESTABLISHED = range(6)


class Event(enum.Enum):
    """The inputs of RFC 4271 §8.1 the table is keyed on; a message's
    is valued by its wire type code, MESSAGE_ERROR is one that fails."""

    OPEN, UPDATE = TYPE_OPEN, TYPE_UPDATE
    NOTIFICATION, KEEPALIVE = TYPE_NOTIFICATION, TYPE_KEEPALIVE
    START, PASSIVE_START, TCP_CONFIRMED, TCP_FAILS = range(10, 14)
    HOLD_EXPIRES, KEEPALIVE_EXPIRES, MESSAGE_ERROR = range(14, 17)


#: What one input produced, each in order: messages for the peer,
#: UPDATEs received in Established (for the RIBs), states entered.
Output = namedtuple("Output", "send updates states")


class BgpSession:
    """One BGP session without I/O, offering ``open`` to its peer.

    Events, bytes and clock readings go in (``handle``, ``receive``,
    ``tick`` when ``deadline`` is due); an :class:`Output` comes out.
    Hold time: ``min(local, peer)``, 0 for no timers; keepalive: a third
    of it.  A failed session sends one NOTIFICATION at most, goes Idle
    and says why in ``error``."""

    def __init__(self, open_message: OpenMessage,
                 expected_asn: Optional[int] = None) -> None:
        self.open, self.expected_asn = open_message, expected_asn
        self.state = State.IDLE
        self.peer_asn: Optional[int] = None
        self.hold = 0
        self.error = "the peer closed the session"
        self._buffer = bytearray()
        self._hold_at = self._keepalive_at = None  # the timers' deadlines

    def handle(self, event: Event, now: float, payload: Any = None) -> Output:
        return self._step(now, [(event, payload)])

    def receive(self, data: bytes, now: float) -> Output:
        self._buffer += data
        return self._step(now, self._messages())

    def tick(self, now: float) -> Output:
        """Fire the timer that is due, if one is; the HoldTimer first."""
        due = [(event, None) for at, event in (
            (self._hold_at, Event.HOLD_EXPIRES),
            (self._keepalive_at, Event.KEEPALIVE_EXPIRES),
        ) if at is not None and now >= at]
        return self._step(now, due[:1])

    @property
    def deadline(self) -> Optional[float]:
        return min((at for at in (self._hold_at, self._keepalive_at)
                    if at is not None), default=None)

    def _step(self, now: float, events: Any) -> Output:
        self._now, self._out = now, Output([], [], [])
        for event, payload in events:
            row = TABLE.get((self.state, event))
            if row is None:  # RFC 4271 §6.6: Finite State Machine Error
                row = (State.IDLE, lambda session, _: session._notify(
                    5, 0, f"{event.name} in {session.state.name}"))
            next_state, action = row
            if action is not None:
                next_state = action(self, payload) or next_state
            if next_state is not self.state:
                self.state = next_state
                self._out.states.append(next_state)
            if next_state is State.IDLE:
                self._hold_at = self._keepalive_at = None
        return self._out

    def _messages(self):
        """``(event, payload)`` per whole message at the buffer's head;
        a decode error's payload is its NOTIFICATION's arguments."""
        buffer = self._buffer
        while len(buffer) >= HEADER_LENGTH and self.state is not State.IDLE:
            header = None
            try:
                header = BgpHeader.decode(buffer)
                if len(buffer) < header.length:
                    return
                message, length = decode_message(bytes(buffer[:header.length]))
            except BgpMessageError as exc:
                code = ((1, 2 if buffer[:16] == MARKER else 1) if header is None
                        else _BODY_ERRORS.get(header.message_type, (1, 3)))
                yield Event.MESSAGE_ERROR, (*code, str(exc))
                return
            del buffer[:length]
            yield Event(header.message_type), message

    def _notify(self, code: int, subcode: int, reason: str) -> State:
        """The one place a NOTIFICATION is built; the session goes Idle."""
        self._out.send.append(NotificationMessage(code, subcode))
        self.error = f"sent NOTIFICATION ({code}, {subcode}): {reason}"
        return State.IDLE

    def _send_open(self, _: None) -> None:
        self._out.send.append(self.open)
        self._hold_at = self._now + OPEN_HOLD_TIME

    def _accept_open(self, message: OpenMessage) -> Optional[State]:
        if self.expected_asn not in (None, message.asn):
            return self._notify(2, 2, f"expected AS{self.expected_asn}, "
                                      f"peer claims AS{message.asn}")
        if message.hold_time in (1, 2):
            return self._notify(2, 6, f"hold time {message.hold_time}")
        self.peer_asn = message.asn
        self.hold = min(self.open.hold_time, message.hold_time)
        self._send_keepalive(None)
        self._heard(None)

    def _heard(self, _: Any) -> None:
        """Restart the HoldTimer: the peer is alive."""
        self._hold_at = self._now + self.hold if self.hold else None

    def _send_keepalive(self, _: None) -> None:
        self._out.send.append(KeepaliveMessage())
        self._keepalive_at = self._now + self.hold / 3 if self.hold else None

    def _take_update(self, update: UpdateMessage) -> None:
        self._out.updates.append(update)
        self._heard(None)


_S, _UP = BgpSession, (State.OPEN_SENT, State.OPEN_CONFIRM, State.ESTABLISHED)

#: ``(state, event) → (next state, action)``; an action may return the
#: state to enter instead.  An event with no row is a Finite State
#: Machine Error: NOTIFICATION (5, 0), then Idle.
TABLE: dict[tuple[State, Event], tuple[State, Optional[Callable]]] = {
    (State.IDLE, Event.START): (State.CONNECT, None),
    (State.IDLE, Event.PASSIVE_START): (State.ACTIVE, None),
    (State.CONNECT, Event.TCP_CONFIRMED): (State.OPEN_SENT, _S._send_open),
    (State.ACTIVE, Event.TCP_CONFIRMED): (State.OPEN_SENT, _S._send_open),
    (State.OPEN_SENT, Event.OPEN): (State.OPEN_CONFIRM, _S._accept_open),
    (State.OPEN_CONFIRM, Event.KEEPALIVE): (State.ESTABLISHED, _S._heard),
    (State.ESTABLISHED, Event.KEEPALIVE): (State.ESTABLISHED, _S._heard),
    (State.ESTABLISHED, Event.UPDATE): (State.ESTABLISHED, _S._take_update),
    **{(state, Event.KEEPALIVE_EXPIRES): (state, _S._send_keepalive)
       for state in (State.OPEN_CONFIRM, State.ESTABLISHED)},
    **{(state, Event.HOLD_EXPIRES): (State.IDLE, lambda session, _:
       session._notify(4, 0, "hold timer expired")) for state in _UP},
    **{(state, Event.MESSAGE_ERROR): (State.IDLE, lambda session, error:
       session._notify(*error)) for state in _UP},
    **{(state, Event.NOTIFICATION): (State.IDLE, None) for state in _UP},
    **{(state, Event.TCP_FAILS): (State.IDLE, None) for state in State},
}


class BgpSpeaker:
    """A BGP-4 speaker on a localhost port, offering ``hold_time`` (0: no
    timers); with a ``vrp_index`` it rejects routes that validate
    INVALID at ingress (RFC 6811 §5).  Typical use::

        with BgpSpeaker(111) as left, BgpSpeaker(3356) as right:
            right.connect_to("127.0.0.1", left.port, expected_asn=111)
            left.announce(Announcement(Prefix.parse("10.0.0.0/8"), (111,)))
            right.wait_for_route(Prefix.parse("10.0.0.0/8"))
    """

    def __init__(self, asn: int, *, bgp_identifier: Optional[int] = None,
                 vrp_index: Optional[VrpIndex] = None, hold_time: int = 90,
                 host: str = "127.0.0.1", port: int = 0) -> None:
        self.asn, self.hold_time = asn, hold_time
        self.bgp_identifier = (bgp_identifier if bgp_identifier is not None
                               else 0x0A000000 + asn % 2**24)
        self.host, self.port = host, port
        self._open = OpenMessage(asn, hold_time, self.bgp_identifier)
        # The RIBs and everything below change on the loop thread only.
        self.loc_rib, self.adj_rib_in = Rib(), AdjRibIn()
        self._vrp_index = vrp_index
        self._rejected: list[Announcement] = []
        self._own_routes: dict[Prefix, Announcement] = {}
        self._peers: dict[int, asyncio.StreamWriter] = {}
        self._tasks: set[asyncio.Task] = set()
        self._loop = LoopThread("bgp-speaker-loop")

    def start(self) -> "BgpSpeaker":
        self._loop.start(self._listen)
        return self

    def close(self) -> None:
        """Stop listening and end every session; a no-op when stopped."""
        self._loop.stop(self._shutdown)

    def __enter__(self) -> "BgpSpeaker":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    async def _listen(self) -> None:
        self._changed = asyncio.Event()  # which _signal() replaces
        self._server = await asyncio.start_server(
            lambda reader, writer: self._run(
                BgpSession(self._open), reader, writer),
            self.host, self.port)
        self.host, self.port = self._server.sockets[0].getsockname()[:2]

    async def _shutdown(self) -> None:
        self._server.close()
        for task in self._tasks:
            task.cancel()
        await asyncio.gather(*self._tasks, return_exceptions=True)
        await self._server.wait_closed()

    def connect_to(self, host: str, port: int, *, expected_asn: Optional[int] = None,
                   timeout: float = 5.0) -> int:
        """Open a session to a remote speaker; return the peer's ASN."""
        session = BgpSession(self._open, expected_asn)

        async def connect() -> None:
            session.handle(Event.START, asyncio.get_running_loop().time())
            streams = await asyncio.wait_for(
                asyncio.open_connection(host, port), timeout)
            asyncio.create_task(self._run(session, *streams))

        self._loop.call(connect())
        self._wait(lambda: session.state in (State.ESTABLISHED, State.IDLE),
                   timeout, f"no session with {host}:{port} in {timeout:g}s")
        if session.state is State.IDLE:
            raise BgpSessionError(session.error)
        return session.peer_asn

    async def _run(self, session: BgpSession, reader: asyncio.StreamReader,
                   writer: asyncio.StreamWriter) -> None:
        """The per-peer coroutine, whichever side connected: feed
        ``session`` the connection and the clock until it is Idle."""
        if not self._server.is_serving():  # accepted as close() began
            writer.close()
            return
        task = asyncio.current_task()
        self._tasks.add(task)
        clock = asyncio.get_running_loop().time
        if session.state is State.IDLE:  # an inbound connection
            session.handle(Event.PASSIVE_START, clock())
        out = session.handle(Event.TCP_CONFIRMED, clock())
        try:
            while True:
                writer.write(b"".join(map(encode_message, out.send)))
                if State.ESTABLISHED in out.states:
                    self._peers[session.peer_asn] = writer
                    writer.write(b"".join(encode_message(announcement_to_update(
                        route)) for route in self._own_routes.values()))
                for update in out.updates:
                    self._learn(session.peer_asn, update)
                self._signal()
                await writer.drain()
                if session.state is State.IDLE:
                    return
                deadline = session.deadline
                try:
                    data = await asyncio.wait_for(
                        reader.read(65536),
                        None if deadline is None else deadline - clock())
                except asyncio.TimeoutError:
                    out = session.tick(clock())
                    continue
                except OSError:
                    data = b""
                out = (session.receive(data, clock()) if data
                       else session.handle(Event.TCP_FAILS, clock()))
        except OSError:
            pass  # the peer is gone; so is the session
        finally:
            self._tasks.discard(task)
            if self._peers.get(session.peer_asn) is writer:
                del self._peers[session.peer_asn]
            writer.close()
            self._signal()

    def _signal(self) -> None:
        """Wake every :meth:`_wait` to check its condition again."""
        self._changed.set()
        self._changed = asyncio.Event()

    def _wait(self, ready: Callable[[], Any], timeout: float,
              failure: str) -> Any:
        """The first true value of ``ready()``, checked on the loop."""
        async def until() -> Any:
            while not (value := ready()):
                await self._changed.wait()
            return value

        try:
            return self._loop.call(asyncio.wait_for(until(), timeout))
        except TimeoutError:
            raise BgpSessionError(failure) from None

    def set_vrp_index(self, index: Optional[VrpIndex]) -> None:
        """Install (or clear) the validated prefix table."""
        self._vrp_index = index

    def announce(self, announcement: Announcement) -> None:
        """Originate (or re-advertise) a route to every peer."""
        self._loop.call(self._originate(announcement.prefix, announcement))

    def withdraw(self, prefix: Prefix) -> None:
        """Withdraw one of our routes from every peer."""
        self._loop.call(self._originate(prefix, None))

    async def _originate(self, prefix: Prefix,
                         announcement: Optional[Announcement]) -> None:
        if announcement is None:
            self._own_routes.pop(prefix, None)
            self.loc_rib.withdraw(prefix)
            data = encode_message(UpdateMessage(withdrawn=(prefix,)))
        else:
            self._own_routes[prefix] = announcement
            self.loc_rib.install(announcement)
            data = encode_message(announcement_to_update(announcement))
        for writer in self._peers.values():
            writer.write(data)

    @property
    def rejected_routes(self) -> list[Announcement]:
        """Routes refused by origin validation."""
        return list(self._rejected)

    def peers(self) -> list[int]:
        """The ASNs of the Established sessions."""
        return sorted(self._peers)

    def wait_for_peer(self, peer_asn: int, timeout: float = 5.0) -> None:
        self._wait(lambda: peer_asn in self._peers, timeout,
                   f"no session with AS{peer_asn}")

    def wait_for_route(self, prefix: Prefix, timeout: float = 5.0) -> Announcement:
        return self._wait(lambda: self.loc_rib.route_for_prefix(prefix),
                          timeout, f"no route to {prefix} arrived")

    def wait_for_withdrawal(self, prefix: Prefix, timeout: float = 5.0) -> None:
        self._wait(lambda: self.loc_rib.route_for_prefix(prefix) is None,
                   timeout, f"route to {prefix} not withdrawn")

    def wait_for_rejection(self, prefix: Prefix, timeout: float = 5.0) -> Announcement:
        return self._wait(lambda: next(
            (a for a in self._rejected if a.prefix == prefix), None),
            timeout, f"no rejected route for {prefix}")

    def _learn(self, peer_asn: int, update: UpdateMessage) -> None:
        for prefix in update.withdrawn:
            self.adj_rib_in.forget(peer_asn, prefix)
            if prefix not in self._own_routes:
                self.loc_rib.withdraw(prefix)
        for announcement in update_to_announcements(update):
            if self.asn in announcement.as_path:
                continue  # loop prevention
            if self._vrp_index is not None and self._vrp_index.validate(
                announcement.prefix, announcement.origin
            ) is ValidationState.INVALID:
                self._rejected.append(announcement)
                continue
            self.adj_rib_in.learn(peer_asn, announcement)
            if announcement.prefix not in self._own_routes:
                self.loc_rib.install(announcement)
