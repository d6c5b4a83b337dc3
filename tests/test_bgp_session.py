"""The BGP speaker: live over localhost TCP, and its session's state
table, timers and error codes driven without I/O."""

from __future__ import annotations

import socket
import threading
import time

import pytest

from repro.bgp import Announcement, VrpIndex
from repro.bgp.message import (
    HEADER_LENGTH,
    MARKER,
    BgpHeader,
    KeepaliveMessage,
    NotificationMessage,
    OpenMessage,
    announcement_to_update,
    decode_message,
    encode_message,
)
from repro.bgp.session import (
    OPEN_HOLD_TIME, TABLE, BgpSession, BgpSessionError, BgpSpeaker, Event,
    State,
)
from repro.netbase import Prefix
from repro.rpki import Vrp

from segmentation import splits


def p(text: str) -> Prefix:
    return Prefix.parse(text)


@pytest.fixture()
def pair():
    """Two connected speakers: AS 111 (origin) and AS 3356 (transit)."""
    with BgpSpeaker(111) as origin, BgpSpeaker(3356) as transit:
        transit.connect_to("127.0.0.1", origin.port, expected_asn=111)
        origin.wait_for_peer(3356)
        yield origin, transit


class TestSessionSetup:
    def test_open_exchange(self, pair):
        origin, transit = pair
        assert origin.peers() == [3356]
        assert transit.peers() == [111]

    def test_wrong_expected_asn_rejected(self):
        with BgpSpeaker(111) as origin, BgpSpeaker(3356) as transit:
            with pytest.raises(BgpSessionError):
                transit.connect_to("127.0.0.1", origin.port, expected_asn=999)

    def test_wait_for_missing_peer_times_out(self):
        with BgpSpeaker(111) as speaker:
            with pytest.raises(BgpSessionError):
                speaker.wait_for_peer(42, timeout=0.2)


class TestRouteExchange:
    def test_announce_and_learn(self, pair):
        origin, transit = pair
        origin.announce(Announcement(p("168.122.0.0/16"), (111,)))
        route = transit.wait_for_route(p("168.122.0.0/16"))
        assert route.as_path == (111,)
        assert transit.loc_rib.forward(p("168.122.1.1/32")) == route

    def test_withdraw(self, pair):
        origin, transit = pair
        origin.announce(Announcement(p("168.122.0.0/16"), (111,)))
        transit.wait_for_route(p("168.122.0.0/16"))
        origin.withdraw(p("168.122.0.0/16"))
        transit.wait_for_withdrawal(p("168.122.0.0/16"))
        assert transit.loc_rib.forward(p("168.122.1.1/32")) is None

    def test_routes_advertised_to_late_peer(self):
        with BgpSpeaker(111) as origin:
            origin.announce(Announcement(p("168.122.0.0/16"), (111,)))
            with BgpSpeaker(20) as late:
                late.connect_to("127.0.0.1", origin.port)
                late.wait_for_route(p("168.122.0.0/16"))

    def test_loop_prevention(self, pair):
        origin, transit = pair
        # transit replays a route already carrying origin's ASN
        transit.announce(Announcement(p("9.9.0.0/16"), (3356, 111)))
        with pytest.raises(BgpSessionError):
            origin.wait_for_route(p("9.9.0.0/16"), timeout=0.5)

    def test_ipv6_route(self, pair):
        origin, transit = pair
        origin.announce(Announcement(p("2001:db8::/32"), (111,)))
        route = transit.wait_for_route(p("2001:db8::/32"))
        assert route.prefix.family == 6


class TestOriginValidationAtIngress:
    def test_invalid_route_rejected(self):
        """A speaker configured with VRPs drops RPKI-invalid routes —
        the paper's §2 'routers ignore invalid BGP announcements'."""
        index = VrpIndex([Vrp(p("168.122.0.0/16"), 16, 111)])
        with BgpSpeaker(20, vrp_index=index) as validator, BgpSpeaker(666) as attacker:
            attacker.connect_to("127.0.0.1", validator.port)
            validator.wait_for_peer(666)
            attacker.announce(Announcement(p("168.122.0.0/24"), (666,)))
            rejected = validator.wait_for_rejection(p("168.122.0.0/24"))
            assert rejected.origin == 666
            assert validator.loc_rib.route_for_prefix(p("168.122.0.0/24")) is None

    def test_forged_origin_subprefix_passes_nonminimal_roa(self):
        """...but the §4 attack sails through, because it is valid."""
        index = VrpIndex([Vrp(p("168.122.0.0/16"), 24, 111)])
        with BgpSpeaker(20, vrp_index=index) as validator, BgpSpeaker(666) as attacker:
            attacker.connect_to("127.0.0.1", validator.port)
            validator.wait_for_peer(666)
            attacker.announce(Announcement(p("168.122.0.0/24"), (666, 111)))
            route = validator.wait_for_route(p("168.122.0.0/24"))
            assert route.as_path == (666, 111)
            assert not validator.rejected_routes

    def test_notfound_routes_accepted(self):
        index = VrpIndex([Vrp(p("168.122.0.0/16"), 16, 111)])
        with BgpSpeaker(20, vrp_index=index) as validator, BgpSpeaker(5) as peer:
            peer.connect_to("127.0.0.1", validator.port)
            validator.wait_for_peer(5)
            peer.announce(Announcement(p("8.8.8.0/24"), (5,)))
            validator.wait_for_route(p("8.8.8.0/24"))


class TestFullStack:
    def test_rtr_fed_speaker_blocks_hijack(self):
        """RPKI -> RTR -> BGP speaker, no shortcuts: the router learns
        VRPs over the wire and applies them to live UPDATEs."""
        from repro.core import LocalCache
        from repro.rtr import RtrClient

        with LocalCache() as cache:
            cache.refresh_from_vrps([Vrp(p("168.122.0.0/16"), 16, 111)])
            server = cache.serve()
            with RtrClient(server.host, server.port) as rtr:
                rtr.sync()
                index = VrpIndex(rtr.vrps)

        with BgpSpeaker(20, vrp_index=index) as router, BgpSpeaker(666) as attacker:
            attacker.connect_to("127.0.0.1", router.port)
            router.wait_for_peer(666)
            attacker.announce(Announcement(p("168.122.0.0/24"), (666,)))
            router.wait_for_rejection(p("168.122.0.0/24"))
            assert router.loc_rib.route_for_prefix(p("168.122.0.0/24")) is None


# ----------------------------------------------------------------------
# The speaker's lifecycle on its loop thread
# ----------------------------------------------------------------------


def read_message(connection: socket.socket):
    """The next whole message from a raw socket; None at EOF."""
    data = b""
    for size in (HEADER_LENGTH, None):
        if size is None:
            size = BgpHeader.decode(data).length
        while len(data) < size:
            chunk = connection.recv(size - len(data))
            if not chunk:
                return None
            data += chunk
    return decode_message(data)[0]


def bgp_threads() -> list[str]:
    return [thread.name for thread in threading.enumerate()
            if thread.name.startswith("bgp-")]


class TestSpeakerLifecycle:
    def test_a_closed_speaker_refuses_a_handshake(self):
        speaker = BgpSpeaker(111).start()
        host, port = speaker.host, speaker.port
        speaker.close()
        with BgpSpeaker(20) as late:
            with pytest.raises((OSError, BgpSessionError)):
                late.connect_to(host, port, timeout=1.0)
        assert speaker.peers() == []

    def test_close_leaves_no_thread(self):
        assert bgp_threads() == []
        with BgpSpeaker(111) as origin, BgpSpeaker(3356) as transit:
            transit.connect_to("127.0.0.1", origin.port, expected_asn=111)
            origin.wait_for_peer(3356)
            assert bgp_threads() == ["bgp-speaker-loop"] * 2
        assert bgp_threads() == []

    def test_a_silent_connection_delays_no_other_peer(self):
        with BgpSpeaker(111) as origin, BgpSpeaker(20) as peer:
            silent = socket.create_connection((origin.host, origin.port))
            try:
                begun = time.monotonic()
                assert peer.connect_to(origin.host, origin.port) == 111
                origin.wait_for_peer(20)
                assert time.monotonic() - begun < 1.0
            finally:
                silent.close()

    def test_a_silent_peer_is_dropped_at_its_hold_time(self):
        """A peer that offers hold time 3 and then says nothing gets a
        KEEPALIVE each second and, after 3 s, NOTIFICATION (4, 0)."""
        with BgpSpeaker(20) as speaker:
            peer = socket.create_connection((speaker.host, speaker.port),
                                            timeout=10)
            try:
                peer.sendall(encode_message(OpenMessage(111, 3, 1))
                             + encode_message(KeepaliveMessage()))
                speaker.wait_for_peer(111)
                begun = time.monotonic()
                received = []
                while (message := read_message(peer)) is not None:
                    received.append(message)
                elapsed = time.monotonic() - begun
            finally:
                peer.close()
            assert received[0] == OpenMessage(20, 90, speaker.bgp_identifier)
            assert set(received[1:-1]) == {KeepaliveMessage()}
            assert len(received[1:-1]) >= 3  # one answers the OPEN
            assert received[-1] == NotificationMessage(4, 0)
            assert 2.5 < elapsed < 5.0
            assert speaker.peers() == []


# ----------------------------------------------------------------------
# The session without I/O: the table, the timers, the error codes
# ----------------------------------------------------------------------

LOCAL = OpenMessage(20, 90, 0x0A000014)
PEER = OpenMessage(111, 90, 0x0A00006F)
UPDATES = [announcement_to_update(Announcement(p(f"10.{i}.0.0/16"), (111,)))
           for i in range(3)]
#: The payload each event is handled with in the table tests.
PAYLOADS = {
    Event.OPEN: PEER,
    Event.UPDATE: UPDATES[0],
    Event.KEEPALIVE: KeepaliveMessage(),
    Event.NOTIFICATION: NotificationMessage(6, 2),
    Event.MESSAGE_ERROR: (3, 1, "malformed attribute list"),
}
#: What each event's row sends, when the row is there.
SENT = {
    Event.TCP_CONFIRMED: [LOCAL],
    Event.OPEN: [KeepaliveMessage()],
    Event.KEEPALIVE_EXPIRES: [KeepaliveMessage()],
    Event.HOLD_EXPIRES: [NotificationMessage(4, 0)],
    Event.MESSAGE_ERROR: [NotificationMessage(3, 1)],
}
_UP = [Event.START, Event.TCP_CONFIRMED, Event.OPEN, Event.KEEPALIVE]
#: The events that take a session from Idle to each state.
PATH = {
    State.IDLE: [],
    State.CONNECT: _UP[:1],
    State.ACTIVE: [Event.PASSIVE_START],
    State.OPEN_SENT: _UP[:2],
    State.OPEN_CONFIRM: _UP[:3],
    State.ESTABLISHED: _UP,
}


def session_in(state: State, *, local: OpenMessage = LOCAL,
               expected_asn=None, peer: OpenMessage = PEER) -> BgpSession:
    """A session taken to ``state`` at clock 0, ``peer`` its peer's OPEN."""
    session = BgpSession(local, expected_asn)
    for event in PATH[state]:
        session.handle(event, 0.0, peer if event is Event.OPEN else None)
    assert session.state is state
    return session


def label(pair) -> str:
    return f"{pair[0].name}-{pair[1].name}"


ROWS = sorted(TABLE, key=label)
NO_ROWS = sorted({(state, event) for state in State for event in Event}
                 - set(TABLE), key=label)


class TestStateTable:
    @pytest.mark.parametrize("state, event", ROWS, ids=map(label, ROWS))
    def test_every_row(self, state, event):
        session = session_in(state)
        out = session.handle(event, 0.0, PAYLOADS.get(event))
        next_state, _ = TABLE[state, event]
        assert session.state is next_state
        assert out.send == SENT.get(event, [])
        assert out.updates == (UPDATES[:1] if event is Event.UPDATE else [])
        assert out.states == ([] if next_state is state else [next_state])

    @pytest.mark.parametrize("state, event", NO_ROWS,
                             ids=map(label, NO_ROWS))
    def test_an_event_with_no_row_is_an_fsm_error(self, state, event):
        session = session_in(state)
        out = session.handle(event, 0.0, PAYLOADS.get(event))
        assert out.send == [NotificationMessage(5, 0)]
        assert session.state is State.IDLE
        assert session.deadline is None

    @pytest.mark.parametrize("state, message", [
        (State.OPEN_SENT, KeepaliveMessage()),
        (State.OPEN_SENT, UPDATES[0]),
        (State.OPEN_CONFIRM, PEER),
        (State.OPEN_CONFIRM, UPDATES[0]),
        (State.ESTABLISHED, PEER),
    ])
    def test_an_unexpected_message_on_the_wire(self, state, message):
        session = session_in(state)
        out = session.receive(encode_message(message), 0.0)
        assert out.send == [NotificationMessage(5, 0)]
        assert out.states == [State.IDLE]
        assert "in " + state.name in session.error

    def test_every_cut_of_a_stream_gives_the_same_session(self):
        """OPEN + KEEPALIVE + UPDATE x3 + NOTIFICATION, cut anywhere by
        TCP: the same messages out and the same states entered."""
        stream = b"".join(map(encode_message, [
            PEER, KeepaliveMessage(), *UPDATES, NotificationMessage(6, 2)]))
        for chunks in splits(stream):
            session = session_in(State.OPEN_SENT)
            sent, updates, states = [], [], []
            for chunk in chunks:
                out = session.receive(chunk, 0.0)
                sent += out.send
                updates += out.updates
                states += out.states
            assert sent == [KeepaliveMessage()], chunks
            assert updates == UPDATES, chunks
            assert states == [State.OPEN_CONFIRM, State.ESTABLISHED,
                              State.IDLE], chunks


class TestErrorCodes:
    @pytest.mark.parametrize("data, code", [
        (b"\x00" * 16 + bytes([0, 19, 4]), (1, 1)),
        (MARKER + bytes([0x10, 0x01, 4]), (1, 2)),
        (MARKER + bytes([0, 19, 9]), (1, 3)),
        (MARKER + bytes([0, 20, 4, 0]), (1, 2)),
        (MARKER + bytes([0, 20, 3, 6]), (1, 2)),
        (MARKER + bytes([0, 21, 1, 4, 0]), (2, 0)),
        (bytes.fromhex("ffffffffffffffffffffffffffffffff001a0200031e54420000"),
         (3, 0)),
    ], ids=["marker", "length", "type", "keepalive-body",
            "notification-body", "open-body", "update-withdrawn"])
    def test_a_decode_error_names_its_part(self, data, code):
        session = session_in(State.ESTABLISHED)
        out = session.receive(data, 0.0)
        assert out.send == [NotificationMessage(*code)]
        assert out.states == [State.IDLE]

    def test_bytes_after_the_error_are_not_read(self):
        session = session_in(State.ESTABLISHED)
        out = session.receive(MARKER + bytes([0, 19, 9])
                              + encode_message(UPDATES[0]), 0.0)
        assert out.updates == []

    @pytest.mark.parametrize("hold", [1, 2])
    def test_a_hold_time_of_one_or_two_is_refused(self, hold):
        session = session_in(State.OPEN_SENT)
        out = session.receive(encode_message(OpenMessage(111, hold, 1)), 0.0)
        assert out.send == [NotificationMessage(2, 6)]
        assert session.state is State.IDLE

    def test_the_wrong_peer_as_is_refused(self):
        session = session_in(State.OPEN_SENT, expected_asn=999)
        out = session.receive(encode_message(PEER), 0.0)
        assert out.send == [NotificationMessage(2, 2)]
        assert "expected AS999, peer claims AS111" in session.error


class TestTimers:
    def test_hold_is_the_smaller_offer_and_keepalive_a_third(self):
        session = session_in(State.OPEN_CONFIRM,
                             peer=OpenMessage(111, 30, 1))
        assert session.hold == 30
        assert session.deadline == 10.0
        session = session_in(State.OPEN_CONFIRM,
                             local=OpenMessage(20, 9, 1))
        assert (session.hold, session.deadline) == (9, 3.0)

    def test_hold_zero_runs_no_timer(self):
        session = session_in(State.ESTABLISHED, peer=OpenMessage(111, 0, 1))
        assert session.hold == 0
        assert session.deadline is None
        assert session.tick(10**9).send == []

    def test_open_sent_waits_the_large_hold_time(self):
        session = session_in(State.OPEN_SENT)
        assert session.deadline == OPEN_HOLD_TIME
        assert session.tick(OPEN_HOLD_TIME - 1).send == []
        assert session.tick(OPEN_HOLD_TIME).send == [NotificationMessage(4, 0)]

    def test_a_silent_peer_is_dropped_at_its_hold_time(self):
        session = session_in(State.OPEN_CONFIRM,
                             peer=OpenMessage(111, 3, 1))
        assert session.tick(0.5).send == []
        assert session.tick(1.0).send == [KeepaliveMessage()]
        assert session.tick(2.0).send == [KeepaliveMessage()]
        out = session.tick(3.0)
        assert out.send == [NotificationMessage(4, 0)]
        assert out.states == [State.IDLE]
        assert session.deadline is None

    def test_what_the_peer_sends_restarts_the_hold_timer(self):
        session = session_in(State.ESTABLISHED, peer=OpenMessage(111, 3, 1))
        session.receive(encode_message(KeepaliveMessage()), 2.9)
        session.receive(encode_message(UPDATES[0]), 4.0)
        for now in (1.0, 2.0, 3.0, 4.0, 5.0, 6.0):
            assert session.tick(now).send == [KeepaliveMessage()]
        assert session.tick(7.0).send == [NotificationMessage(4, 0)]

    def test_an_established_pair_exchanges_keepalives(self):
        """Two sessions wired back to back on one clock, hold 3: each
        sends a KEEPALIVE every second, and neither hold timer fires."""
        active = BgpSession(OpenMessage(20, 3, 1))
        passive = BgpSession(OpenMessage(111, 90, 2))
        peer_of = {id(active): passive, id(passive): active}
        sent = {id(active): 0, id(passive): 0}
        wire = []  # (receiver, bytes), in the order they were sent

        def send(session, out):
            for message in out.send:
                sent[id(session)] += isinstance(message, KeepaliveMessage)
                wire.append((peer_of[id(session)], encode_message(message)))

        def deliver(now):
            while wire:
                receiver, data = wire.pop(0)
                send(receiver, receiver.receive(data, now))

        active.handle(Event.START, 0.0)
        passive.handle(Event.PASSIVE_START, 0.0)
        for session in (active, passive):
            send(session, session.handle(Event.TCP_CONFIRMED, 0.0))
        deliver(0.0)
        assert active.state is passive.state is State.ESTABLISHED
        assert active.hold == passive.hold == 3
        for tenth in range(1, 101):
            now = tenth / 10
            for session in (active, passive):
                send(session, session.tick(now))
            deliver(now)
        assert active.state is passive.state is State.ESTABLISHED
        # One answers the OPEN, then one a second for ten seconds.
        assert sent == {id(active): 11, id(passive): 11}

