"""Live BGP speaker tests over localhost TCP."""

from __future__ import annotations

import pytest

from repro.bgp import Announcement, VrpIndex
from repro.bgp.message import (
    KeepaliveMessage,
    OpenMessage,
    announcement_to_update,
    encode_message,
)
from repro.bgp.session import BgpSessionError, BgpSpeaker, _Peer
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


class _ScriptedConnection:
    """Stands in for a socket: ``recv`` hands out pre-cut chunks, then EOF."""

    def __init__(self, chunks):
        self._chunks = list(chunks)

    def settimeout(self, timeout):
        pass

    def recv(self, size):
        return self._chunks.pop(0) if self._chunks else b""


class _RecordingSpeaker:
    """The two hooks a ``_Peer`` calls on its speaker."""

    def __init__(self):
        self.messages = []

    def _handle_message(self, peer, message):
        self.messages.append(message)
        return True

    def _drop_peer(self, peer):
        pass


class TestHandshakeSegmentation:
    def test_nothing_lost_behind_the_open_at_any_split(self):
        # However TCP cuts OPEN + KEEPALIVE + UPDATE — including not at
        # all — the handshake takes the OPEN and the session reader
        # sees everything after it.
        sent = [
            OpenMessage(asn=111, hold_time=90, bgp_identifier=0x0A00006F),
            KeepaliveMessage(),
            announcement_to_update(
                Announcement(p("168.122.0.0/16"), (111,))),
        ]
        stream = b"".join(encode_message(message) for message in sent)
        for chunks in splits(stream):
            connection = _ScriptedConnection(chunks)
            peer_open, residual = BgpSpeaker._read_one_open(connection, 1.0)
            speaker = _RecordingSpeaker()
            _Peer(speaker, connection, peer_open.asn, residual).reader_loop()
            assert [peer_open] + speaker.messages == sent, chunks


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
