"""Tests for BGP-4 wire messages (repro.bgp.message)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp import (
    Announcement,
    AsPathSegment,
    BgpHeader,
    BgpMessageError,
    KeepaliveMessage,
    NotificationMessage,
    OpenMessage,
    UpdateMessage,
    announcement_to_update,
    decode_message,
    encode_message,
    update_to_announcements,
)
from repro.bgp.message import (
    HEADER_LENGTH,
    MARKER,
    ORIGIN_IGP,
    SEGMENT_AS_SEQUENCE,
    SEGMENT_AS_SET,
)
from repro.netbase import AF_INET, AF_INET6, Prefix


def p(text: str) -> Prefix:
    return Prefix.parse(text)


class TestHeader:
    def test_encode_shape(self):
        header = BgpHeader(23, 2)
        data = header.encode()
        assert len(data) == HEADER_LENGTH
        assert data[:16] == MARKER
        assert BgpHeader.decode(data) == header

    def test_bad_marker(self):
        data = b"\x00" * 16 + bytes([0, 19, 4])
        with pytest.raises(BgpMessageError):
            BgpHeader.decode(data)

    def test_implausible_length(self):
        data = MARKER + bytes([0xFF, 0xFF, 4])
        with pytest.raises(BgpMessageError):
            BgpHeader.decode(data)

    def test_truncated(self):
        with pytest.raises(BgpMessageError):
            BgpHeader.decode(MARKER)


class TestKeepaliveAndNotification:
    def test_keepalive_is_19_bytes(self):
        data = encode_message(KeepaliveMessage())
        assert len(data) == 19
        message, consumed = decode_message(data)
        assert message == KeepaliveMessage()
        assert consumed == 19

    def test_keepalive_body_must_be_empty(self):
        data = MARKER + bytes([0, 20, 4]) + b"\x00"
        with pytest.raises(BgpMessageError):
            decode_message(data)

    def test_notification_round_trip(self):
        message = NotificationMessage(6, 2, b"cease")
        decoded, _ = decode_message(encode_message(message))
        assert decoded == message


class TestOpen:
    def test_round_trip(self):
        message = OpenMessage(
            asn=65000, hold_time=90, bgp_identifier=0xC0A80001,
            capabilities=b"\x41\x04\x00\x00\xfd\xe8",
        )
        decoded, _ = decode_message(encode_message(message))
        assert decoded.hold_time == 90
        assert decoded.bgp_identifier == 0xC0A80001
        assert decoded.capabilities == message.capabilities

    def test_four_byte_asn_uses_as_trans(self):
        message = OpenMessage(asn=4200000000, hold_time=90, bgp_identifier=1)
        decoded, _ = decode_message(encode_message(message))
        assert decoded.asn == 23456  # AS_TRANS in the 2-byte field


class TestUpdate:
    def test_announcement_round_trip_v4(self):
        announcement = Announcement(p("168.122.0.0/16"), (3356, 111))
        update = announcement_to_update(announcement)
        decoded, _ = decode_message(encode_message(update))
        assert update_to_announcements(decoded) == [announcement]
        assert decoded.origin == ORIGIN_IGP
        assert decoded.next_hop == update.next_hop

    def test_announcement_round_trip_v6(self):
        announcement = Announcement(p("2001:db8::/32"), (6939, 65000))
        update = announcement_to_update(announcement, next_hop=0xFE80 << 112)
        decoded, _ = decode_message(encode_message(update))
        assert update_to_announcements(decoded) == [announcement]
        assert decoded.nlri_v6 == (p("2001:db8::/32"),)
        assert decoded.next_hop_v6 == 0xFE80 << 112

    def test_withdrawal_only(self):
        update = UpdateMessage(withdrawn=(p("10.0.0.0/8"), p("10.1.0.0/16")))
        decoded, _ = decode_message(encode_message(update))
        assert decoded.withdrawn == update.withdrawn
        assert update_to_announcements(decoded) == []

    def test_as_set_flattened_sorted(self):
        update = UpdateMessage(
            origin=ORIGIN_IGP,
            as_path=(
                AsPathSegment(SEGMENT_AS_SEQUENCE, (3356,)),
                AsPathSegment(SEGMENT_AS_SET, (300, 100, 200)),
            ),
            next_hop=1,
            nlri=(p("10.0.0.0/8"),),
        )
        decoded, _ = decode_message(encode_message(update))
        assert decoded.flat_as_path() == (3356, 100, 200, 300)

    def test_multiple_nlri_share_one_path(self):
        update = UpdateMessage(
            origin=ORIGIN_IGP,
            as_path=(AsPathSegment(SEGMENT_AS_SEQUENCE, (1, 2)),),
            next_hop=7,
            nlri=(p("10.0.0.0/8"), p("11.0.0.0/16"), p("12.0.0.0/24")),
        )
        announcements = update_to_announcements(update)
        assert len(announcements) == 3
        assert all(a.as_path == (1, 2) for a in announcements)

    def test_extended_length_attribute(self):
        # 80 ASNs * 4 bytes = 320 > 255 forces the extended-length flag
        long_path = AsPathSegment(SEGMENT_AS_SEQUENCE, tuple(range(1, 81)))
        update = UpdateMessage(
            origin=ORIGIN_IGP, as_path=(long_path,), next_hop=1,
            nlri=(p("10.0.0.0/8"),),
        )
        decoded, _ = decode_message(encode_message(update))
        assert decoded.flat_as_path() == tuple(range(1, 81))

    def test_zero_length_prefix_nlri(self):
        update = UpdateMessage(
            origin=ORIGIN_IGP,
            as_path=(AsPathSegment(SEGMENT_AS_SEQUENCE, (1,)),),
            next_hop=1,
            nlri=(p("0.0.0.0/0"),),
        )
        decoded, _ = decode_message(encode_message(update))
        assert decoded.nlri == (p("0.0.0.0/0"),)

    def test_bad_segment_rejected(self):
        with pytest.raises(BgpMessageError):
            AsPathSegment(9, (1,))
        with pytest.raises(BgpMessageError):
            AsPathSegment(SEGMENT_AS_SET, ())

    def test_truncated_update_body(self):
        update = announcement_to_update(Announcement(p("10.0.0.0/8"), (1,)))
        data = encode_message(update)
        with pytest.raises(BgpMessageError):
            decode_message(data[:-1] )

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=2**32 - 1),
                st.integers(min_value=0, max_value=32),
            ),
            min_size=1,
            max_size=12,
        ),
        st.lists(
            st.integers(min_value=1, max_value=2**32 - 1),
            min_size=1,
            max_size=12,
        ),
    )
    def test_update_round_trip_random(self, raw_prefixes, path):
        nlri = tuple(Prefix(AF_INET, v, l) for v, l in raw_prefixes)
        update = UpdateMessage(
            origin=ORIGIN_IGP,
            as_path=(AsPathSegment(SEGMENT_AS_SEQUENCE, tuple(path)),),
            next_hop=0xC0000201,
            nlri=tuple(sorted(set(nlri))),
        )
        decoded, consumed = decode_message(encode_message(update))
        assert consumed == len(encode_message(update))
        assert decoded.nlri == update.nlri
        assert decoded.flat_as_path() == tuple(path)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=2**128 - 1),
                st.integers(min_value=0, max_value=64),
            ),
            min_size=1,
            max_size=6,
        )
    )
    def test_mp_reach_round_trip_random(self, raw_prefixes):
        nlri = tuple(sorted({Prefix(AF_INET6, v, l) for v, l in raw_prefixes}))
        update = UpdateMessage(
            origin=ORIGIN_IGP,
            as_path=(AsPathSegment(SEGMENT_AS_SEQUENCE, (65000,)),),
            nlri_v6=nlri,
            next_hop_v6=1,
        )
        decoded, _ = decode_message(encode_message(update))
        assert decoded.nlri_v6 == nlri


#: One message of each kind, with every UPDATE field filled.
KINDS = {
    "open": OpenMessage(asn=65000, hold_time=90, bgp_identifier=0xC0A80001,
                        capabilities=b"\x41\x04\x00\x00\xfd\xe8"),
    "update-v4": UpdateMessage(
        withdrawn=(p("10.0.0.0/8"), p("10.1.2.0/23")),
        origin=ORIGIN_IGP,
        as_path=(AsPathSegment(SEGMENT_AS_SEQUENCE, (3356, 111)),
                 AsPathSegment(SEGMENT_AS_SET, (7, 9))),
        next_hop=0xC0000201,
        nlri=(p("168.122.0.0/16"), p("168.122.225.0/24")),
    ),
    "update-v6": announcement_to_update(
        Announcement(p("2001:db8::/32"), (6939, 65000))),
    "keepalive": KeepaliveMessage(),
    "notification": NotificationMessage(6, 2, b"cease"),
}


def decodes_or_refuses(data: bytes) -> None:
    """The decoder's contract on hostile bytes: a message, or
    :class:`BgpMessageError` — never another exception."""
    try:
        decode_message(data)
    except BgpMessageError:
        pass


class TestHostileBytes:
    def test_withdrawn_field_cut_inside_a_prefix(self):
        # The withdrawn-routes field is 3 bytes long and holds the first
        # 3 bytes of a /30; the decoder must not read the attribute
        # length's bytes as the rest of that prefix.
        data = bytes.fromhex(
            "ffffffffffffffffffffffffffffffff001a0200031e54420000")
        with pytest.raises(BgpMessageError, match="truncated NLRI"):
            decode_message(data)

    def test_withdrawn_field_ends_on_a_prefix_boundary(self):
        body = b"\x00\x04" + bytes([16, 10, 1]) + bytes([8]) + b"\x00\x00"
        data = BgpHeader(HEADER_LENGTH + len(body), 2).encode() + body
        with pytest.raises(BgpMessageError, match="truncated NLRI"):
            decode_message(data)

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_every_truncation_refused(self, kind):
        data = encode_message(KINDS[kind])
        body = data[HEADER_LENGTH:]
        for cut in range(len(data)):
            with pytest.raises(BgpMessageError):
                decode_message(data[:cut])
        # The same cuts with the header's length made to agree: a body
        # cut short may still be a (shorter) message, or must be refused.
        for cut in range(len(body)):
            decodes_or_refuses(
                BgpHeader(HEADER_LENGTH + cut, data[18]).encode() + body[:cut])

    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from(sorted(KINDS)),
        st.lists(st.tuples(st.integers(min_value=0),
                           st.integers(min_value=1, max_value=255)),
                 min_size=1, max_size=4),
    )
    def test_byte_flips_refused_or_decoded(self, kind, flips):
        data = bytearray(encode_message(KINDS[kind]))
        for position, mask in flips:
            data[position % len(data)] ^= mask
        decodes_or_refuses(bytes(data))


class TestRouteViewsIntegration:
    def test_rib_announcements_survive_wire_form(self, tiny_snapshot):
        """Every synthetic announcement must round-trip through real
        UPDATE bytes — the collector's view of our Internet."""
        sample = [
            Announcement(prefix, (65000, origin))
            for prefix, origin in list(tiny_snapshot.announced)[:200]
        ]
        for announcement in sample:
            update = announcement_to_update(announcement)
            decoded, _ = decode_message(encode_message(update))
            assert update_to_announcements(decoded) == [announcement]
