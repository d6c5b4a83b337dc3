"""Tests for RTR PDU wire encoding (RFC 6810)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netbase import AF_INET, AF_INET6, Prefix
from repro.rpki import Vrp
from repro.rtr import (
    CacheResetPdu,
    CacheResponsePdu,
    EndOfDataPdu,
    ErrorReportPdu,
    FLAG_ANNOUNCE,
    FLAG_WITHDRAW,
    IncompletePdu,
    Ipv4PrefixPdu,
    Ipv6PrefixPdu,
    PduError,
    ResetQueryPdu,
    SerialNotifyPdu,
    SerialQueryPdu,
    decode_pdu,
    decode_stream,
    encode_pdu,
    pdu_to_vrp,
    vrp_to_pdu,
)

from segmentation import splits


def p(text: str) -> Prefix:
    return Prefix.parse(text)


ALL_PDUS = [
    SerialNotifyPdu(session_id=7, serial=42),
    SerialQueryPdu(session_id=7, serial=42),
    ResetQueryPdu(),
    CacheResponsePdu(session_id=7),
    Ipv4PrefixPdu(FLAG_ANNOUNCE, 16, 24, p("168.122.0.0/16").value, 111),
    Ipv6PrefixPdu(FLAG_WITHDRAW, 32, 48, p("2001:db8::/32").value, 65000),
    EndOfDataPdu(session_id=7, serial=42),
    CacheResetPdu(),
    ErrorReportPdu(ErrorReportPdu.CORRUPT_DATA, b"\x01\x02", "bad"),
]


class TestWireFormat:
    def test_header_is_eight_bytes_and_version_zero(self):
        for pdu in ALL_PDUS:
            data = encode_pdu(pdu)
            assert data[0] == 0  # protocol version
            assert len(data) >= 8

    def test_declared_length_matches(self):
        for pdu in ALL_PDUS:
            data = encode_pdu(pdu)
            declared = int.from_bytes(data[4:8], "big")
            assert declared == len(data)

    def test_ipv4_prefix_pdu_is_20_bytes(self):
        data = encode_pdu(ALL_PDUS[4])
        assert len(data) == 20 and data[1] == 4

    def test_ipv6_prefix_pdu_is_32_bytes(self):
        data = encode_pdu(ALL_PDUS[5])
        assert len(data) == 32 and data[1] == 6

    def test_reset_query_fixed_bytes(self):
        assert encode_pdu(ResetQueryPdu()) == bytes.fromhex("0002000000000008")

    @pytest.mark.parametrize("pdu", ALL_PDUS, ids=lambda x: type(x).__name__)
    def test_round_trip(self, pdu):
        decoded, consumed = decode_pdu(encode_pdu(pdu))
        assert decoded == pdu
        assert consumed == len(encode_pdu(pdu))


class TestVrpConversion:
    def test_ipv4(self):
        vrp = Vrp(p("168.122.0.0/16"), 24, 111)
        pdu = vrp_to_pdu(vrp)
        assert isinstance(pdu, Ipv4PrefixPdu)
        assert pdu.flags == FLAG_ANNOUNCE
        assert pdu_to_vrp(pdu) == vrp

    def test_ipv6(self):
        vrp = Vrp(p("2a00::/12"), 32, 5)
        pdu = vrp_to_pdu(vrp, announce=False)
        assert isinstance(pdu, Ipv6PrefixPdu)
        assert pdu.flags == FLAG_WITHDRAW
        assert pdu_to_vrp(pdu) == vrp

    def test_non_prefix_pdu_rejected(self):
        with pytest.raises(PduError):
            pdu_to_vrp(ResetQueryPdu())

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=0, max_value=32),
        st.integers(min_value=0, max_value=8),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_round_trip_random_v4(self, value, length, extra, asn):
        vrp = Vrp(Prefix(AF_INET, value, length), min(32, length + extra), asn)
        assert pdu_to_vrp(vrp_to_pdu(vrp)) == vrp

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**128 - 1),
        st.integers(min_value=0, max_value=128),
        st.integers(min_value=0, max_value=16),
    )
    def test_round_trip_random_v6(self, value, length, extra):
        vrp = Vrp(Prefix(AF_INET6, value, length), min(128, length + extra), 1)
        assert pdu_to_vrp(vrp_to_pdu(vrp)) == vrp


class TestStreamDecoding:
    def test_multiple_pdus(self):
        blob = b"".join(encode_pdu(pdu) for pdu in ALL_PDUS)
        pdus, rest = decode_stream(blob)
        assert pdus == ALL_PDUS
        assert rest == b""

    def test_partial_tail_preserved(self):
        blob = encode_pdu(ResetQueryPdu()) + encode_pdu(CacheResetPdu())[:3]
        pdus, rest = decode_stream(blob)
        assert pdus == [ResetQueryPdu()]
        assert len(rest) == 3

    def test_incomplete_raises_with_missing_count(self):
        full = encode_pdu(SerialNotifyPdu(1, 2))
        with pytest.raises(IncompletePdu) as info:
            decode_pdu(full[:10])
        assert info.value.missing == len(full) - 10

    def test_byte_at_a_time_feeding(self):
        """Regression: frames split at every offset — including mid-header
        — must survive the buffer-and-retry loop every consumer runs."""
        blob = b"".join(encode_pdu(pdu) for pdu in ALL_PDUS)
        buffer = b""
        decoded = []
        for offset in range(len(blob)):
            buffer += blob[offset:offset + 1]
            pdus, buffer = decode_stream(buffer)
            decoded.extend(pdus)
        assert decoded == ALL_PDUS
        assert buffer == b""

    def test_mid_header_split_single_frame(self):
        """A lone frame cut inside its 8-byte header decodes nothing and
        preserves every byte for the next read."""
        frame = encode_pdu(SerialNotifyPdu(3, 9))
        for cut in range(1, 8):
            pdus, rest = decode_stream(frame[:cut])
            assert pdus == []
            assert rest == frame[:cut]
            # ...and completing the frame yields exactly the PDU.
            pdus, rest = decode_stream(rest + frame[cut:])
            assert pdus == [SerialNotifyPdu(3, 9)]
            assert rest == b""

    def test_mid_header_split_after_complete_frame(self):
        """A complete frame followed by a partial header: the complete
        one decodes, the partial header is returned untouched."""
        head = encode_pdu(ResetQueryPdu())
        tail = encode_pdu(EndOfDataPdu(1, 7))
        for cut in range(1, 8):
            pdus, rest = decode_stream(head + tail[:cut])
            assert pdus == [ResetQueryPdu()]
            assert rest == tail[:cut]

    def test_pdu_buffer_incremental(self):
        from repro.rtr import PduBuffer

        blob = b"".join(encode_pdu(pdu) for pdu in ALL_PDUS)
        # Odd 3-byte chunking (mid-header), then every two-way split
        # and a byte at a time.
        chunkings = [
            [blob[offset:offset + 3] for offset in range(0, len(blob), 3)]
        ] + list(splits(blob))
        for chunks in chunkings:
            buffer = PduBuffer()
            decoded = []
            via_stream, rest = [], b""
            for chunk in chunks:
                buffer.feed(chunk)
                while (pdu := buffer.next()) is not None:
                    decoded.append(pdu)
                pdus, rest = decode_stream(rest + chunk)
                via_stream += pdus
            assert decoded == ALL_PDUS
            assert buffer.next() is None
            assert via_stream == ALL_PDUS
            assert rest == b""

    def test_pdu_buffer_raises_on_garbage(self):
        from repro.rtr import PduBuffer

        buffer = PduBuffer()
        buffer.feed(b"\xff" * 8)
        with pytest.raises(PduError):
            buffer.next()

    def test_decode_pdu_at_offset(self):
        """decode_pdu(data, offset) reads mid-buffer without slicing."""
        blob = b"".join(encode_pdu(pdu) for pdu in ALL_PDUS)
        offset = 0
        for expected in ALL_PDUS:
            pdu, consumed = decode_pdu(blob, offset)
            assert pdu == expected
            offset += consumed
        assert offset == len(blob)
        with pytest.raises(IncompletePdu):
            decode_pdu(blob, offset)


class TestErrors:
    def test_wrong_version(self):
        data = bytearray(encode_pdu(ResetQueryPdu()))
        data[0] = 9  # versions 0 and 1 are both legal
        with pytest.raises(PduError):
            decode_pdu(bytes(data))

    def test_unknown_type(self):
        data = bytearray(encode_pdu(ResetQueryPdu()))
        data[1] = 99
        with pytest.raises(PduError):
            decode_pdu(bytes(data))

    def test_implausible_length(self):
        data = bytearray(encode_pdu(ResetQueryPdu()))
        data[4:8] = (1 << 24).to_bytes(4, "big")
        with pytest.raises(PduError):
            decode_pdu(bytes(data))

    def test_wrong_body_size(self):
        # Serial Notify with a 2-byte body
        bad = bytes.fromhex("000000070000000a") + b"\x00\x01"
        with pytest.raises(PduError):
            decode_pdu(bad)

    def test_truncated_error_report(self):
        bad = bytes.fromhex("000a0000 0000000c 00000009".replace(" ", ""))
        with pytest.raises(PduError):
            decode_pdu(bad)

    def test_error_report_with_unicode_text(self):
        pdu = ErrorReportPdu(3, b"", "badé")
        decoded, _ = decode_pdu(encode_pdu(pdu))
        assert decoded == pdu


class TestVersion1:
    """RFC 8210 additions: intervals and Router Key PDUs."""

    def test_end_of_data_v1_intervals_round_trip(self):
        from repro.rtr import PROTOCOL_VERSION_1

        pdu = EndOfDataPdu(7, 42, refresh_interval=3600,
                           retry_interval=600, expire_interval=7200)
        data = encode_pdu(pdu, version=PROTOCOL_VERSION_1)
        assert len(data) == 24
        assert data[0] == 1
        decoded, _ = decode_pdu(data)
        assert decoded == pdu
        assert decoded.has_intervals

    def test_end_of_data_v1_without_intervals_stays_short(self):
        from repro.rtr import PROTOCOL_VERSION_1

        pdu = EndOfDataPdu(7, 42)
        data = encode_pdu(pdu, version=PROTOCOL_VERSION_1)
        assert len(data) == 12
        decoded, _ = decode_pdu(data)
        assert not decoded.has_intervals

    def test_router_key_round_trip(self):
        from repro.rtr import PROTOCOL_VERSION_1, RouterKeyPdu

        pdu = RouterKeyPdu(1, b"\x11" * 20, 65000, b"fake-spki-bytes")
        data = encode_pdu(pdu, version=PROTOCOL_VERSION_1)
        decoded, _ = decode_pdu(data)
        assert decoded == pdu

    def test_router_key_requires_v1(self):
        from repro.rtr import RouterKeyPdu

        pdu = RouterKeyPdu(0, b"\x00" * 20, 1, b"")
        with pytest.raises(PduError):
            encode_pdu(pdu)  # default version 0

    def test_router_key_on_v0_wire_rejected(self):
        from repro.rtr import PROTOCOL_VERSION_1, RouterKeyPdu

        pdu = RouterKeyPdu(0, b"\x00" * 20, 1, b"")
        data = bytearray(encode_pdu(pdu, version=PROTOCOL_VERSION_1))
        data[0] = 0
        with pytest.raises(PduError):
            decode_pdu(bytes(data))

    def test_bad_ski_length_rejected(self):
        from repro.rtr import RouterKeyPdu

        with pytest.raises(PduError):
            RouterKeyPdu(0, b"\x00" * 19, 1, b"")

    def test_prefix_pdus_identical_across_versions(self):
        from repro.rtr import PROTOCOL_VERSION_1

        pdu = Ipv4PrefixPdu(FLAG_ANNOUNCE, 16, 24, 0x0A000000, 65000)
        v0 = encode_pdu(pdu)
        v1 = encode_pdu(pdu, version=PROTOCOL_VERSION_1)
        assert v0[1:] == v1[1:]  # only the version byte differs
        assert decode_pdu(v1)[0] == pdu

    def test_bad_version_argument(self):
        with pytest.raises(PduError):
            encode_pdu(ResetQueryPdu(), version=3)
