"""Tests for the DER codec (repro.asn1)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.asn1 import (
    Asn1Error,
    BitString,
    ContextTag,
    Integer,
    Null,
    ObjectIdentifier,
    OctetString,
    Sequence_,
    Set_,
    Utf8String,
    decode,
    decode_all,
    encode,
)


class TestKnownVectors:
    """Byte-exact vectors from X.690 and common fixtures."""

    def test_integer_zero(self):
        assert encode(Integer(0)) == bytes.fromhex("020100")

    def test_integer_127_128(self):
        assert encode(Integer(127)) == bytes.fromhex("02017f")
        assert encode(Integer(128)) == bytes.fromhex("02020080")

    def test_integer_negative(self):
        assert encode(Integer(-1)) == bytes.fromhex("0201ff")
        assert encode(Integer(-129)) == bytes.fromhex("0202ff7f")

    def test_integer_65537(self):
        assert encode(Integer(65537)) == bytes.fromhex("0203010001")

    def test_null(self):
        assert encode(Null()) == bytes.fromhex("0500")

    def test_oid_sha256_with_rsa(self):
        oid = ObjectIdentifier("1.2.840.113549.1.1.11")
        assert encode(oid) == bytes.fromhex("06092a864886f70d01010b")

    def test_oid_two_arcs(self):
        assert encode(ObjectIdentifier("2.5")) == bytes.fromhex("060155")

    def test_octet_string(self):
        assert encode(OctetString(b"hi")) == bytes.fromhex("04026869")

    def test_bit_string_with_padding(self):
        # 6 bits '101100' -> 2 unused bits, padded byte 0xb0
        assert encode(BitString("101100")) == bytes.fromhex("030202b0")

    def test_bit_string_empty(self):
        assert encode(BitString("")) == bytes.fromhex("030100")

    def test_empty_sequence(self):
        assert encode(Sequence_([])) == bytes.fromhex("3000")

    def test_long_form_length(self):
        data = encode(OctetString(b"x" * 200))
        assert data[:3] == bytes.fromhex("0481c8")

    def test_set_sorts_elements(self):
        encoded = encode(Set_([Integer(3), Integer(1)]))
        assert decode(encoded) == Set_([Integer(1), Integer(3)])


#: Every value kind, nested three deep.
NESTED = Sequence_(
    [
        Integer(65537),
        OctetString(b"payload"),
        ObjectIdentifier("1.2.840.113549.1.9.16.1.24"),
        BitString("10101000011110101"),
        Null(),
        Utf8String("RIPE ROA é"),
        ContextTag(3, Sequence_([Integer(-42)])),
    ]
)


class TestRoundTrip:
    def test_nested_structure(self):
        assert decode(encode(NESTED)) == NESTED

    def test_decode_all_concatenation(self):
        blob = encode(Integer(1)) + encode(Integer(2))
        assert decode_all(blob) == [Integer(1), Integer(2)]

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=-(2**256), max_value=2**256))
    def test_integer_round_trip(self, value):
        assert decode(encode(Integer(value))) == Integer(value)

    @settings(max_examples=100, deadline=None)
    @given(st.binary(max_size=300))
    def test_octet_string_round_trip(self, blob):
        assert decode(encode(OctetString(blob))) == OctetString(blob)

    @settings(max_examples=100, deadline=None)
    @given(st.text(alphabet="01", max_size=70))
    def test_bit_string_round_trip(self, bits):
        assert decode(encode(BitString(bits))) == BitString(bits)

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.integers(min_value=0, max_value=2**40), min_size=2, max_size=8)
    )
    def test_oid_round_trip(self, arcs):
        arcs[0] = arcs[0] % 3
        arcs[1] = arcs[1] % 40
        oid = ObjectIdentifier(".".join(str(a) for a in arcs))
        assert decode(encode(oid)) == oid


class TestErrors:
    def test_trailing_bytes_rejected(self):
        with pytest.raises(Asn1Error):
            decode(encode(Integer(1)) + b"\x00")

    def test_truncated_length(self):
        with pytest.raises(Asn1Error):
            decode(bytes.fromhex("0205"))

    def test_truncated_body(self):
        with pytest.raises(Asn1Error):
            decode(bytes.fromhex("040548656c6c"))

    def test_indefinite_length_rejected(self):
        with pytest.raises(Asn1Error):
            decode(bytes.fromhex("30800000"))

    def test_unsupported_tag(self):
        with pytest.raises(Asn1Error):
            decode(bytes.fromhex("1e00"))

    def test_empty_integer_body(self):
        with pytest.raises(Asn1Error):
            decode(bytes.fromhex("0200"))

    def test_bit_string_bad_unused_count(self):
        with pytest.raises(Asn1Error):
            decode(bytes.fromhex("030209b0"))

    def test_bit_string_nonzero_padding(self):
        with pytest.raises(Asn1Error):
            decode(bytes.fromhex("030202b1"))

    def test_bit_string_requires_01(self):
        with pytest.raises(Asn1Error):
            BitString("10a")

    def test_null_with_body(self):
        with pytest.raises(Asn1Error):
            decode(bytes.fromhex("050100"))

    def test_bad_oid_values(self):
        with pytest.raises(Asn1Error):
            encode(ObjectIdentifier("4.1"))
        with pytest.raises(Asn1Error):
            encode(ObjectIdentifier("nope"))
        with pytest.raises(Asn1Error):
            encode(ObjectIdentifier("1"))

    def test_truncated_oid_arc(self):
        with pytest.raises(Asn1Error):
            decode(bytes.fromhex("060188"))

    def test_context_tag_number_limit(self):
        with pytest.raises(Asn1Error):
            encode(ContextTag(31, Integer(1)))

    def test_non_minimal_long_form_rejected(self):
        # length 5 written in long form (0x81 0x05) is not DER
        with pytest.raises(Asn1Error):
            decode(bytes.fromhex("04810548656c6c6f"))


class TestHostileBytes:
    """What a transport can do to a DER object: cut it short, or
    corrupt its bytes.  Either way the decoder answers with a value or
    :class:`Asn1Error`, never another exception."""

    def test_every_proper_prefix_refused(self):
        data = encode(NESTED)
        for cut in range(len(data)):
            with pytest.raises(Asn1Error):
                decode(data[:cut])

    def test_every_byte_flip_refused_or_decoded(self):
        data = encode(NESTED)
        for position in range(len(data)):
            for mask in range(1, 256):
                flipped = bytearray(data)
                flipped[position] ^= mask
                try:
                    decode(bytes(flipped))
                except Asn1Error:
                    pass
