"""Tests for repro.netbase.asnum."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.netbase import (
    AS_TRANS,
    MAX_ASN,
    format_asn,
    is_private_asn,
    is_reserved_asn,
    parse_asn,
    validate_asn,
)
from repro.netbase.errors import AsnError


class TestValidate:
    def test_accepts_range_ends(self):
        assert validate_asn(0) == 0
        assert validate_asn(MAX_ASN) == MAX_ASN

    def test_rejects_negative(self):
        with pytest.raises(AsnError):
            validate_asn(-1)

    def test_rejects_too_large(self):
        with pytest.raises(AsnError):
            validate_asn(2**32)

    def test_rejects_non_int(self):
        with pytest.raises(AsnError):
            validate_asn("65000")  # type: ignore[arg-type]

    def test_rejects_bool(self):
        with pytest.raises(AsnError):
            validate_asn(True)  # type: ignore[arg-type]


class TestParse:
    def test_plain_number(self):
        assert parse_asn("65000") == 65000

    def test_as_prefix(self):
        assert parse_asn("AS65000") == 65000
        assert parse_asn("as65000") == 65000

    def test_asdot(self):
        assert parse_asn("1.10") == (1 << 16) + 10
        assert parse_asn("AS1.0") == 65536

    def test_asdot_rejects_overflow(self):
        with pytest.raises(AsnError):
            parse_asn("65536.0")

    @pytest.mark.parametrize("bad", [
        "", "AS", "1.2.3", "-5", "4294967296",
        "AS-1", "+5", "1_000", "٣", "²", "AS٣", "1.٣", "².1", "1e3",
    ])
    def test_rejects_garbage(self, bad):
        with pytest.raises(AsnError):
            parse_asn(bad)


class TestFormat:
    def test_plain(self):
        assert format_asn(111) == "AS111"

    def test_asdot_only_for_large(self):
        assert format_asn(65000, asdot=True) == "AS65000"
        assert format_asn(65536, asdot=True) == "AS1.0"

    @given(st.integers(min_value=0, max_value=MAX_ASN))
    def test_round_trip(self, asn):
        assert parse_asn(format_asn(asn)) == asn
        assert parse_asn(format_asn(asn, asdot=True)) == asn


class TestClassification:
    def test_private_16bit(self):
        assert is_private_asn(64512) and is_private_asn(65534)
        assert not is_private_asn(64511)

    def test_private_32bit(self):
        assert is_private_asn(4200000000)
        assert not is_private_asn(4199999999)

    def test_reserved(self):
        assert is_reserved_asn(0)
        assert is_reserved_asn(65535)
        assert is_reserved_asn(MAX_ASN)
        assert not is_reserved_asn(AS_TRANS)
