"""Tests for Validated ROA Payloads (repro.rpki.vrp)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netbase import AF_INET, Prefix
from repro.netbase.errors import AsnError, PrefixLengthError
from repro.rpki import Vrp, parse_vrp, sort_vrps


def p(text: str) -> Prefix:
    return Prefix.parse(text)


class TestConstruction:
    def test_valid(self):
        vrp = Vrp(p("168.122.0.0/16"), 24, 111)
        assert vrp.uses_max_length

    def test_exact_length_not_maxlength_use(self):
        assert not Vrp(p("168.122.0.0/16"), 16, 111).uses_max_length

    def test_rejects_maxlength_below_length(self):
        with pytest.raises(PrefixLengthError):
            Vrp(p("10.0.0.0/16"), 8, 1)

    def test_rejects_maxlength_beyond_family(self):
        with pytest.raises(PrefixLengthError):
            Vrp(p("10.0.0.0/16"), 33, 1)
        with pytest.raises(PrefixLengthError):
            Vrp(p("2001:db8::/32"), 129, 1)

    def test_rejects_bad_asn(self):
        with pytest.raises(AsnError):
            Vrp(p("10.0.0.0/16"), 24, -3)


class TestSemantics:
    """The §4 example: ROA (168.122.0.0/16-24, AS 111)."""

    vrp = Vrp(p("168.122.0.0/16"), 24, 111)

    def test_covers_subprefix_regardless_of_origin(self):
        assert self.vrp.covers(p("168.122.0.0/24"))
        assert self.vrp.covers(p("168.122.0.0/25"))

    def test_matches_within_maxlength_and_origin(self):
        assert self.vrp.matches(p("168.122.0.0/16"), 111)
        assert self.vrp.matches(p("168.122.225.0/24"), 111)

    def test_no_match_beyond_maxlength(self):
        assert not self.vrp.matches(p("168.122.0.0/25"), 111)

    def test_no_match_wrong_origin(self):
        assert not self.vrp.matches(p("168.122.0.0/24"), 666)

    def test_no_match_outside_prefix(self):
        assert not self.vrp.matches(p("168.123.0.0/24"), 111)

    def test_authorized_count_closed_form(self):
        assert Vrp(p("10.0.0.0/16"), 16, 1).authorized_count() == 1
        assert Vrp(p("10.0.0.0/16"), 18, 1).authorized_count() == 7
        assert Vrp(p("10.0.0.0/16"), 24, 1).authorized_count() == 2**9 - 1

    def test_authorized_prefixes_enumeration(self):
        vrp = Vrp(p("10.0.0.0/30"), 32, 1)
        listed = list(vrp.authorized_prefixes())
        assert len(listed) == vrp.authorized_count() == 7
        assert p("10.0.0.0/30") in listed and p("10.0.0.3/32") in listed


class TestTextForm:
    def test_str_with_maxlength(self):
        assert str(Vrp(p("10.0.0.0/16"), 24, 65000)) == "10.0.0.0/16-24 => AS65000"

    def test_str_without_maxlength(self):
        assert str(Vrp(p("10.0.0.0/16"), 16, 65000)) == "10.0.0.0/16 => AS65000"

    def test_parse_both_forms(self):
        assert parse_vrp("10.0.0.0/16-24 => AS65000") == Vrp(p("10.0.0.0/16"), 24, 65000)
        assert parse_vrp("10.0.0.0/16 => 65000") == Vrp(p("10.0.0.0/16"), 16, 65000)

    def test_parse_ipv6(self):
        assert parse_vrp("2001:db8::/32-48 => AS1") == Vrp(p("2001:db8::/32"), 48, 1)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=0, max_value=32),
        st.integers(min_value=0, max_value=32),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_str_parse_round_trip(self, value, length, extra, asn):
        max_length = min(32, length + extra % (33 - length) if length < 32 else 32)
        vrp = Vrp(Prefix(AF_INET, value, length), max(length, max_length), asn)
        assert parse_vrp(str(vrp)) == vrp


class TestOrdering:
    def test_sort_is_deterministic(self):
        vrps = [
            Vrp(p("10.0.0.0/16"), 24, 2),
            Vrp(p("10.0.0.0/16"), 16, 1),
            Vrp(p("9.0.0.0/8"), 8, 9),
        ]
        ordered = sort_vrps(vrps)
        assert ordered[0].prefix == p("9.0.0.0/8")
        assert ordered[1].max_length == 16

    @settings(max_examples=60, deadline=None)
    @given(st.lists(
        st.tuples(
            st.sampled_from([4, 6]),
            st.integers(min_value=0, max_value=2**32 - 1),
            st.integers(min_value=0, max_value=32),
            st.integers(min_value=0, max_value=2),
            st.integers(min_value=1, max_value=3),
        ),
        max_size=30,
    ))
    def test_sort_key_is_the_dataclass_order(self, rows):
        vrps = [
            Vrp(Prefix(family, value, length), min(32, length + extra), asn)
            for family, value, length, extra, asn in rows
        ]
        assert sorted(vrps, key=Vrp.sort_key) == sorted(vrps)
        assert sort_vrps(vrps) == sorted(vrps)

    def test_hashable(self):
        a = Vrp(p("10.0.0.0/16"), 24, 1)
        b = Vrp(p("10.0.0.0/16"), 24, 1)
        assert len({a, b}) == 1
