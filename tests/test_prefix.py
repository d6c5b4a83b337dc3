"""Unit and property tests for repro.netbase.prefix."""

from __future__ import annotations

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netbase import AF_INET, AF_INET6, Prefix
from repro.netbase import prefix as prefix_module
from repro.netbase.errors import PrefixError, PrefixLengthError, PrefixParseError

# ----------------------------------------------------------------------
# Parsing and formatting
# ----------------------------------------------------------------------


class TestParsing:
    def test_parse_ipv4(self):
        p = Prefix.parse("168.122.0.0/16")
        assert p.family == AF_INET
        assert p.length == 16
        assert p.value == (168 << 24) | (122 << 16)

    def test_parse_ipv4_host_default_length(self):
        assert Prefix.parse("10.1.2.3").length == 32

    def test_parse_normalizes_host_bits(self):
        assert Prefix.parse("10.1.2.3/8") == Prefix.parse("10.0.0.0/8")

    def test_parse_ipv6(self):
        p = Prefix.parse("2001:db8::/32")
        assert p.family == AF_INET6
        assert p.length == 32
        assert p.value == 0x20010DB8 << 96

    def test_parse_ipv6_full_form(self):
        p = Prefix.parse("2001:0db8:0000:0000:0000:0000:0000:0001/128")
        assert str(p) == "2001:db8::1/128"

    def test_parse_ipv6_embedded_ipv4(self):
        p = Prefix.parse("::ffff:192.0.2.0/120")
        assert p.family == AF_INET6

    def test_parse_zero_length(self):
        assert Prefix.parse("0.0.0.0/0").length == 0

    @pytest.mark.parametrize(
        "bad",
        [
            "256.1.1.1/8",
            "1.2.3/8",
            "1.2.3.4.5/8",
            "01.2.3.4/8",
            "10.0.0.0/33",
            "10.0.0.0/-1",
            "10.0.0.0/x",
            "2001:db8::/129",
            ":::/16",
            "1:2:3:4:5:6:7/64",
            "2001:db8::1::2/64",
            "zzzz::/16",
        ],
    )
    def test_parse_rejects_garbage(self, bad):
        with pytest.raises((PrefixParseError, PrefixLengthError)):
            Prefix.parse(bad)

    def test_str_round_trip_ipv4(self):
        text = "87.254.32.0/19"
        assert str(Prefix.parse(text)) == text

    def test_ipv6_rfc5952_compression(self):
        assert str(Prefix.parse("2001:0:0:1::/64")) == "2001:0:0:1::/64"
        assert str(Prefix.parse("::1/128")) == "::1/128"
        assert str(Prefix.parse("1:0:0:2:0:0:0:3/128")) == "1:0:0:2::3/128"


class TestBits:
    def test_bits_of_known_prefix(self):
        assert Prefix.parse("160.0.0.0/4").bits() == "1010"

    def test_bits_empty_for_default_route(self):
        assert Prefix.parse("0.0.0.0/0").bits() == ""

    def test_from_bits_round_trip(self):
        p = Prefix.parse("87.254.32.0/19")
        assert Prefix.from_bits(AF_INET, p.bits()) == p

    def test_from_bits_rejects_too_long(self):
        with pytest.raises(PrefixLengthError):
            Prefix.from_bits(AF_INET, "0" * 33)


# ----------------------------------------------------------------------
# Containment and tree arithmetic
# ----------------------------------------------------------------------


class TestCovering:
    def test_covers_subprefix(self, example_prefix):
        assert example_prefix.covers(Prefix.parse("168.122.225.0/24"))

    def test_covers_self(self, example_prefix):
        assert example_prefix.covers(example_prefix)

    def test_does_not_cover_sibling_space(self, example_prefix):
        assert not example_prefix.covers(Prefix.parse("168.123.0.0/24"))

    def test_does_not_cover_shorter(self, example_prefix):
        assert not example_prefix.covers(Prefix.parse("168.0.0.0/8"))

    def test_covers_requires_same_family(self):
        assert not Prefix.parse("0.0.0.0/0").covers(Prefix.parse("::/0"))

    def test_covers_properly_excludes_self(self, example_prefix):
        assert not example_prefix.covers_properly(example_prefix)
        assert example_prefix.covers_properly(Prefix.parse("168.122.0.0/17"))

    def test_overlaps_is_symmetric(self, example_prefix):
        sub = Prefix.parse("168.122.4.0/24")
        assert example_prefix.overlaps(sub) and sub.overlaps(example_prefix)

    def test_children_of_example(self, example_prefix):
        assert str(example_prefix.left_child()) == "168.122.0.0/17"
        assert str(example_prefix.right_child()) == "168.122.128.0/17"

    def test_parent_inverts_children(self, example_prefix):
        assert example_prefix.left_child().parent() == example_prefix
        assert example_prefix.right_child().parent() == example_prefix

    def test_sibling_flips_last_bit(self, example_prefix):
        left = example_prefix.left_child()
        assert left.sibling() == example_prefix.right_child()
        assert left.sibling().sibling() == left

    def test_is_left_child(self, example_prefix):
        assert example_prefix.left_child().is_left_child()
        assert not example_prefix.right_child().is_left_child()

    def test_default_route_has_no_parent_or_sibling(self):
        root = Prefix.parse("0.0.0.0/0")
        with pytest.raises(PrefixLengthError):
            root.parent()
        with pytest.raises(PrefixLengthError):
            root.sibling()

    def test_host_prefix_has_no_children(self):
        host = Prefix.parse("10.0.0.1/32")
        with pytest.raises(PrefixLengthError):
            host.left_child()

    def test_subprefixes_enumeration(self, example_prefix):
        subs = list(example_prefix.subprefixes(18))
        assert len(subs) == 4
        assert subs[0] == Prefix.parse("168.122.0.0/18")
        assert subs[-1] == Prefix.parse("168.122.192.0/18")
        assert all(example_prefix.covers(s) for s in subs)

    def test_subprefixes_same_length_is_identity(self, example_prefix):
        assert list(example_prefix.subprefixes(16)) == [example_prefix]

    def test_subprefixes_rejects_shorter(self, example_prefix):
        with pytest.raises(PrefixLengthError):
            list(example_prefix.subprefixes(8))

    def test_count_subprefixes(self, example_prefix):
        assert example_prefix.count_subprefixes(24) == 256
        assert example_prefix.count_subprefixes(8) == 0

    def test_truncate(self):
        assert Prefix.parse("10.1.2.0/24").truncate(8) == Prefix.parse("10.0.0.0/8")
        with pytest.raises(PrefixLengthError):
            Prefix.parse("10.0.0.0/8").truncate(16)

    def test_address_range(self, example_prefix):
        assert example_prefix.first_address() == (168 << 24) | (122 << 16)
        assert example_prefix.last_address() == (168 << 24) | (122 << 16) | 0xFFFF


class TestOrderingAndHashing:
    def test_sort_groups_ancestors_first(self):
        prefixes = [
            Prefix.parse("10.0.0.0/16"),
            Prefix.parse("10.0.0.0/8"),
            Prefix.parse("10.0.1.0/24"),
            Prefix.parse("9.0.0.0/8"),
        ]
        ordered = sorted(prefixes)
        assert [str(p) for p in ordered] == [
            "9.0.0.0/8",
            "10.0.0.0/8",
            "10.0.0.0/16",
            "10.0.1.0/24",
        ]

    def test_families_sort_v4_before_v6(self):
        assert Prefix.parse("255.0.0.0/8") < Prefix.parse("::/0")

    def test_hashable_and_equal(self):
        a = Prefix.parse("10.0.0.0/8")
        b = Prefix.parse("10.255.255.255/8")
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_repr_is_informative(self, example_prefix):
        assert "168.122.0.0/16" in repr(example_prefix)


# ----------------------------------------------------------------------
# Property-based tests
# ----------------------------------------------------------------------

v4_prefixes = st.builds(
    Prefix,
    st.just(AF_INET),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=0, max_value=32),
)
v6_prefixes = st.builds(
    Prefix,
    st.just(AF_INET6),
    st.integers(min_value=0, max_value=2**128 - 1),
    st.integers(min_value=0, max_value=128),
)
any_prefix = st.one_of(v4_prefixes, v6_prefixes)


class TestProperties:
    @given(any_prefix)
    def test_parse_str_round_trip(self, prefix):
        assert Prefix.parse(str(prefix)) == prefix

    @given(any_prefix)
    def test_bits_round_trip(self, prefix):
        assert Prefix.from_bits(prefix.family, prefix.bits()) == prefix

    @given(any_prefix)
    def test_children_are_covered_and_disjoint(self, prefix):
        if prefix.length >= prefix.max_family_length:
            return
        left, right = prefix.left_child(), prefix.right_child()
        assert prefix.covers(left) and prefix.covers(right)
        assert not left.covers(right) and not right.covers(left)
        assert left != right

    @given(any_prefix)
    def test_covering_matches_address_range(self, prefix):
        if prefix.length >= prefix.max_family_length:
            return
        sub = prefix.right_child()
        assert prefix.first_address() <= sub.first_address()
        assert sub.last_address() <= prefix.last_address()

    @given(v4_prefixes, v4_prefixes)
    def test_covers_iff_range_contained(self, a, b):
        range_contained = (
            a.first_address() <= b.first_address()
            and b.last_address() <= a.last_address()
        )
        assert a.covers(b) == (range_contained and a.length <= b.length)

    @given(any_prefix)
    def test_sibling_is_involution(self, prefix):
        if prefix.length == 0:
            return
        assert prefix.sibling().sibling() == prefix
        assert prefix.sibling().parent() == prefix.parent()


# ----------------------------------------------------------------------
# The IPv4 fast path against the full parser
# ----------------------------------------------------------------------

# Octet spellings near the dotted-quad language: canonical, leading
# zeros, out of range, signs, separators, blanks and other scripts'
# digits ("١" Arabic-Indic, "１" fullwidth, "²").
_OCTETS = st.one_of(
    st.integers(min_value=0, max_value=300).map(str),
    st.sampled_from(["00", "01", "007", "+1", "-1", "1_0", " 1", "1 ", "",
                     "0x1", "١", "１", "²", "1\x00", "9" * 12]),
    st.text(alphabet="0123456789١１²abf:.", max_size=4),
)
_LENGTH_TEXTS = st.one_of(
    st.integers(min_value=0, max_value=140).map(str),
    st.sampled_from(["", "024", "0", "000", "+8", "٢٤", "²",
                     "8 ", "9" * 5000]),
)
_NEAR_QUADS = st.builds(
    lambda octets, sep, suffix: sep.join(octets) + suffix,
    st.lists(_OCTETS, min_size=3, max_size=5),
    st.sampled_from([".", ".", ".", ":"]),
    st.one_of(st.just(""), _LENGTH_TEXTS.map(lambda text: "/" + text)),
)
_PREFIX_TEXTS = st.one_of(_NEAR_QUADS, st.text(max_size=24))


def _outcome(text):
    try:
        return Prefix.parse(text)
    except PrefixError as exc:
        return type(exc)


class TestFastPath:
    @settings(max_examples=600, deadline=None)
    @given(_PREFIX_TEXTS)
    def test_parse_is_the_full_parser(self, text):
        # Any other exception escapes _outcome and fails the test.
        fast = _outcome(text)
        with mock.patch.object(prefix_module, "_parse_ipv4_canonical",
                               lambda address: None):
            assert _outcome(text) == fast

    @settings(max_examples=600, deadline=None)
    @given(_PREFIX_TEXTS)
    def test_fast_path_takes_a_subset(self, text):
        value = prefix_module._parse_ipv4_canonical(text)
        if value is not None:
            assert prefix_module._parse_ipv4(text) == value

    @pytest.mark.parametrize("text", [
        "١.2.3.4/24", "1.2.3.0/٢٤", "::１/128", "1.2.3.0/²",
        "::1_0/128", "::+1/128", "::0x1/128", "1.2.3.4\x00/8", "\ud800",
        "9" * 5000 + ".1.1.1", "1.2.3.0/" + "9" * 5000,
    ])
    def test_non_ascii_and_int_only_spellings_are_typed_errors(self, text):
        with pytest.raises(PrefixError):
            Prefix.parse(text)

    @pytest.mark.parametrize("length", ["٢٤", "²", "+8", "", "8a"])
    def test_a_length_that_is_not_digits_is_a_parse_error(self, length):
        with pytest.raises(PrefixParseError, match="bad length"):
            Prefix.parse(f"10.0.0.0/{length}")

    def test_leading_zero_lengths_still_parse(self):
        assert Prefix.parse("10.0.0.0/008") == Prefix.parse("10.0.0.0/8")
        with pytest.raises(PrefixLengthError):
            Prefix.parse("10.0.0.0/0033")


def _generator_format_ipv4(value: int) -> str:
    """The formatter ``inet_ntop`` replaced: four decimal octets."""
    return ".".join(str((value >> shift) & 0xFF) for shift in (24, 16, 8, 0))


class TestFormatIpv4:
    @settings(max_examples=500, deadline=None)
    @given(
        st.one_of(
            st.sampled_from([0, 0xFFFFFFFF, 0x7F000001, 0x0A000000]),
            st.integers(min_value=0, max_value=0xFFFFFFFF),
        ),
        st.integers(min_value=0, max_value=32),
    )
    def test_inet_ntop_text_is_the_dotted_quad(self, value, length):
        assert prefix_module._format_ipv4(value) == (
            _generator_format_ipv4(value))
        network = value & ~((1 << (32 - length)) - 1) & 0xFFFFFFFF
        prefix = Prefix(AF_INET, network, length)
        assert Prefix.parse(str(prefix)) == prefix
