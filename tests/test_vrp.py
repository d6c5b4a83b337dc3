"""Tests for Validated ROA Payloads (repro.rpki.vrp)."""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import operator
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netbase import AF_INET, Prefix
from repro.netbase.errors import AsnError, PrefixLengthError
from repro.rpki import Vrp, parse_vrp, sort_vrps

SRC = Path(__file__).resolve().parent.parent / "src"


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


def reference(vrp: Vrp) -> tuple:
    """The frozen-dataclass identity ``Vrp`` had before its comparisons
    were written out over ints: the field tuple, with the prefix as
    Prefix orders and hashes itself."""
    prefix = vrp.prefix
    return ((prefix.family, prefix.value, prefix.length),
            vrp.max_length, vrp.asn)


#: Rows that collide often: few addresses (the same value in both
#: families), nested lengths, equal prefixes with other ASNs.
vrp_rows = st.tuples(
    st.sampled_from([4, 6]),
    st.sampled_from([0, 1 << 24, 10 << 24, 0x0A000100, 2**32 - 1]),
    st.integers(min_value=0, max_value=32),
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=1, max_value=3),
)


def vrp_of(row) -> Vrp:
    family, value, length, extra, asn = row
    return Vrp(Prefix(family, value, length), min(32, length + extra), asn)


def ten_thousand_vrps() -> list[Vrp]:
    """A fixed table of both families, built the same way every run."""
    rng = random.Random(2017)
    rows = []
    for _ in range(10_000):
        family = 4 if rng.random() < 0.8 else 6
        width = 32 if family == 4 else 128
        length = rng.randint(8, 24) if family == 4 else rng.randint(19, 48)
        value = rng.getrandbits(width)
        extra = rng.choice((0, 0, 0, 1, 8))
        rows.append(Vrp(Prefix(family, value, length),
                        min(width, length + extra), rng.randrange(1, 70_000)))
    return rows


#: ``pickle.dumps(Vrp(2001:db8::/32, 48, 65000), protocol=4)`` as the
#: frozen dataclass wrote it: the three fields and nothing else.
PICKLED = (
    b"\x80\x04\x95\x87\x00\x00\x00\x00\x00\x00\x00\x8c\x0erepro.rpki.vrp"
    b"\x94\x8c\x03Vrp\x94\x93\x94)\x81\x94]\x94(\x8c\x14repro.netbase."
    b"prefix\x94\x8c\x06Prefix\x94\x93\x94)\x81\x94N}\x94(\x8c\x07_family"
    b"\x94K\x06\x8c\x06_value\x94\x8a\x10\x00\x00\x00\x00\x00\x00\x00\x00"
    b"\x00\x00\x00\x00\xb8\r\x01 \x8c\x07_length\x94K u\x86\x94bK0M\xe8"
    b"\xfdeb."
)


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

    @settings(max_examples=200, deadline=None)
    @given(st.lists(vrp_rows, max_size=30), st.lists(vrp_rows, max_size=8))
    def test_comparisons_and_sort_key_are_the_tuple_order(self, rows, pairs):
        vrps = [vrp_of(row) for row in rows]
        in_order = sorted(vrps, key=reference)
        assert sorted(vrps) == in_order
        assert sorted(vrps, key=Vrp.sort_key) == in_order
        assert sort_vrps(vrps) == in_order
        # Every pair, including a VRP against an equal copy of itself.
        others = vrps + [vrp_of(row) for row in pairs + rows[:3]]
        for a in vrps[:12]:
            for b in others:
                ra, rb = reference(a), reference(b)
                assert (a == b, a != b) == (ra == rb, ra != rb)
                assert (a < b, a <= b) == (ra < rb, ra <= rb)
                assert (a > b, a >= b) == (ra > rb, ra >= rb)
                if a == b:
                    assert hash(a) == hash(b)

    @settings(max_examples=60, deadline=None)
    @given(vrp_rows)
    def test_hash_is_the_field_tuple_hash(self, row):
        vrp = vrp_of(row)
        expected = hash((vrp.prefix, vrp.max_length, vrp.asn))
        assert hash(vrp) == expected
        assert hash(vrp) == expected  # the cached value, the same

    def test_set_iteration_order_is_pinned(self):
        """Sets of VRPs iterate in hash order, and that order reaches
        output (``CacheState``, the index, every ``set`` a command walks),
        so the hash value may not change: the digest was taken from the
        dataclass-generated hash."""
        text = "\n".join(map(str, set(ten_thousand_vrps())))
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "7f7a28ed42abfe2d19ae939e6fd2351edc988c7538b8d5821b1253dd90d8e4db"
        )

    def test_comparing_with_another_type(self):
        vrp = Vrp(p("10.0.0.0/16"), 24, 1)
        assert vrp != (vrp.prefix, 24, 1)
        assert not vrp == vrp.sort_key()
        assert vrp != "10.0.0.0/16-24 => AS1"
        for other in (None, 1, vrp.sort_key(), vrp.prefix):
            for compare in (operator.lt, operator.le,
                            operator.gt, operator.ge):
                with pytest.raises(TypeError):
                    compare(vrp, other)
                with pytest.raises(TypeError):
                    compare(other, vrp)

    def test_hashable(self):
        a = Vrp(p("10.0.0.0/16"), 24, 1)
        b = Vrp(p("10.0.0.0/16"), 24, 1)
        assert len({a, b}) == 1


class TestIdentityRoundTrips:
    """Copies keep equality and hash; the cache slot is in none of
    the dataclass views."""

    vrp = Vrp(p("2001:db8::/32"), 48, 65000)

    def test_pickle_bytes_are_the_dataclass_bytes(self):
        fresh = Vrp(self.vrp.prefix, 48, 65000)
        assert pickle.dumps(fresh, protocol=4) == PICKLED
        hash(fresh)  # a cached hash is not part of the state
        assert pickle.dumps(fresh, protocol=4) == PICKLED
        loaded = pickle.loads(PICKLED)
        assert loaded == self.vrp and hash(loaded) == hash(self.vrp)

    def test_pickle_loads_in_a_fresh_interpreter(self):
        hash(self.vrp)
        script = (
            "import pickle, sys; "
            "vrp = pickle.loads(sys.stdin.buffer.read()); "
            "print(repr(vrp)); print(hash(vrp)); print(vrp.sort_key())"
        )
        env = dict(os.environ, PYTHONPATH=str(SRC))
        done = subprocess.run(
            [sys.executable, "-c", script], input=pickle.dumps(self.vrp),
            capture_output=True, env=env, timeout=60, check=True,
        )
        assert done.stdout.decode().splitlines() == [
            repr(self.vrp), str(hash(self.vrp)), str(self.vrp.sort_key())]

    def test_copies_keep_equality_and_hash(self):
        hash(self.vrp)
        for twin in (copy.copy(self.vrp), copy.deepcopy(self.vrp),
                     dataclasses.replace(self.vrp),
                     pickle.loads(pickle.dumps(self.vrp))):
            assert twin == self.vrp and not twin != self.vrp
            assert hash(twin) == hash(self.vrp)
            assert repr(twin) == repr(self.vrp)
        moved = dataclasses.replace(self.vrp, asn=1)
        assert moved != self.vrp
        assert hash(moved) == hash((moved.prefix, 48, 1))

    def test_the_cache_slot_is_not_a_field(self):
        hash(self.vrp)
        assert [f.name for f in dataclasses.fields(Vrp)] == [
            "prefix", "max_length", "asn"]
        assert dataclasses.astuple(self.vrp) == (self.vrp.prefix, 48, 65000)
        assert dataclasses.asdict(self.vrp) == {
            "prefix": self.vrp.prefix, "max_length": 48, "asn": 65000}
        assert repr(self.vrp) == (
            "Vrp(prefix=Prefix('2001:db8::/32'), max_length=48, asn=65000)")
        with pytest.raises(dataclasses.FrozenInstanceError):
            self.vrp.asn = 1  # type: ignore[misc]
