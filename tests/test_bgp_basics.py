"""Tests for announcements, RIBs, and RFC 6811 origin validation."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp import (
    AdjRibIn,
    Announcement,
    AnnouncementError,
    Rib,
    ValidationState,
    VrpIndex,
    validate_announcement,
)
from repro.netbase import Prefix
from repro.rpki import Vrp


def p(text: str) -> Prefix:
    return Prefix.parse(text)


class TestAnnouncement:
    def test_origin_is_rightmost(self):
        ann = Announcement(p("168.122.0.0/16"), (3356, 111))
        assert ann.origin == 111
        assert ann.path_length == 2

    def test_prepend(self):
        ann = Announcement(p("168.122.0.0/16"), (111,))
        assert ann.prepended_by(3356).as_path == (3356, 111)

    def test_empty_path_rejected(self):
        with pytest.raises(AnnouncementError):
            Announcement(p("10.0.0.0/8"), ())

    def test_loop_detection(self):
        assert Announcement(p("10.0.0.0/8"), (1, 2, 1)).has_loop()
        assert not Announcement(p("10.0.0.0/8"), (1, 1, 2)).has_loop()  # prepending
        assert not Announcement(p("10.0.0.0/8"), (3, 2, 1)).has_loop()

    def test_str_matches_paper_notation(self):
        ann = Announcement(p("168.122.0.0/16"), (3356, 111))
        assert str(ann) == "“168.122.0.0/16: AS 3356, AS 111”"

    def test_origin_pair(self):
        ann = Announcement(p("10.0.0.0/8"), (5, 4))
        assert ann.origin_pair() == (p("10.0.0.0/8"), 4)


class TestRib:
    def test_install_and_exact_lookup(self):
        rib = Rib()
        ann = Announcement(p("10.0.0.0/8"), (1,))
        rib.install(ann)
        assert rib.route_for_prefix(p("10.0.0.0/8")) == ann
        assert p("10.0.0.0/8") in rib
        assert len(rib) == 1

    def test_longest_prefix_match_forwarding(self):
        """§2: the /24 route wins over the /16 for covered addresses."""
        rib = Rib()
        covering = Announcement(p("168.122.0.0/16"), (111,))
        specific = Announcement(p("168.122.0.0/24"), (666,))
        rib.install(covering)
        rib.install(specific)
        assert rib.forward(p("168.122.0.1/32")) == specific
        assert rib.forward(p("168.122.225.1/32")) == covering
        assert rib.forward(p("9.9.9.9/32")) is None

    def test_withdraw(self):
        rib = Rib()
        rib.install(Announcement(p("10.0.0.0/8"), (1,)))
        assert rib.withdraw(p("10.0.0.0/8"))
        assert not rib.withdraw(p("10.0.0.0/8"))
        assert len(rib) == 0

    def test_replace_route(self):
        rib = Rib()
        rib.install(Announcement(p("10.0.0.0/8"), (1,)))
        rib.install(Announcement(p("10.0.0.0/8"), (2, 1)))
        assert rib.route_for_prefix(p("10.0.0.0/8")).as_path == (2, 1)
        assert len(rib) == 1

    def test_origin_pairs_view(self):
        rib = Rib()
        rib.install(Announcement(p("10.0.0.0/8"), (5, 1)))
        rib.install(Announcement(p("2001:db8::/32"), (2,)))
        assert set(rib.origin_pairs()) == {
            (p("10.0.0.0/8"), 1),
            (p("2001:db8::/32"), 2),
        }


class TestAdjRibIn:
    def test_learn_and_candidates(self):
        adj = AdjRibIn()
        a = Announcement(p("10.0.0.0/8"), (5, 1))
        b = Announcement(p("10.0.0.0/8"), (6, 1))
        adj.learn(5, a)
        adj.learn(6, b)
        assert adj.candidates(p("10.0.0.0/8")) == [(5, a), (6, b)]
        assert len(adj) == 2

    def test_forget(self):
        adj = AdjRibIn()
        adj.learn(5, Announcement(p("10.0.0.0/8"), (5, 1)))
        assert adj.forget(5, p("10.0.0.0/8"))
        assert not adj.forget(5, p("10.0.0.0/8"))
        assert adj.candidates(p("10.0.0.0/8")) == []


class TestOriginValidation:
    """The exact RFC 6811 scenarios from §2 and §4 of the paper."""

    index = VrpIndex([Vrp(p("168.122.0.0/16"), 16, 111)])
    loose = VrpIndex([Vrp(p("168.122.0.0/16"), 24, 111)])

    def test_exact_announcement_valid(self):
        assert self.index.validate(p("168.122.0.0/16"), 111) is ValidationState.VALID

    def test_subprefix_invalid_without_maxlength(self):
        """§2: dropping invalids stops the subprefix hijack."""
        assert self.index.validate(p("168.122.0.0/24"), 666) is ValidationState.INVALID
        # ... and even the legitimate AS cannot announce the subprefix.
        assert self.index.validate(p("168.122.1.0/24"), 111) is ValidationState.INVALID

    def test_maxlength_authorizes_subprefixes(self):
        """§3: with maxLength 24 the de-aggregated route is valid."""
        assert self.loose.validate(p("168.122.225.0/24"), 111) is ValidationState.VALID
        assert self.loose.validate(p("168.122.0.0/25"), 111) is ValidationState.INVALID

    def test_forged_origin_subprefix_is_valid(self):
        """§4: the attack announcement is RPKI-valid — the whole problem."""
        attack = Announcement(p("168.122.0.0/24"), (666, 111))
        assert validate_announcement(attack, self.loose) is ValidationState.VALID

    def test_uncovered_is_notfound(self):
        assert self.index.validate(p("9.0.0.0/8"), 1) is ValidationState.NOTFOUND

    def test_moas_any_matching_vrp_wins(self):
        index = VrpIndex(
            [Vrp(p("10.0.0.0/8"), 8, 1), Vrp(p("10.0.0.0/8"), 8, 2)]
        )
        assert index.validate(p("10.0.0.0/8"), 1) is ValidationState.VALID
        assert index.validate(p("10.0.0.0/8"), 2) is ValidationState.VALID
        assert index.validate(p("10.0.0.0/8"), 3) is ValidationState.INVALID

    def test_covering_enumeration(self):
        index = VrpIndex(
            [Vrp(p("10.0.0.0/8"), 8, 1), Vrp(p("10.0.0.0/16"), 24, 2)]
        )
        covering = list(index.covering(p("10.0.0.0/24")))
        assert len(covering) == 2

    def test_add_remove(self):
        index = VrpIndex()
        vrp = Vrp(p("10.0.0.0/8"), 8, 1)
        index.add(vrp)
        index.add(vrp)  # idempotent
        assert len(index) == 1
        assert index.remove(vrp)
        assert not index.remove(vrp)
        assert index.validate(p("10.0.0.0/8"), 1) is ValidationState.NOTFOUND

    def test_covering_order_ignores_input_order(self):
        vrps = [Vrp(p("10.0.0.0/8"), 16, 2), Vrp(p("10.0.0.0/8"), 8, 3),
                Vrp(p("10.0.0.0/8"), 8, 1), Vrp(p("10.0.0.0/16"), 16, 1)]
        expected = sorted(vrps)
        for table in (vrps, vrps[::-1], vrps + vrps):
            assert list(VrpIndex(table).covering(p("10.0.0.0/24"))) == expected

    def test_updated_returns_new_index_and_keeps_the_old(self):
        a, b, c = (Vrp(p("10.0.0.0/8"), 8, asn) for asn in (1, 2, 3))
        old = VrpIndex([a, c])
        new = old.updated(announced=[b, c], withdrawn=[a, Vrp(p("9.0.0.0/8"), 8, 1)])
        assert list(old.covering(p("10.0.0.0/8"))) == [a, c]
        assert list(new.covering(p("10.0.0.0/8"))) == [b, c]
        assert (len(old), len(new)) == (2, 2)
        gone = new.updated((), [b, c])
        assert len(gone) == 0
        assert gone.validate(p("10.0.0.0/8"), 2) is ValidationState.NOTFOUND
        assert new.validate(p("10.0.0.0/8"), 2) is ValidationState.VALID

    def test_empty_index_everything_notfound(self):
        index = VrpIndex()
        assert index.validate(p("10.0.0.0/8"), 1) is ValidationState.NOTFOUND


def _nested_prefixes(family: int) -> list[Prefix]:
    """Prefixes that nest and branch: a few addresses differing in high
    and low bits, cut at lengths from /0 to the host length."""
    width = 32 if family == 4 else 128
    addresses = [0, (10 << (width - 8)) | 5, (10 << (width - 8)) | 4,
                 (11 << (width - 8)), (1 << width) - 1]
    lengths = [0, 1, 8, 9, 16, width - 2, width - 1, width]
    return sorted({Prefix(family, address, length)
                   for address in addresses for length in lengths})


PREFIXES = _nested_prefixes(4) + _nested_prefixes(6)
#: Every VRP the property draws from: up to three origins per prefix
#: (multi-origin buckets) and a maxLength at or beyond the length.
VRPS = st.builds(
    lambda prefix, spread, asn: Vrp(
        prefix, min(prefix.max_family_length, prefix.length + spread), asn),
    st.sampled_from(PREFIXES),
    st.sampled_from([0, 1, 8]),
    st.sampled_from([1, 2, 3]),
)
STEPS = st.one_of(
    st.tuples(st.just("updated"), st.sets(VRPS, max_size=6),
              st.sets(VRPS, max_size=6)),
    st.tuples(st.just("add"), VRPS),
    st.tuples(st.just("remove"), VRPS),
)


def brute_force_covering(held, prefix: Prefix) -> list[Vrp]:
    """Every held VRP whose prefix covers ``prefix``, by prefix length
    and then ``sort_key``."""
    return sorted((vrp for vrp in held if vrp.prefix.covers(prefix)),
                  key=lambda vrp: (vrp.prefix.length, vrp.sort_key()))


def held_lengths(index: VrpIndex) -> dict[int, list[int]]:
    """The prefix lengths each family of ``index`` probes: no more and
    no fewer than those of its VRPs."""
    return {family: [length for length, _, _ in table._probes]
            for family, table in index._families.items()}


class TestVrpIndexOracle:
    """Whatever sequence of ``updated``/``add``/``remove`` built it, an
    index answers ``covering`` like brute force and like an index built
    fresh over its VRPs, and no index it was derived from changes."""

    @settings(max_examples=150, deadline=None)
    @given(st.sets(VRPS, max_size=30), st.lists(STEPS, max_size=8))
    def test_covering_equals_brute_force_and_every_version_holds(
            self, initial, steps):
        probes = PREFIXES

        def answers(index):
            return [list(index.covering(probe)) for probe in probes]

        held = set(initial)
        index = VrpIndex(initial)
        versions = [(index, answers(index), len(held))]
        for step in steps:
            if step[0] == "updated":
                _, announced, withdrawn = step
                index = index.updated(announced, withdrawn)
                held = (held - withdrawn) | announced
            else:
                # add/remove change the index they are called on, so
                # call them on a new one that shares every family.
                index = index.updated((), ())
                _, vrp = step
                if step[0] == "add":
                    index.add(vrp)
                    held.add(vrp)
                else:
                    assert index.remove(vrp) == (vrp in held)
                    held.discard(vrp)
            got = answers(index)
            assert got == [brute_force_covering(held, probe)
                           for probe in probes]
            fresh = VrpIndex(held)
            assert got == answers(fresh)
            assert held_lengths(index) == held_lengths(fresh)
            assert len(index) == len(held)
            versions.append((index, got, len(held)))
        for version, expected, count in versions:
            assert answers(version) == expected
            assert len(version) == count


def brute_force_forward(routes: dict, address: Prefix):
    """The route of the longest held prefix covering ``address``."""
    covering = [prefix for prefix in routes if prefix.covers(address)]
    if not covering:
        return None
    return routes[max(covering, key=lambda prefix: prefix.length)]


class TestRibOracle:
    """Whatever installs and withdraws built it, a RIB answers exact
    lookups, longest-prefix match and its route listing like a linear
    scan over a dict of the routes it holds — in both families, with
    ``/0``, host routes and nested chains among the prefixes."""

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(st.booleans(), st.sampled_from(PREFIXES),
                              st.sampled_from([1, 2, 3])), max_size=40))
    def test_forward_equals_a_linear_longest_match(self, steps):
        rib, held = Rib(), {}
        for install, prefix, asn in steps:
            if install:
                route = Announcement(prefix, (asn,))
                rib.install(route)
                held[prefix] = route
            else:
                assert rib.withdraw(prefix) == (prefix in held)
                held.pop(prefix, None)
        assert len(rib) == len(held)
        assert list(rib.routes()) == [held[key] for key in sorted(held)]
        hosts = [Prefix(prefix.family, prefix.value | 1,
                        prefix.max_family_length) for prefix in PREFIXES]
        for probe in PREFIXES + hosts:
            assert rib.route_for_prefix(probe) == held.get(probe)
            assert (probe in rib) == (probe in held)
            assert rib.forward(probe) == brute_force_forward(held, probe)
