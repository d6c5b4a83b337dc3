"""Tests for minimal-ROA conversion (repro.core.minimal)."""

from __future__ import annotations

from repro.core import (
    additional_prefix_count,
    build_origin_index,
    minimal_roa_for,
    to_minimal_vrps,
)
from repro.netbase import Prefix
from repro.rpki import Roa, RoaPrefix, Vrp


def p(text: str) -> Prefix:
    return Prefix.parse(text)


class TestToMinimalVrps:
    def test_paper_running_example(self):
        """§3: AS 111 announces the /16 and one /24 under a /16-24 ROA."""
        vrps = [Vrp(p("168.122.0.0/16"), 24, 111)]
        announced = [
            (p("168.122.0.0/16"), 111),
            (p("168.122.225.0/24"), 111),
        ]
        minimal = to_minimal_vrps(vrps, announced)
        assert minimal == [
            Vrp(p("168.122.0.0/16"), 16, 111),
            Vrp(p("168.122.225.0/24"), 24, 111),
        ]

    def test_unannounced_authorizations_dropped(self):
        vrps = [Vrp(p("10.0.0.0/16"), 24, 1)]
        assert to_minimal_vrps(vrps, []) == []

    def test_invalid_announcements_excluded(self):
        """Routes beyond maxLength or from the wrong AS stay out."""
        vrps = [Vrp(p("10.0.0.0/16"), 20, 1)]
        announced = [
            (p("10.0.0.0/24"), 1),   # length 24 > maxLength 20: invalid
            (p("10.0.0.0/18"), 2),   # wrong origin: invalid
            (p("10.0.0.0/18"), 1),   # valid
        ]
        assert to_minimal_vrps(vrps, announced) == [Vrp(p("10.0.0.0/18"), 18, 1)]

    def test_unrelated_announcements_ignored(self):
        vrps = [Vrp(p("10.0.0.0/16"), 24, 1)]
        announced = [(p("192.168.0.0/24"), 1), (p("2a00::/32"), 1)]
        assert to_minimal_vrps(vrps, announced) == []

    def test_moas_pairs_both_kept(self):
        vrps = [Vrp(p("10.0.0.0/16"), 16, 1), Vrp(p("10.0.0.0/16"), 16, 2)]
        announced = [(p("10.0.0.0/16"), 1), (p("10.0.0.0/16"), 2)]
        assert len(to_minimal_vrps(vrps, announced)) == 2

    def test_output_never_uses_maxlength(self, tiny_snapshot):
        minimal = to_minimal_vrps(tiny_snapshot.vrps, tiny_snapshot.announced)
        assert all(not vrp.uses_max_length for vrp in minimal)

    def test_valid_announced_routes_stay_valid(self, tiny_snapshot):
        """Soundness: the conversion never breaks a working route."""
        from repro.bgp import ValidationState, VrpIndex

        before = VrpIndex(tiny_snapshot.vrps)
        after = VrpIndex(to_minimal_vrps(tiny_snapshot.vrps, tiny_snapshot.announced))
        for prefix, origin in tiny_snapshot.announced:
            if before.validate(prefix, origin) is ValidationState.VALID:
                assert after.validate(prefix, origin) is ValidationState.VALID

    def test_no_unannounced_authorization_survives(self, tiny_snapshot):
        """Completeness: zero forged-origin subprefix surface remains."""
        from repro.core import analyze_vrps

        minimal = to_minimal_vrps(tiny_snapshot.vrps, tiny_snapshot.announced)
        report = analyze_vrps(minimal, tiny_snapshot.announced)
        assert report.vulnerable_vrps == 0
        assert report.non_minimal_vrps == 0

    def test_duplicate_announcements_collapse(self):
        vrps = [Vrp(p("10.0.0.0/16"), 16, 1)]
        announced = [(p("10.0.0.0/16"), 1)] * 3
        assert len(to_minimal_vrps(vrps, announced)) == 1


class TestMinimalRoaFor:
    def test_paper_conversion(self):
        """§6: "(1) identify the IP prefixes that are made valid by that
        ROA and are announced ... (2) modify the ROA"."""
        roa = Roa(111, [RoaPrefix(p("168.122.0.0/16"), 24)])
        announced = [
            (p("168.122.0.0/16"), 111),
            (p("168.122.225.0/24"), 111),
            (p("168.122.0.0/25"), 111),  # beyond maxLength: not valid
        ]
        minimal = minimal_roa_for(roa, announced)
        assert minimal == Roa(
            111, [p("168.122.0.0/16"), p("168.122.225.0/24")]
        )
        assert not minimal.uses_max_length

    def test_useless_roa_returns_none(self):
        roa = Roa(1, [RoaPrefix(p("10.0.0.0/16"), 24)])
        assert minimal_roa_for(roa, [(p("10.0.0.0/16"), 2)]) is None

    def test_accepts_prebuilt_index(self):
        roa = Roa(1, [RoaPrefix(p("10.0.0.0/16"), 24)])
        index = build_origin_index([(p("10.0.0.0/16"), 1)])
        assert minimal_roa_for(roa, index) == Roa(1, [p("10.0.0.0/16")])


class TestAdditionalPrefixCount:
    def test_counts_only_new_prefixes(self):
        vrps = [Vrp(p("10.0.0.0/16"), 24, 1)]
        announced = [
            (p("10.0.0.0/16"), 1),   # already a VRP prefix: not additional
            (p("10.0.1.0/24"), 1),   # newly needed
            (p("10.0.2.0/24"), 1),   # newly needed
        ]
        assert additional_prefix_count(vrps, announced) == 2

    def test_zero_when_already_minimal(self):
        vrps = [Vrp(p("10.0.0.0/16"), 16, 1)]
        announced = [(p("10.0.0.0/16"), 1)]
        assert additional_prefix_count(vrps, announced) == 0

    def test_matches_snapshot_arithmetic(self, tiny_snapshot):
        vrps = tiny_snapshot.vrps
        announced = tiny_snapshot.announced
        minimal = to_minimal_vrps(vrps, announced)
        existing = {(v.prefix, v.asn) for v in vrps}
        expected = sum(1 for v in minimal if (v.prefix, v.asn) not in existing)
        assert additional_prefix_count(vrps, announced) == expected


class TestBuildOriginIndex:
    def test_moas_prefix_keeps_all_origins(self):
        index = build_origin_index([(p("10.0.0.0/16"), 1), (p("10.0.0.0/16"), 2)])
        key = (p("10.0.0.0/16").value, 16)
        assert index == {(1, 4): [key], (2, 4): [key]}

    def test_families_separated(self):
        index = build_origin_index([(p("10.0.0.0/16"), 1), (p("2a00::/16"), 1)])
        assert set(index) == {(1, 4), (1, 6)}
