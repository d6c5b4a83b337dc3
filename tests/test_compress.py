"""Tests for Algorithm 1 (compress_roas) and the optimal extension.

The two load-bearing invariants, proven here property-style:

* **Losslessness**: the authorized set of (prefix, origin) pairs is
  identical before and after compression (§7: the compressed ROA "is
  still minimal, because it covers exactly the same set of prefixes").
* **No inflation**: output never has more tuples than input.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CompressionStats, compress_group, compress_vrps
from repro.netbase import AF_INET, AF_INET6, Prefix
from repro.netbase.errors import PrefixLengthError
from repro.rpki import Vrp

from optimal_compression import build_tries, compress_vrps_optimal


def p(text: str) -> Prefix:
    return Prefix.parse(text)


def authorized_pairs(vrps) -> set[tuple[Prefix, int]]:
    """Brute-force expansion of everything a VRP set authorizes."""
    pairs = set()
    for vrp in vrps:
        for length in range(vrp.prefix.length, vrp.max_length + 1):
            for sub in vrp.prefix.subprefixes(length):
                pairs.add((sub, vrp.asn))
    return pairs


class TestFigure2:
    """The paper's worked example, byte for byte."""

    INPUT = [
        Vrp(p("87.254.32.0/19"), 19, 31283),
        Vrp(p("87.254.32.0/20"), 20, 31283),
        Vrp(p("87.254.48.0/20"), 20, 31283),
        Vrp(p("87.254.32.0/21"), 21, 31283),
    ]

    def test_compresses_four_pdus_to_two(self):
        output = compress_vrps(self.INPUT)
        assert output == [
            Vrp(p("87.254.32.0/19"), 20, 31283),
            Vrp(p("87.254.32.0/21"), 21, 31283),
        ]

    def test_does_not_overcompress_to_19_21(self):
        """§7: (87.254.32.0/19-21) would authorize 87.254.40.0/21 —
        vulnerable — and must NOT be produced."""
        output = compress_vrps(self.INPUT)
        bad = Vrp(p("87.254.32.0/19"), 21, 31283)
        assert bad not in output
        assert (p("87.254.40.0/21"), 31283) not in authorized_pairs(output)

    def test_lossless_on_example(self):
        assert authorized_pairs(compress_vrps(self.INPUT)) == authorized_pairs(
            self.INPUT
        )


class TestAlgorithmBehaviour:
    def test_empty_input(self):
        assert compress_vrps([]) == []

    def test_single_tuple_unchanged(self):
        vrps = [Vrp(p("10.0.0.0/16"), 24, 1)]
        assert compress_vrps(vrps) == vrps

    def test_siblings_without_parent_do_not_merge(self):
        """Merging orphan siblings would authorize the unannounced
        parent — the forged-origin surface the paper avoids."""
        vrps = [Vrp(p("10.0.0.0/24"), 24, 1), Vrp(p("10.0.1.0/24"), 24, 1)]
        assert compress_vrps(vrps) == vrps

    def test_full_pyramid_cascades_to_one_tuple(self):
        base = p("10.0.0.0/16")
        vrps = [Vrp(base, 16, 7)]
        vrps += [Vrp(c, 17, 7) for c in base.subprefixes(17)]
        vrps += [Vrp(c, 18, 7) for c in base.subprefixes(18)]
        assert compress_vrps(vrps) == [Vrp(base, 18, 7)]

    def test_different_asns_never_merge(self):
        vrps = [
            Vrp(p("10.0.0.0/16"), 16, 1),
            Vrp(p("10.0.0.0/17"), 17, 2),
            Vrp(p("10.0.128.0/17"), 17, 2),
        ]
        assert compress_vrps(vrps) == sorted(vrps)

    def test_families_kept_apart(self):
        vrps = [
            Vrp(p("10.0.0.0/16"), 16, 1),
            Vrp(p("2a00::/16"), 16, 1),
        ]
        assert compress_vrps(vrps) == sorted(vrps)

    def test_duplicate_tuples_collapse_to_max(self):
        vrps = [Vrp(p("10.0.0.0/16"), 16, 1), Vrp(p("10.0.0.0/16"), 24, 1)]
        assert compress_vrps(vrps) == [Vrp(p("10.0.0.0/16"), 24, 1)]

    def test_idempotent(self):
        vrps = TestFigure2.INPUT + [Vrp(p("10.0.0.0/16"), 18, 5)]
        once = compress_vrps(vrps)
        assert compress_vrps(once) == once

    def test_uneven_children_keep_deeper_one(self):
        # parent /16, children /17-17 and /17-20: merge to /16-17 but
        # the right child still authorizes /18../20 -> must survive.
        vrps = [
            Vrp(p("10.0.0.0/16"), 16, 1),
            Vrp(p("10.0.0.0/17"), 17, 1),
            Vrp(p("10.0.128.0/17"), 20, 1),
        ]
        output = compress_vrps(vrps)
        assert output == [
            Vrp(p("10.0.0.0/16"), 17, 1),
            Vrp(p("10.0.128.0/17"), 20, 1),
        ]
        assert authorized_pairs(output) == authorized_pairs(vrps)

    def test_build_tries_groups_by_asn_and_family(self):
        vrps = [
            Vrp(p("10.0.0.0/16"), 16, 1),
            Vrp(p("10.1.0.0/16"), 16, 1),
            Vrp(p("10.0.0.0/16"), 16, 2),
            Vrp(p("2a00::/16"), 16, 1),
        ]
        tries = build_tries(vrps)
        assert set(tries) == {(1, 4), (2, 4), (1, 6)}
        assert len(tries[(1, 4)]) == 2

    def test_compress_group_in_place(self):
        # A group maps (length, network bits) to an int maxLength.
        parent, left, right = (
            p("10.0.0.0/16"), p("10.0.0.0/17"), p("10.0.128.0/17"))
        group = {(q.length, q.value): q.length for q in (parent, left, right)}
        compress_group(group, 32)
        assert group == {(16, parent.value): 17}

    def test_unchanged_survivors_are_the_input_objects(self):
        kept = Vrp(p("10.0.128.0/17"), 20, 1)
        vrps = [Vrp(p("10.0.0.0/16"), 16, 1), Vrp(p("10.0.0.0/17"), 17, 1),
                kept]
        assert compress_vrps(vrps)[1] is kept

    def test_host_prefixes_are_leaves_in_both_families(self):
        vrps = [
            Vrp(p("10.0.0.0/31"), 31, 1),
            Vrp(p("10.0.0.0/32"), 32, 1),
            Vrp(p("10.0.0.1/32"), 32, 1),
            Vrp(p("2a00::/127"), 127, 1),
            Vrp(p("2a00::/128"), 128, 1),
            Vrp(p("2a00::1/128"), 128, 1),
        ]
        assert compress_vrps(vrps) == [
            Vrp(p("10.0.0.0/31"), 32, 1),
            Vrp(p("2a00::/127"), 128, 1),
        ]


class TestCompressionStats:
    def test_ratio(self):
        stats = CompressionStats(39949, 33615)
        assert stats.saved == 6334
        assert stats.ratio == pytest.approx(6334 / 39949)
        assert "15.86" in str(stats)  # the paper rounds this to 15.90%

    def test_zero_input(self):
        assert CompressionStats(0, 0).ratio == 0.0


# Strategy: a bag of VRPs confined to one /24 (so brute-force
# expansion stays tiny) with maxLength spreads up to 4, two ASNs.
def _small_vrps():
    def build(entries):
        vrps = []
        base = p("10.20.30.0/24")
        for offset, length, spread, asn in entries:
            length = 24 + length % 9
            sub_offset = offset % (1 << (length - 24))
            prefix = Prefix(
                AF_INET, base.value + (sub_offset << (32 - length)), length
            )
            vrps.append(Vrp(prefix, min(32, length + spread), asn))
        return vrps

    return st.builds(
        build,
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=255),
                st.integers(min_value=0, max_value=8),
                st.integers(min_value=0, max_value=4),
                st.sampled_from([1, 2]),
            ),
            min_size=1,
            max_size=14,
        ),
    )


def algorithm1_on_tries(vrps) -> list[Vrp]:
    """The oracle: §7.1's pseudocode transcribed onto the one-node-per-
    bit trie, run "as the DFS backtracks" (postorder)."""
    output = []
    for (asn, _family), trie in build_tries(vrps).items():
        for node in trie.postorder_nodes():
            left, right = node.left, node.right
            if not (node.has_value and left is not None and right is not None
                    and left.has_value and right.has_value):
                continue
            min_child_val = min(left.value, right.value)
            if min_child_val > node.value:
                node.value = min_child_val
            if left.value <= node.value:
                trie.unmark(left)
            if right.value <= node.value:
                trie.unmark(right)
        output += [Vrp(prefix, value, asn) for prefix, value in trie.items()]
    return sorted(output)


# Strategy: tuples within four bits of the host length under two
# addresses, so that bags hold duplicate prefixes at different
# maxLengths, full sibling pairs, chains, and /32 and /128 leaves —
# for two ASes and both families.
def _nested_vrps():
    def build(entries):
        vrps = []
        for family, top, low, depth, spread, asn in entries:
            width = 32 if family == AF_INET else 128
            length = width - depth
            prefix = Prefix(family, (top << (width - 8)) | low, length)
            vrps.append(Vrp(prefix, min(width, length + spread), asn))
        return vrps

    return st.builds(
        build,
        st.lists(
            st.tuples(
                st.sampled_from([AF_INET, AF_INET6]),
                st.sampled_from([10, 11]),
                st.integers(min_value=0, max_value=15),
                st.integers(min_value=0, max_value=4),
                st.integers(min_value=0, max_value=3),
                st.sampled_from([1, 2]),
            ),
            min_size=1,
            max_size=30,
        ),
    )


class TestProperties:
    @settings(max_examples=400, deadline=None)
    @given(st.one_of(_nested_vrps(), _small_vrps()))
    def test_sweep_equals_the_trie_transcription(self, vrps):
        assert compress_vrps(vrps) == algorithm1_on_tries(vrps)

    @settings(max_examples=120, deadline=None)
    @given(_small_vrps())
    def test_compression_is_lossless(self, vrps):
        output = compress_vrps(vrps)
        assert authorized_pairs(output) == authorized_pairs(vrps)

    @settings(max_examples=120, deadline=None)
    @given(_small_vrps())
    def test_compression_never_inflates(self, vrps):
        assert len(compress_vrps(vrps)) <= len(set(vrps))

    @settings(max_examples=120, deadline=None)
    @given(_small_vrps())
    def test_compression_idempotent(self, vrps):
        once = compress_vrps(vrps)
        assert compress_vrps(once) == once

    @settings(max_examples=80, deadline=None)
    @given(_small_vrps())
    def test_optimal_is_lossless_and_at_most_algorithm1(self, vrps):
        algorithm1 = compress_vrps(vrps)
        optimal = compress_vrps_optimal(vrps)
        assert authorized_pairs(optimal) == authorized_pairs(vrps)
        assert len(optimal) <= len(algorithm1)

    @settings(max_examples=80, deadline=None)
    @given(_small_vrps())
    def test_optimal_idempotent_fixpoint(self, vrps):
        optimal = compress_vrps_optimal(vrps)
        assert compress_vrps_optimal(optimal) == optimal


class TestOptimalGuards:
    def test_spread_limit_enforced(self):
        with pytest.raises(PrefixLengthError):
            compress_vrps_optimal([Vrp(p("10.0.0.0/8"), 32, 1)])

    def test_spread_limit_configurable(self):
        vrps = [Vrp(p("10.0.0.0/24"), 32, 1)]
        with pytest.raises(PrefixLengthError):
            compress_vrps_optimal(vrps, max_spread=4)
        assert compress_vrps_optimal(vrps, max_spread=8) == vrps

    def test_optimal_strictly_better_on_known_case(self):
        # /24-26 next to a /25-28: Algorithm 1 cannot see that
        # re-emitting the /25 pyramid saves the four /27 pyramids.
        vrps = [
            Vrp(p("10.0.0.0/24"), 26, 1),
            Vrp(p("10.0.0.0/25"), 28, 1),
        ]
        algorithm1 = compress_vrps(vrps)
        optimal = compress_vrps_optimal(vrps)
        assert len(optimal) <= len(algorithm1) <= len(vrps)
        assert authorized_pairs(optimal) == authorized_pairs(vrps)
