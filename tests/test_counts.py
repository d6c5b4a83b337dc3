"""Tests for Table 1's integer-key counts (repro.core.counts).

``pdu_counts`` must agree with the functions that build the VRPs it
only counts: ``len(pairs)``, ``compress_vrps`` of the exact VRPs and
``maximally_permissive_vrps`` — on any pair set, in both families.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    compress_vrps,
    lower_bound_pdu_count,
    maximally_permissive_vrps,
    minimal_pairs,
    pdu_counts,
    to_minimal_vrps,
)
from repro.netbase import AF_INET, AF_INET6, Prefix
from repro.rpki import Vrp


def exact_vrps(pairs) -> list[Vrp]:
    return [Vrp(prefix, prefix.length, asn) for prefix, asn in pairs]


# Strategy: prefixes built from four top bits and four host-end bits
# at a few lengths near both ends of the address, so that a bag holds
# /0, host routes (/32, /128), nested chains, full sibling pairs and
# repeats; three ASes give MOAS prefixes.
def _pairs():
    def build(entries):
        pairs = []
        for family, pick, top, low, asn in entries:
            width = 32 if family == AF_INET else 128
            length = (0, 1, 2, 3, 4, width - 2, width - 1, width)[pick]
            value = (top << (width - 4)) | low
            pairs.append((Prefix(family, value, length), asn))
        return pairs

    return st.builds(
        build,
        st.lists(
            st.tuples(
                st.sampled_from([AF_INET, AF_INET6]),
                st.integers(min_value=0, max_value=7),
                st.integers(min_value=0, max_value=15),
                st.integers(min_value=0, max_value=15),
                st.sampled_from([1, 2, 3]),
            ),
            max_size=40,
        ),
    )


class TestPduCounts:
    @settings(max_examples=300, deadline=None)
    @given(_pairs())
    def test_counts_equal_the_built_vrp_lists(self, pairs):
        assert pdu_counts(pairs) == (
            len(set(pairs)),
            len(compress_vrps(exact_vrps(pairs))),
            len(maximally_permissive_vrps(pairs)),
        )

    @settings(max_examples=100, deadline=None)
    @given(_pairs())
    def test_bound_count_is_the_vrp_list_length(self, pairs):
        assert lower_bound_pdu_count(pairs) == len(
            maximally_permissive_vrps(pairs))

    @settings(max_examples=100, deadline=None)
    @given(_pairs(), _pairs())
    def test_minimal_rows_count_the_minimal_pairs(self, held, announced):
        vrps = [Vrp(prefix, min(prefix.max_family_length, prefix.length + 2),
                    asn) for prefix, asn in held]
        minimal = to_minimal_vrps(vrps, announced)
        assert exact_vrps(sorted(minimal_pairs(vrps, announced))) == minimal
        assert pdu_counts(minimal_pairs(vrps, announced))[:2] == (
            len(minimal), len(compress_vrps(minimal)))

    def test_figure2_full_deployment(self):
        # Figure 2's four announcements compress to two PDUs; the /19
        # covers the rest under maximal permissiveness.
        pairs = [(Prefix.parse(text), 31283) for text in (
            "87.254.32.0/19", "87.254.32.0/20", "87.254.48.0/20",
            "87.254.32.0/21")]
        assert pdu_counts(pairs + pairs[:1]) == (4, 2, 1)

    def test_default_route_and_host_routes(self):
        pairs = [(Prefix(AF_INET6, 0, 0), 1), (Prefix(AF_INET6, 0, 128), 1),
                 (Prefix(AF_INET6, 1, 128), 1), (Prefix(AF_INET6, 0, 127), 1)]
        assert pdu_counts(pairs) == (4, 2, 1)

    def test_empty(self):
        assert pdu_counts([]) == (0, 0, 0)
