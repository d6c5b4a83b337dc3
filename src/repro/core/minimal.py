"""Minimal ROAs: conversion from the status quo to the safe configuration.

A ROA is *minimal* (RFC 6907 §3.2; paper §3) when it authorizes exactly
the prefixes its AS announces in BGP — no maxLength slack, no unused
entries.  Minimal ROAs are immune to the forged-origin subprefix hijack
because every authorized route actually exists and competes with any
forgery.

This module implements the conversions of §6–§7:

* :func:`to_minimal_vrps` — the dataset-level transformation behind
  Table 1 rows 3 and 5: every (prefix, origin) pair that is announced in
  BGP *and* valid under the current VRPs (:func:`minimal_pairs`) becomes
  one maxLength-free VRP.
* :func:`minimal_roa_for` — the per-ROA version of the same idea ("we
  just convert each original non-minimal ROA to a minimal ROA that has
  the set of prefixes announced in BGP"), preserving ROA granularity so
  no new ROAs or signatures are needed.
* :func:`additional_prefix_count` — the "13K additional prefixes"
  measurement of §6.

Two indexes do the work.  :func:`build_origin_index` keeps each AS's
announced prefixes per family as sorted ``(network bits, length)``
ints, so the routes a prefix covers are one slice between two
``bisect`` points (:func:`announced_under`; what the vulnerability and
linting code queries), and :func:`minimal_pairs` validates each
announcement whose origin holds a VRP against a
:class:`~repro.bgp.origin_validation.VrpIndex`, the structure routers
hold.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import TYPE_CHECKING, Iterable

from ..bgp.origin_validation import ValidationState, VrpIndex
from ..netbase.prefix import Prefix
from ..rpki.vrp import Vrp, sort_vrps
from .compress import _WIDTH, group_pairs

if TYPE_CHECKING:
    from ..rpki.roa import Roa

__all__ = [
    "OriginIndex",
    "OriginPair",
    "announced_under",
    "build_origin_index",
    "minimal_pairs",
    "to_minimal_vrps",
    "minimal_roa_for",
    "additional_prefix_count",
]

#: One BGP routing-table entry reduced to what origin validation sees.
OriginPair = tuple[Prefix, int]


#: Announced prefixes per (origin AS, family): ``(network bits,
#: length)`` keys in ascending order, which puts each prefix just
#: before the prefixes it covers.
OriginIndex = dict[tuple[int, int], list[tuple[int, int]]]


def build_origin_index(announced: Iterable[OriginPair]) -> OriginIndex:
    """Index announced (prefix, origin) pairs for covering queries.

    Every query against the index asks what one AS announces — RFC
    6811 *matching* needs the route's origin to equal the VRP's AS —
    so the pairs are grouped per (origin, family) first, as Algorithm 1
    groups them (:func:`~repro.core.compress.group_pairs`), and each
    group's keys are sorted once.  A multi-origin (MOAS) prefix is a
    key in each of its origins' groups.  A caller that knows which ASes
    it will ask about (:func:`analyze_vrps
    <repro.core.vulnerability.analyze_vrps>`, :func:`lint_roas
    <repro.core.recommend.lint_roas>`) indexes only their
    announcements.
    """
    return {
        origin_family: sorted((value, length) for length, value in group)
        for origin_family, group in group_pairs(announced).items()
    }


def announced_under(
    index: OriginIndex, asn: int, prefix: Prefix
) -> list[tuple[int, int]]:
    """The ``(network bits, length)`` keys ``asn`` announces inside
    ``prefix`` (``prefix`` itself included), in ascending order.

    A key is inside ``prefix`` when its bits fall in the prefix's
    address range and it is no shorter: the range's first key is
    ``(bits, length)`` itself, and its last is the range's last address
    at the family's width.
    """
    keys = index.get((asn, prefix._family))
    if not keys:
        return []
    value, length = prefix._value, prefix._length
    width = _WIDTH[prefix._family]
    low = bisect_left(keys, (value, length))
    high = bisect_right(
        keys, (value | ((1 << (width - length)) - 1), width), low
    )
    return keys[low:high]


def minimal_pairs(
    vrps: Iterable[Vrp], announced: Iterable[OriginPair]
) -> set[OriginPair]:
    """The announced pairs ``(p, asn)`` that some input VRP matches.

    RFC 6811 "valid": these are exactly the routes a minimal ROA set
    authorizes, one maxLength-free PDU each.  An announcement whose
    origin holds no VRP cannot match (RFC 6811 matching needs equal
    origins) and is skipped before any index lookup.
    """
    vrp_list = list(vrps)
    holders = {vrp.asn for vrp in vrp_list}
    index = VrpIndex(vrp_list)
    valid = ValidationState.VALID
    return {
        (prefix, origin)
        for prefix, origin in announced
        if origin in holders and index.validate(prefix, origin) is valid
    }


def to_minimal_vrps(
    vrps: Iterable[Vrp], announced: Iterable[OriginPair]
) -> list[Vrp]:
    """Convert a VRP set to the equivalent minimal, maxLength-free set.

    The output contains one ``(p, len(p), asn)`` VRP for every pair of
    :func:`minimal_pairs`.  Routes that were valid and announced stay
    valid; authorized-but-unannounced slack — the forged-origin
    subprefix hijack surface — disappears.
    """
    return sort_vrps(
        Vrp(prefix, prefix.length, origin)
        for prefix, origin in minimal_pairs(vrps, announced)
    )


def minimal_roa_for(
    roa: Roa, announced: Iterable[OriginPair] | OriginIndex
) -> Roa | None:
    """Shrink one ROA to exactly its announced-and-authorized prefixes.

    Returns the minimal ROA (same AS, no maxLength), or None when the
    AS announces nothing the ROA authorizes — in which case the ROA
    protects nothing and the paper's recommendation is to review it.
    """
    # The caller holds a Roa, so rpki.roa (and the DER codec under it)
    # is loaded already; the VRP-level functions above never need it.
    from ..rpki.roa import Roa, RoaPrefix

    index = (
        announced
        if isinstance(announced, dict)
        else build_origin_index(announced)
    )
    kept: set[Prefix] = set()
    for entry in roa.prefixes:
        family = entry.prefix.family
        max_length = entry.effective_max_length
        for value, length in announced_under(index, roa.asn, entry.prefix):
            if length <= max_length:
                kept.add(Prefix(family, value, length))
    if not kept:
        return None
    return Roa(roa.asn, [RoaPrefix(prefix) for prefix in sorted(kept)])


def additional_prefix_count(
    vrps: Iterable[Vrp], announced: Iterable[OriginPair]
) -> int:
    """§6's "13K additional prefixes" measurement.

    Counts announced (prefix, origin) pairs that are valid under the
    VRPs but whose exact (prefix, origin) is not already an entry —
    i.e. the prefixes that would have to be *added* to ROAs if
    maxLength were eliminated and only minimal ROAs were used.
    """
    vrp_list = list(vrps)
    existing = {(vrp.prefix, vrp.asn) for vrp in vrp_list}
    return len(minimal_pairs(vrp_list, announced) - existing)
