"""Minimal ROAs: conversion from the status quo to the safe configuration.

A ROA is *minimal* (RFC 6907 §3.2; paper §3) when it authorizes exactly
the prefixes its AS announces in BGP — no maxLength slack, no unused
entries.  Minimal ROAs are immune to the forged-origin subprefix hijack
because every authorized route actually exists and competes with any
forgery.

This module implements the conversions of §6–§7:

* :func:`to_minimal_vrps` — the dataset-level transformation behind
  Table 1 rows 3 and 5: every (prefix, origin) pair that is announced in
  BGP *and* valid under the current VRPs becomes one maxLength-free VRP.
* :func:`minimal_roa_for` — the per-ROA version of the same idea ("we
  just convert each original non-minimal ROA to a minimal ROA that has
  the set of prefixes announced in BGP"), preserving ROA granularity so
  no new ROAs or signatures are needed.
* :func:`additional_prefix_count` — the "13K additional prefixes"
  measurement of §6.

Two indexes do the work, both built in one pass from sorted keys:
:func:`build_origin_index` maps each announced prefix to its origin
ASes in a radix tree (what the vulnerability and linting code
queries), and :func:`to_minimal_vrps` validates each announcement whose
origin holds a VRP against a
:class:`~repro.bgp.origin_validation.VrpIndex`, the structure routers
hold.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from ..bgp.origin_validation import ValidationState, VrpIndex
from ..netbase.prefix import Prefix
from ..netbase.radix import RadixTree
from ..rpki.vrp import Vrp, sort_vrps

if TYPE_CHECKING:
    from ..rpki.roa import Roa

__all__ = [
    "OriginPair",
    "build_origin_index",
    "to_minimal_vrps",
    "minimal_roa_for",
    "additional_prefix_count",
]

#: One BGP routing-table entry reduced to what origin validation sees.
OriginPair = tuple[Prefix, int]


def build_origin_index(
    announced: Iterable[OriginPair],
) -> dict[int, RadixTree[set[int]]]:
    """Index announced (prefix, origin) pairs for covering queries.

    Returns one radix tree per address family mapping each announced
    prefix to the set of ASes that originate it (MOAS — multi-origin —
    prefixes do occur and must keep all origins).

    Every query against the index ends in ``asn in origins`` — RFC 6811
    *matching* needs the route's origin to equal the VRP's AS — so a
    caller that knows which ASes it will ask about (:func:`analyze_vrps
    <repro.core.vulnerability.analyze_vrps>`, :func:`lint_roas
    <repro.core.recommend.lint_roas>`) indexes only their
    announcements.  Origins are grouped per prefix first, then each
    family's tree is built from its sorted keys in one pass.
    """
    origins_at: dict[Prefix, set[int]] = {}
    for prefix, origin in announced:
        origins_at.setdefault(prefix, set()).add(origin)
    # Keys sort as ints; they are distinct, so a comparison never
    # reaches the prefix or the set.
    by_family: dict[int, list[tuple[int, int, Prefix, set[int]]]] = {}
    for prefix, origins in origins_at.items():
        by_family.setdefault(prefix.family, []).append(
            (prefix.value, prefix.length, prefix, origins)
        )
    return {
        family: RadixTree.from_sorted(
            family, (entry[2:] for entry in sorted(entries))
        )
        for family, entries in by_family.items()
    }


def to_minimal_vrps(
    vrps: Iterable[Vrp], announced: Iterable[OriginPair]
) -> list[Vrp]:
    """Convert a VRP set to the equivalent minimal, maxLength-free set.

    The output contains one ``(p, len(p), asn)`` VRP for every announced
    pair ``(p, asn)`` that some input VRP matches (RFC 6811 "valid").
    Routes that were valid and announced stay valid; authorized-but-
    unannounced slack — the forged-origin subprefix hijack surface —
    disappears.

    An announcement whose origin holds no VRP cannot match (RFC 6811
    matching needs equal origins) and is skipped before any tree walk.
    """
    vrp_list = list(vrps)
    holders = {vrp.asn for vrp in vrp_list}
    index = VrpIndex(vrp_list)
    return sort_vrps({
        Vrp(prefix, prefix.length, origin)
        for prefix, origin in announced
        if origin in holders
        and index.validate(prefix, origin) is ValidationState.VALID
    })


def minimal_roa_for(
    roa: Roa, announced: Iterable[OriginPair] | dict[int, RadixTree[set[int]]]
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
        tree = index.get(entry.prefix.family)
        if tree is None:
            continue
        for announced_prefix, origins in tree.covered(entry.prefix):
            if (
                roa.asn in origins
                and announced_prefix.length <= entry.effective_max_length
            ):
                kept.add(announced_prefix)
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
    minimal = to_minimal_vrps(vrp_list, announced)
    return sum(1 for vrp in minimal if (vrp.prefix, vrp.asn) not in existing)
