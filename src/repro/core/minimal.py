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
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from ..netbase.prefix import Prefix
from ..netbase.radix import RadixTree
from ..rpki.vrp import Vrp

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
    """
    index: dict[int, RadixTree[set[int]]] = {}
    for prefix, origin in announced:
        tree = index.get(prefix.family)
        if tree is None:
            tree = RadixTree[set[int]](prefix.family)
            index[prefix.family] = tree
        origins = tree.get(prefix)
        if origins is None:
            origins = set()
            tree.insert(prefix, origins)
        origins.add(origin)
    return index


def to_minimal_vrps(
    vrps: Iterable[Vrp], announced: Iterable[OriginPair]
) -> list[Vrp]:
    """Convert a VRP set to the equivalent minimal, maxLength-free set.

    The output contains one ``(p, len(p), asn)`` VRP for every announced
    pair ``(p, asn)`` that some input VRP matches (RFC 6811 "valid").
    Routes that were valid and announced stay valid; authorized-but-
    unannounced slack — the forged-origin subprefix hijack surface —
    disappears.
    """
    vrp_list = list(vrps)
    per_family: dict[int, RadixTree[list[Vrp]]] = {}
    for vrp in vrp_list:
        tree = per_family.get(vrp.prefix.family)
        if tree is None:
            tree = RadixTree[list[Vrp]](vrp.prefix.family)
            per_family[vrp.prefix.family] = tree
        bucket = tree.get(vrp.prefix)
        if bucket is None:
            bucket = []
            tree.insert(vrp.prefix, bucket)
        bucket.append(vrp)

    minimal: set[Vrp] = set()
    for prefix, origin in announced:
        tree = per_family.get(prefix.family)
        if tree is None:
            continue
        for _covering_prefix, bucket in tree.covering(prefix):
            if any(vrp.matches(prefix, origin) for vrp in bucket):
                minimal.add(Vrp(prefix, prefix.length, origin))
                break
    return sorted(minimal)


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
