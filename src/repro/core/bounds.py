"""Maximally-permissive ROAs: the compression lower bound (paper §6).

To bound how much PDU compression maxLength could *ever* deliver, the
paper imagines every announced (prefix, origin) pair covered by a
maximally-permissive ROA — maxLength /32 for IPv4, /128 for IPv6.  Such
ROAs are wildly vulnerable to forged-origin subprefix hijacks; they are
useful only as an upper bound on compression (equivalently, a lower
bound on the number of PDUs routers must process).

Under maximal permissiveness, an announced pair (q, AS) needs no PDU of
its own whenever the same AS also announces a covering prefix p — the
(p, /32, AS) PDU already authorizes q.  The bound therefore counts, per
origin AS, the announced prefixes with no announced covering prefix at
the same AS.  The paper finds 729,371 of 776,945 pairs survive: maximum
compression just 6.2%, "because most ASes do not send BGP announcements
for subprefixes of their prefixes".
"""

from __future__ import annotations

from typing import Iterable

from ..netbase.prefix import Prefix
from ..rpki.vrp import Vrp
from .minimal import OriginPair

__all__ = [
    "maximally_permissive_vrps",
    "lower_bound_pdu_count",
]


def maximally_permissive_vrps(announced: Iterable[OriginPair]) -> list[Vrp]:
    """The smallest maximally-permissive VRP set covering ``announced``.

    One VRP per announced (prefix, origin) pair whose origin announces
    no covering prefix, with maxLength pinned to the family width.
    """
    # Group by origin AS; within one AS, sorting prefixes puts ancestors
    # immediately before descendants, so a single scan per family finds
    # covered entries.
    by_origin: dict[int, list[Prefix]] = {}
    for prefix, origin in announced:
        by_origin.setdefault(origin, []).append(prefix)

    output: list[Vrp] = []
    for origin, prefixes in by_origin.items():
        for family in (4, 6):
            family_prefixes = sorted(
                {p for p in prefixes if p.family == family}
            )
            # Sorted order puts ancestors before descendants, and any
            # kept prefix covering the current one must be the most
            # recently kept (kept ranges are disjoint or nested, and the
            # scan never leaves a range before exhausting it), so one
            # comparison per prefix suffices.
            last_kept: Prefix | None = None
            for prefix in family_prefixes:
                if last_kept is not None and last_kept.covers(prefix):
                    continue
                output.append(Vrp(prefix, prefix.max_family_length, origin))
                last_kept = prefix
    return sorted(output)


def lower_bound_pdu_count(announced: Iterable[OriginPair]) -> int:
    """Table 1's last row: PDUs under maximally-permissive ROAs."""
    return len(maximally_permissive_vrps(announced))
