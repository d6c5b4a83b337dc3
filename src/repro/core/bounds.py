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

from typing import Iterable, Iterator

from ..netbase.prefix import Prefix
from ..rpki.vrp import Vrp, sort_vrps
from .minimal import OriginPair

__all__ = [
    "maximally_permissive_vrps",
    "lower_bound_pdu_count",
]


def _uncovered_pairs(announced: Iterable[OriginPair]) -> Iterator[OriginPair]:
    """The announced pairs whose origin announces no covering prefix."""
    groups: dict[tuple[int, int], list[Prefix]] = {}
    for prefix, origin in announced:
        groups.setdefault((origin, prefix.family), []).append(prefix)
    for (origin, _family), prefixes in groups.items():
        # Sorted order puts ancestors before descendants, and any kept
        # prefix covering the current one must be the most recently
        # kept (kept ranges are disjoint or nested, and the scan never
        # leaves a range before exhausting it), so one comparison per
        # prefix suffices.  A repeated pair is covered by its first copy.
        last_kept: Prefix | None = None
        for prefix in sorted(prefixes, key=_value_length):
            if last_kept is not None and last_kept.covers(prefix):
                continue
            yield prefix, origin
            last_kept = prefix


def _value_length(prefix: Prefix) -> tuple[int, int]:
    return prefix.value, prefix.length


def maximally_permissive_vrps(announced: Iterable[OriginPair]) -> list[Vrp]:
    """The smallest maximally-permissive VRP set covering ``announced``.

    One VRP per announced (prefix, origin) pair whose origin announces
    no covering prefix, with maxLength pinned to the family width.
    """
    return sort_vrps(
        Vrp(prefix, prefix.max_family_length, origin)
        for prefix, origin in _uncovered_pairs(announced)
    )


def lower_bound_pdu_count(announced: Iterable[OriginPair]) -> int:
    """Table 1's last row: PDUs under maximally-permissive ROAs."""
    return sum(1 for _ in _uncovered_pairs(announced))
