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

from operator import itemgetter
from typing import Iterable, Iterator

from ..netbase.prefix import Prefix
from ..rpki.vrp import Vrp, sort_vrps
from .compress import _WIDTH, Group, group_pairs
from .minimal import OriginPair

__all__ = [
    "maximally_permissive_vrps",
    "lower_bound_pdu_count",
    "uncovered_keys",
]

_BITS_THEN_LENGTH = itemgetter(1, 0)  # a group key is (length, bits)


def uncovered_keys(
    groups: dict[tuple[int, int], Group],
) -> Iterator[tuple[int, int, int, int]]:
    """The keys no other key of their group covers, as ``(origin,
    family, length, network bits)``.

    ``groups`` is :func:`~repro.core.compress.group_pairs`'s grouping;
    the scan only reads it.  Sorted by ``(network bits, length)``,
    ancestors come before descendants, and any kept prefix covering the
    current one must be the most recently kept (kept ranges are
    disjoint or nested, and the scan never leaves a range before
    exhausting it), so one shift and one comparison per key suffice.
    """
    for (origin, family), group in groups.items():
        if len(group) == 1:
            (length, value), = group
            yield origin, family, length, value
            continue
        width = _WIDTH[family]
        kept_shift, kept_top = 0, -1  # no value shifts to -1
        for length, value in sorted(group, key=_BITS_THEN_LENGTH):
            if value >> kept_shift == kept_top:
                continue
            yield origin, family, length, value
            kept_shift = width - length
            kept_top = value >> kept_shift


def maximally_permissive_vrps(announced: Iterable[OriginPair]) -> list[Vrp]:
    """The smallest maximally-permissive VRP set covering ``announced``.

    One VRP per announced (prefix, origin) pair whose origin announces
    no covering prefix, with maxLength pinned to the family width.
    """
    return sort_vrps(
        Vrp(Prefix(family, value, length), _WIDTH[family], origin)
        for origin, family, length, value
        in uncovered_keys(group_pairs(announced))
    )


def lower_bound_pdu_count(announced: Iterable[OriginPair]) -> int:
    """Table 1's last row: PDUs under maximally-permissive ROAs."""
    return sum(1 for _ in uncovered_keys(group_pairs(announced)))
