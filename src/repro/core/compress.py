"""``compress_roas`` — lossless PDU compression (paper §7, Algorithm 1).

The paper's contribution: a drop-in post-processor for ``scan_roas``
output that *reintroduces* the maxLength attribute without reintroducing
its vulnerability.  Given a list of (prefix, maxLength, origin AS)
tuples, it merges sibling authorizations into their parent whenever the
merge authorizes **exactly** the same set of routes — never more.

The algorithm (§7.1): build one binary prefix trie per (origin AS,
address family), where each valued node carries its tuple's maxLength
(for tuples without maxLength, the prefix length itself).  Then run a
DFS; as it backtracks, each valued node with two valued direct children
absorbs them when their maxLengths allow::

    procedure compress(node):
        if node has both direct children:
            minChildVal = min(lChild.value, rChild.value)
            if minChildVal > node.value:
                node.value = minChildVal          # cover the children
            if lChild.value <= node.value: delete lChild
            if rChild.value <= node.value: delete rChild

:func:`compress_group` is that procedure without the trie.  A group is
a dict from ``(length, network bits)`` to the node's maxLength, which
is all the trie was used for: "as the DFS backtracks" means *children
before parents*, i.e. keys in descending length, and the two direct
children of the node at ``(length, value)`` that may merge are the
keys ``(length + 1, value)`` and ``(length + 1, value | next bit)`` —
two dict probes.  The loop body is the pseudocode line for line.  The
groups hold ints, not ``Vrp`` objects, so a caller that only counts
PDUs (:func:`repro.core.counts.pdu_counts`) never builds one.

Worked example (Figure 2 of the paper)::

    >>> from repro.netbase import Prefix
    >>> from repro.rpki import Vrp
    >>> tuples = [Vrp(Prefix.parse(p), l, 31283) for p, l in [
    ...     ("87.254.32.0/19", 19), ("87.254.32.0/20", 20),
    ...     ("87.254.48.0/20", 20), ("87.254.32.0/21", 21)]]
    >>> [str(v) for v in compress_vrps(tuples)]
    ['87.254.32.0/19-20 => AS31283', '87.254.32.0/21 => AS31283']

Why this is safe (and plain maxLength is not): the parent absorbs its
children only when *both* halves at every absorbed length were already
authorized, so the set of (prefix, origin) pairs that validate is
unchanged — compression preserves minimality (§7: "This 'compressed'
ROA is still minimal").

The optimal lossless representation that ``tests/test_paper_claims.py``
measures Algorithm 1 against is a test oracle
(``tests/optimal_compression.py``), not part of the product.
"""

from __future__ import annotations

from typing import Iterable

from ..netbase.prefix import AF_INET, AF_INET6, Prefix
from ..rpki.vrp import Vrp, sort_vrps

__all__ = [
    "compress_group",
    "compress_vrps",
    "CompressionStats",
    "Group",
    "group_pairs",
]


#: One (origin AS, family) group: ``(prefix length, network bits)`` to
#: the maxLength authorized at that prefix.
Group = dict[tuple[int, int], int]

_WIDTH = {AF_INET: 32, AF_INET6: 128}


def compress_group(group: Group, width: int) -> None:
    """Run Algorithm 1 in place on one (origin AS, family) group.

    ``group`` maps ``(prefix length, network bits)`` to the maxLength
    at that prefix; ``width`` is the family's address width.  Children
    here are the *direct children* of §7.1, and a merge happens only
    when both sit exactly one bit below the parent: a tuple strictly
    deeper covers only part of its half, so absorbing it would
    authorize prefixes the input did not (the forged-origin subprefix
    surface the whole exercise is meant to avoid).  A group of fewer
    than three tuples has nothing to merge.
    """
    if len(group) < 3:
        return
    for key in sorted(group, reverse=True):  # children before parents
        length, value = key
        if length == width:
            continue  # a host prefix has no children
        left = (length + 1, value)
        right = (length + 1, value | 1 << (width - length - 1))
        if left not in group or right not in group:
            continue
        node, l_child, r_child = group[key], group[left], group[right]
        min_child = min(l_child, r_child)
        if min_child > node:
            node = group[key] = min_child
        if l_child <= node:
            del group[left]
        if r_child <= node:
            del group[right]


def group_pairs(
    pairs: Iterable[tuple[Prefix, int]],
) -> dict[tuple[int, int], Group]:
    """Group exact-length (prefix, origin AS) pairs per (AS, family).

    Each pair becomes the key ``(length, network bits)`` with its own
    length as maxLength — the maxLength-free VRP of a minimal ROA — so
    a repeated pair is one key.  Algorithm 1 (:func:`compress_group`)
    and the maximally-permissive bound (:mod:`repro.core.bounds`) both
    run on this grouping; neither needs a ``Vrp``.
    """
    groups: dict[tuple[int, int], Group] = {}
    for prefix, origin in pairs:
        # Prefix's slots, read directly as Vrp's comparisons do: three
        # property calls would cost more than the rest of the loop.
        length = prefix._length
        group = groups.get((origin, prefix._family))
        if group is None:
            group = groups[(origin, prefix._family)] = {}
        group[(length, prefix._value)] = length
    return groups


def compress_vrps(vrps: Iterable[Vrp]) -> list[Vrp]:
    """The ``compress_roas`` entry point: tuples in, fewer tuples out.

    The output authorizes exactly the same (prefix, origin) pairs as the
    input — see ``tests/test_compress.py`` for the property-based proof
    harness — and is sorted deterministically.

    Tuples are grouped per (origin AS, family); duplicate prefixes for
    the same AS keep the larger maxLength (the union of what the
    duplicates authorize).  A survivor whose maxLength Algorithm 1 did
    not raise is its input object.
    """
    groups: dict[tuple[int, int], dict[tuple[int, int], Vrp]] = {}
    for vrp in vrps:
        prefix = vrp.prefix
        group = groups.get((vrp.asn, prefix.family))
        if group is None:
            group = groups[(vrp.asn, prefix.family)] = {}
        key = (prefix.length, prefix.value)
        held = group.get(key)
        if held is None or held.max_length < vrp.max_length:
            group[key] = vrp

    output: list[Vrp] = []
    for (_asn, family), group in groups.items():
        if len(group) < 3:  # nothing to merge: skip the int view
            output.extend(group.values())
            continue
        max_lengths = {key: vrp.max_length for key, vrp in group.items()}
        compress_group(max_lengths, _WIDTH[family])
        for key, max_length in max_lengths.items():
            vrp = group[key]
            if vrp.max_length != max_length:
                vrp = Vrp(vrp.prefix, max_length, vrp.asn)
            output.append(vrp)
    return sort_vrps(output)


class CompressionStats:
    """Before/after sizes for reporting (§7.2 quotes both and the %)."""

    def __init__(self, before: int, after: int) -> None:
        self.before = before
        self.after = after

    @property
    def saved(self) -> int:
        return self.before - self.after

    @property
    def ratio(self) -> float:
        """Fraction of tuples eliminated, e.g. 0.159 for Table 1 row 2."""
        if self.before == 0:
            return 0.0
        return self.saved / self.before

    def __str__(self) -> str:
        return (
            f"{self.before} -> {self.after} tuples "
            f"({100 * self.ratio:.2f}% compression)"
        )
