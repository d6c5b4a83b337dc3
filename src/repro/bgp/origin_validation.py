"""RFC 6811 BGP prefix origin validation.

Routers compare each announcement against their validated-prefix table
(the VRPs learned over RTR) and label it:

* **valid** — some VRP *matches*: its prefix covers the announcement,
  the announced length is within maxLength, and the origin AS agrees;
* **invalid** — at least one VRP *covers* the announcement but none
  matches (wrong origin, or length beyond maxLength);
* **notfound** — no VRP covers the announcement at all.

Dropping invalids is what gives the RPKI its security (§2): a subprefix
hijack against a ROA-covered prefix is invalid by construction...
unless a non-minimal maxLength makes the hijack *valid* (§4), which is
the paper's whole point.
"""

from __future__ import annotations

import enum
from itertools import groupby
from operator import attrgetter
from typing import Iterable

from ..netbase.prefix import Prefix
from ..netbase.radix import RadixTree
from ..rpki.vrp import Vrp, sort_vrps
from .announcement import Announcement

__all__ = ["ValidationState", "VrpIndex", "validate_announcement"]


_prefix_of = attrgetter("prefix")
_family_of = attrgetter("prefix.family")


class ValidationState(enum.Enum):
    """RFC 6811 §2 route validation states."""

    VALID = "valid"
    INVALID = "invalid"
    NOTFOUND = "notfound"


class VrpIndex:
    """VRPs indexed for covering lookups (one radix tree per family).

    Routers hold exactly this structure: RFC 6811 calls for finding all
    covering VRPs of an announced prefix, which is a radix-tree walk
    along the prefix bits.

    Each stored prefix maps to its *bucket*: the distinct VRPs at that
    prefix as a tuple in :meth:`Vrp.sort_key` order.  Buckets are never
    changed once stored and tree nodes are never changed once the
    constructor returns — :meth:`updated` (and :meth:`add` /
    :meth:`remove`, which are built on it) derive new trees by path
    copying — so the order of ``covering`` depends on the VRP set alone,
    not on how the index came to hold it, and an index handed to a
    reader stays valid whatever happens to the one it was derived from.
    """

    def __init__(self, vrps: Iterable[Vrp] = ()) -> None:
        table = sort_vrps(set(vrps))
        self._count = len(table)
        # Sorted VRPs are each family's prefixes in tree order, so every
        # tree is built in one pass.
        self._trees: dict[int, RadixTree[tuple[Vrp, ...]]] = {
            family: RadixTree.from_sorted(
                family,
                (
                    (prefix, tuple(bucket))
                    for prefix, bucket in groupby(rows, key=_prefix_of)
                ),
            )
            for family, rows in groupby(table, key=_family_of)
        }

    def updated(
        self, announced: Iterable[Vrp], withdrawn: Iterable[Vrp]
    ) -> "VrpIndex":
        """A new index with ``withdrawn`` dropped and ``announced`` added.

        This index is left untouched and shares every tree node off the
        changed paths with the result, so the cost is proportional to
        the delta.  Withdrawing an absent VRP or announcing a present
        one is a no-op; a VRP in both ends up present.
        """
        changes: dict[Prefix, tuple[set[Vrp], set[Vrp]]] = {}
        for vrp in withdrawn:
            changes.setdefault(vrp.prefix, (set(), set()))[0].add(vrp)
        for vrp in announced:
            changes.setdefault(vrp.prefix, (set(), set()))[1].add(vrp)
        result = VrpIndex()
        result._trees = dict(self._trees)
        result._count = self._count
        for prefix, (drop, add) in changes.items():
            tree = result._trees.get(prefix.family)
            if tree is None:
                tree = RadixTree(prefix.family)
            old = set(tree.get(prefix, ()))
            new = (old - drop) | add
            if new == old:
                continue
            result._count += len(new) - len(old)
            if new:
                tree = tree.inserted(prefix, tuple(sort_vrps(new)))
            else:
                tree = tree.removed(prefix)
            if len(tree):
                result._trees[prefix.family] = tree
            else:
                del result._trees[prefix.family]
        return result

    def add(self, vrp: Vrp) -> None:
        self._adopt(self.updated((vrp,), ()))

    def remove(self, vrp: Vrp) -> bool:
        before = self._count
        self._adopt(self.updated((), (vrp,)))
        return self._count < before

    def _adopt(self, other: "VrpIndex") -> None:
        self._trees = other._trees
        self._count = other._count

    def __len__(self) -> int:
        return self._count

    def covering(self, prefix: Prefix) -> Iterable[Vrp]:
        """All VRPs whose prefix covers ``prefix``."""
        tree = self._trees.get(prefix.family)
        if tree is None:
            return
        for _prefix, bucket in tree.covering(prefix):
            yield from bucket

    def validate(self, prefix: Prefix, origin: int) -> ValidationState:
        """RFC 6811 validation of a (prefix, origin) pair."""
        covered = False
        for vrp in self.covering(prefix):
            covered = True
            if vrp.matches(prefix, origin):
                return ValidationState.VALID
        return ValidationState.INVALID if covered else ValidationState.NOTFOUND


def validate_announcement(
    announcement: Announcement, index: VrpIndex
) -> ValidationState:
    """Validate a full announcement (uses its origin AS)."""
    return index.validate(announcement.prefix, announcement.origin)
