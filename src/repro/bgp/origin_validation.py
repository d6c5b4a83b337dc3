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
from typing import Iterable

from ..netbase.prefix import Prefix
from ..netbase.radix import RadixTree
from ..rpki.vrp import Vrp
from .announcement import Announcement

__all__ = ["ValidationState", "VrpIndex", "validate_announcement"]


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
    """

    def __init__(self, vrps: Iterable[Vrp] = ()) -> None:
        self._trees: dict[int, RadixTree[list[Vrp]]] = {}
        self._count = 0
        for vrp in vrps:
            self.add(vrp)

    def add(self, vrp: Vrp) -> None:
        tree = self._trees.get(vrp.prefix.family)
        if tree is None:
            tree = RadixTree[list[Vrp]](vrp.prefix.family)
            self._trees[vrp.prefix.family] = tree
        bucket = tree.setdefault(vrp.prefix, [])
        if vrp not in bucket:
            bucket.append(vrp)
            self._count += 1

    def remove(self, vrp: Vrp) -> bool:
        tree = self._trees.get(vrp.prefix.family)
        if tree is None:
            return False
        bucket = tree.get(vrp.prefix)
        if not bucket or vrp not in bucket:
            return False
        bucket.remove(vrp)
        self._count -= 1
        if not bucket:
            tree.remove(vrp.prefix)
        return True

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
