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
from ..netbase.prefixtable import PrefixTable
from ..rpki.vrp import Vrp, sort_vrps
from .announcement import Announcement

__all__ = ["ValidationState", "VrpIndex", "validate_announcement"]


_family_of = attrgetter("prefix.family")
_prefix_of = attrgetter("prefix")


class ValidationState(enum.Enum):
    """RFC 6811 §2 route validation states."""

    VALID = "valid"
    INVALID = "invalid"
    NOTFOUND = "notfound"


class VrpIndex:
    """VRPs indexed for covering lookups (one table per family).

    Routers hold exactly this structure: RFC 6811 calls for finding all
    covering VRPs of an announced prefix, which a
    :class:`~repro.netbase.prefixtable.PrefixTable` answers with one
    probe per prefix length it holds, up to the query's length.

    Each stored prefix maps to its *bucket*: the distinct VRPs at that
    prefix as a tuple in :meth:`Vrp.sort_key` order.  Buckets are never
    changed once stored and a family's table is never changed once the
    index that holds it is returned — :meth:`updated` (and
    :meth:`add` / :meth:`remove`, which are built on it) copies each
    family its delta names and edits the copy — so the order of
    ``covering`` depends on the VRP set alone, not on how the index
    came to hold it, and an index handed to a reader stays valid
    whatever happens to the one it was derived from.
    """

    def __init__(self, vrps: Iterable[Vrp] = ()) -> None:
        table = sort_vrps(set(vrps))
        self._count = len(table)
        self._families: dict[int, PrefixTable[tuple[Vrp, ...]]] = {}
        # Sorted, so each family's rows are one run, each prefix's VRPs
        # one run within it, and each bucket comes out in sort_key order.
        for family, rows in groupby(table, key=_family_of):
            buckets = self._families[family] = PrefixTable(family)
            for prefix, bucket in groupby(rows, key=_prefix_of):
                buckets[prefix] = tuple(bucket)

    def updated(
        self, announced: Iterable[Vrp], withdrawn: Iterable[Vrp]
    ) -> "VrpIndex":
        """A new index with ``withdrawn`` dropped and ``announced`` added.

        This index is left untouched.  The result shares every family
        the delta does not name and copies each one it does, so the
        cost is one C-level dict copy per such family plus work
        proportional to the delta.  Withdrawing an absent VRP or
        announcing a present one is a no-op; a VRP in both ends up
        present.
        """
        changes: dict[Prefix, tuple[set[Vrp], set[Vrp]]] = {}
        for vrp in withdrawn:
            changes.setdefault(vrp.prefix, (set(), set()))[0].add(vrp)
        for vrp in announced:
            changes.setdefault(vrp.prefix, (set(), set()))[1].add(vrp)
        result = VrpIndex.__new__(VrpIndex)
        result._families = families = dict(self._families)
        result._count = self._count
        # Each family the delta names, copied from this index before
        # the first edit.
        copied: dict[int, PrefixTable[tuple[Vrp, ...]]] = {}
        for prefix, (drop, add) in changes.items():
            family = prefix._family
            buckets = copied.get(family)
            if buckets is None:
                held = families.get(family)
                buckets = copied[family] = (
                    held.copy() if held is not None else PrefixTable(family)
                )
            old = set(buckets.get(prefix, ()))
            new = (old - drop) | add
            if new == old:
                continue
            result._count += len(new) - len(old)
            if new:
                buckets[prefix] = tuple(sort_vrps(new))
            else:
                buckets.pop(prefix)
        for family, buckets in copied.items():
            if buckets:
                families[family] = buckets
            else:
                families.pop(family, None)
        return result

    def add(self, vrp: Vrp) -> None:
        self._adopt(self.updated((vrp,), ()))

    def remove(self, vrp: Vrp) -> bool:
        before = self._count
        self._adopt(self.updated((), (vrp,)))
        return self._count < before

    def _adopt(self, other: "VrpIndex") -> None:
        self._families = other._families
        self._count = other._count

    def __len__(self) -> int:
        return self._count

    def covering(self, prefix: Prefix) -> list[Vrp]:
        """All VRPs whose prefix covers ``prefix``, shortest prefix
        first and each bucket in :meth:`Vrp.sort_key` order."""
        buckets = self._families.get(prefix._family)
        if buckets is None:
            return []
        return [vrp for bucket in buckets.covering(prefix) for vrp in bucket]

    def validate(self, prefix: Prefix, origin: int) -> ValidationState:
        """RFC 6811 validation of a (prefix, origin) pair."""
        table = self._families.get(prefix._family)
        if table is None:
            return ValidationState.NOTFOUND
        buckets = table.covering(prefix)
        for bucket in buckets:
            for vrp in bucket:
                if vrp.matches(prefix, origin):
                    return ValidationState.VALID
        return ValidationState.INVALID if buckets else ValidationState.NOTFOUND


def validate_announcement(
    announcement: Announcement, index: VrpIndex
) -> ValidationState:
    """Validate a full announcement (uses its origin AS)."""
    return index.validate(announcement.prefix, announcement.origin)
