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

from ..netbase.prefix import AF_INET, AF_INET6, Prefix
from ..rpki.vrp import Vrp, sort_vrps
from .announcement import Announcement

__all__ = ["ValidationState", "VrpIndex", "validate_announcement"]


_family_of = attrgetter("prefix.family")
_WIDTH = {AF_INET: 32, AF_INET6: 128}


class ValidationState(enum.Enum):
    """RFC 6811 §2 route validation states."""

    VALID = "valid"
    INVALID = "invalid"
    NOTFOUND = "notfound"


class _Family:
    """One address family's buckets and the prefix lengths they hold.

    ``buckets`` maps :func:`_key` of a prefix to its bucket; ``counts``
    is the number of prefixes held at each length, and ``probes`` the
    held lengths in ascending order, each beside the shift and marker
    bit that make a query's key at that length.
    """

    __slots__ = ("buckets", "counts", "probes")

    def __init__(
        self,
        width: int,
        buckets: dict[int, tuple[Vrp, ...]],
        counts: dict[int, int],
    ) -> None:
        self.buckets = buckets
        self.counts = counts
        self.probes = tuple(
            (length, width - length, 1 << length) for length in sorted(counts)
        )


def _key(prefix: Prefix) -> int:
    """The prefix's top ``length`` bits under a marker bit at
    ``1 << length``: one int per (bits, length), so no two prefixes of a
    family share a key."""
    length = prefix._length
    return (prefix._value >> (_WIDTH[prefix._family] - length)) | (1 << length)


class VrpIndex:
    """VRPs indexed for covering lookups (one hash table per family).

    Routers hold exactly this structure: RFC 6811 calls for finding all
    covering VRPs of an announced prefix.  A prefix covers ``q`` when
    it is ``q`` cut to its own length, so each family keeps its VRPs in
    a dict keyed by prefix and length (:func:`_key`) and answers with
    one probe per length it holds, up to ``q``'s length.

    Each stored prefix maps to its *bucket*: the distinct VRPs at that
    prefix as a tuple in :meth:`Vrp.sort_key` order.  Buckets are never
    changed once stored and a family's dicts are never changed once the
    index that holds them is returned — :meth:`updated` (and
    :meth:`add` / :meth:`remove`, which are built on it) copies each
    family its delta names, one C-level ``dict`` copy, and edits the
    copy — so the order of ``covering`` depends on the VRP set alone,
    not on how the index came to hold it, and an index handed to a
    reader stays valid whatever happens to the one it was derived
    from.
    """

    def __init__(self, vrps: Iterable[Vrp] = ()) -> None:
        table = sort_vrps(set(vrps))
        self._count = len(table)
        self._families: dict[int, _Family] = {}
        # Sorted, so each family's rows are one run and each bucket
        # comes out in sort_key order (a bucket holds a few VRPs).
        for family, rows in groupby(table, key=_family_of):
            buckets: dict[int, tuple[Vrp, ...]] = {}
            counts: dict[int, int] = {}
            for vrp in rows:
                prefix = vrp.prefix
                key = _key(prefix)
                bucket = buckets.get(key)
                if bucket is None:
                    buckets[key] = (vrp,)
                    counts[prefix._length] = counts.get(prefix._length, 0) + 1
                else:
                    buckets[key] = bucket + (vrp,)
            self._families[family] = _Family(_WIDTH[family], buckets, counts)

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
        # The (buckets, counts) of each family the delta names, copied
        # from this index before the first edit.
        copied: dict[int, tuple[dict, dict]] = {}
        for prefix, (drop, add) in changes.items():
            family, key, length = prefix._family, _key(prefix), prefix._length
            if family not in copied:
                table = families.get(family)
                copied[family] = (
                    (dict(table.buckets), dict(table.counts))
                    if table else ({}, {})
                )
            buckets, counts = copied[family]
            old = set(buckets.get(key, ()))
            new = (old - drop) | add
            if new == old:
                continue
            result._count += len(new) - len(old)
            if new:
                buckets[key] = tuple(sort_vrps(new))
                if not old:
                    counts[length] = counts.get(length, 0) + 1
            else:
                del buckets[key]
                counts[length] -= 1
                if not counts[length]:
                    del counts[length]
        for family, (buckets, counts) in copied.items():
            if buckets:
                families[family] = _Family(_WIDTH[family], buckets, counts)
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

    def covering(self, prefix: Prefix) -> Iterable[Vrp]:
        """All VRPs whose prefix covers ``prefix``, shortest prefix
        first and each bucket in :meth:`Vrp.sort_key` order."""
        table = self._families.get(prefix._family)
        if table is None:
            return
        buckets = table.buckets
        value, length = prefix._value, prefix._length
        for held, shift, marker in table.probes:
            if held > length:
                return
            bucket = buckets.get((value >> shift) | marker)
            if bucket is not None:
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
