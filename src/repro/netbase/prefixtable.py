"""One address family's prefixes in a hash table, probed by length.

:class:`PrefixTable` is the one prefix index the product's lookups ride
on: RFC 6811's covering query in
:class:`~repro.bgp.origin_validation.VrpIndex` and the RIB's exact and
longest-prefix-match lookups in :class:`~repro.bgp.rib.Rib`.

A prefix covers ``q`` exactly when it is ``q`` cut to its own length.
So the table keys each prefix by its top ``length`` bits under a marker
bit at ``1 << length`` (one int per (bits, length), so no two prefixes
of a family share a key) and keeps the lengths it holds in ascending
order, each beside the shift and marker that turn a query into its key
at that length.  A covering query is then one dict probe per held
length up to ``q``'s length, shortest first; a longest match is the
same probes from the other end.
"""

from __future__ import annotations

from typing import Generic, Iterator, Optional, TypeVar

from .prefix import AF_INET, AF_INET6, Prefix

__all__ = ["PrefixTable"]

V = TypeVar("V")

_WIDTH = {AF_INET: 32, AF_INET6: 128}


class PrefixTable(Generic[V]):
    """A map from one family's prefixes to values, probed by length.

    ``probes`` holds ``(length, shift, marker)`` for each length with at
    least one prefix, in ascending length order; ``counts`` is the
    number of prefixes held at each length, so a removal knows when a
    length goes.
    """

    __slots__ = ("_width", "_entries", "_counts", "_probes")

    def __init__(self, family: int) -> None:
        self._width = _WIDTH[family]
        self._entries: dict[int, V] = {}
        self._counts: dict[int, int] = {}
        self._probes: tuple[tuple[int, int, int], ...] = ()

    def _key(self, prefix: Prefix) -> int:
        length = prefix._length
        return (prefix._value >> (self._width - length)) | (1 << length)

    def _reprobe(self) -> None:
        width = self._width
        self._probes = tuple(
            (length, width - length, 1 << length)
            for length in sorted(self._counts)
        )

    def copy(self) -> "PrefixTable[V]":
        """A table with the same entries; editing either leaves the
        other alone (one C-level copy of each dict)."""
        table = PrefixTable.__new__(PrefixTable)
        table._width = self._width
        table._entries = dict(self._entries)
        table._counts = dict(self._counts)
        table._probes = self._probes
        return table

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, prefix: Prefix, default: Optional[V] = None) -> Optional[V]:
        """The value stored exactly at ``prefix``, or ``default``."""
        return self._entries.get(self._key(prefix), default)

    def __setitem__(self, prefix: Prefix, value: V) -> None:
        key = self._key(prefix)
        if key not in self._entries:
            length = prefix._length
            held = self._counts.get(length, 0)
            self._counts[length] = held + 1
            if not held:
                self._reprobe()
        self._entries[key] = value

    def pop(self, prefix: Prefix, default: Optional[V] = None) -> Optional[V]:
        """Remove ``prefix`` and return its value, or ``default`` when it
        is not held."""
        key = self._key(prefix)
        if key not in self._entries:
            return default
        length = prefix._length
        self._counts[length] -= 1
        if not self._counts[length]:
            del self._counts[length]
            self._reprobe()
        return self._entries.pop(key)

    def values(self) -> Iterator[V]:
        return iter(self._entries.values())

    def covering(self, prefix: Prefix) -> list[V]:
        """The values of every held prefix covering ``prefix`` (itself
        included), shortest first."""
        entries = self._entries
        value, length = prefix._value, prefix._length
        found = []
        for held, shift, marker in self._probes:
            if held > length:
                break
            hit = entries.get((value >> shift) | marker)
            if hit is not None:
                found.append(hit)
        return found

    def longest(self, prefix: Prefix) -> Optional[V]:
        """The value of the most specific held prefix covering
        ``prefix``, or None."""
        entries = self._entries
        value, length = prefix._value, prefix._length
        for held, shift, marker in reversed(self._probes):
            if held <= length:
                found = entries.get((value >> shift) | marker)
                if found is not None:
                    return found
        return None
