"""Routing information bases: per-router route storage with LPM.

:class:`Rib` stores the selected route per prefix and answers
longest-prefix-match forwarding queries — the mechanism that makes
subprefix hijacks devastating (§2: "routers perform a longest-prefix
match when deciding where to forward IP packets").

:class:`AdjRibIn` keeps every route heard per (prefix, neighbor), the
way a real BGP speaker does before selection.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Iterator, Optional

from ..netbase.prefix import AF_INET, AF_INET6, Prefix
from ..netbase.prefixtable import PrefixTable
from .announcement import Announcement

__all__ = ["Rib", "AdjRibIn"]

_prefix_of = attrgetter("prefix")


class Rib:
    """A Loc-RIB: at most one selected route per prefix."""

    def __init__(self) -> None:
        self._tables: dict[int, PrefixTable[Announcement]] = {
            AF_INET: PrefixTable(AF_INET),
            AF_INET6: PrefixTable(AF_INET6),
        }

    def install(self, announcement: Announcement) -> None:
        """Select a route (replacing any previous one for the prefix)."""
        self._tables[announcement.prefix.family][announcement.prefix] = (
            announcement
        )

    def withdraw(self, prefix: Prefix) -> bool:
        return self._tables[prefix.family].pop(prefix) is not None

    def route_for_prefix(self, prefix: Prefix) -> Optional[Announcement]:
        """The exact route for ``prefix``, if selected."""
        return self._tables[prefix.family].get(prefix)

    def forward(self, address: Prefix) -> Optional[Announcement]:
        """Longest-prefix-match: the route packets to ``address`` take.

        ``address`` is a host prefix (/32 or /128) — or any prefix, in
        which case the most specific covering route is returned.
        """
        return self._tables[address.family].longest(address)

    def routes(self) -> Iterator[Announcement]:
        """Every selected route, in prefix order."""
        for family in (AF_INET, AF_INET6):
            yield from sorted(self._tables[family].values(), key=_prefix_of)

    def origin_pairs(self) -> Iterator[tuple[Prefix, int]]:
        """(prefix, origin) pairs — the measurement view of this RIB."""
        for announcement in self.routes():
            yield announcement.origin_pair()

    def __len__(self) -> int:
        return sum(len(table) for table in self._tables.values())

    def __contains__(self, prefix: Prefix) -> bool:
        return self.route_for_prefix(prefix) is not None


class AdjRibIn:
    """All routes heard, keyed by (prefix, advertising neighbor)."""

    def __init__(self) -> None:
        self._routes: dict[tuple[Prefix, int], Announcement] = {}

    def learn(self, neighbor: int, announcement: Announcement) -> None:
        self._routes[(announcement.prefix, neighbor)] = announcement

    def forget(self, neighbor: int, prefix: Prefix) -> bool:
        return self._routes.pop((prefix, neighbor), None) is not None

    def candidates(self, prefix: Prefix) -> list[tuple[int, Announcement]]:
        """(neighbor, route) pairs heard for ``prefix``."""
        return [
            (neighbor, announcement)
            for (candidate_prefix, neighbor), announcement
            in sorted(self._routes.items(),
                      key=lambda item: (item[0][0], item[0][1]))
            if candidate_prefix == prefix
        ]

    def prefixes(self) -> set[Prefix]:
        return {prefix for prefix, _neighbor in self._routes}

    def __len__(self) -> int:
        return len(self._routes)
