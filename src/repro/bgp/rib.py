"""Routing information bases: per-router route storage with LPM.

:class:`Rib` stores the selected route per prefix and answers
longest-prefix-match forwarding queries — the mechanism that makes
subprefix hijacks devastating (§2: "routers perform a longest-prefix
match when deciding where to forward IP packets").

:class:`AdjRibIn` keeps every route heard per (prefix, neighbor), the
way a real BGP speaker does before selection.
"""

from __future__ import annotations

from typing import Iterator, Optional

from ..netbase.prefix import AF_INET, AF_INET6, Prefix
from ..netbase.radix import RadixTree
from .announcement import Announcement

__all__ = ["Rib", "AdjRibIn"]


class Rib:
    """A Loc-RIB: at most one selected route per prefix."""

    def __init__(self) -> None:
        self._trees = {
            AF_INET: RadixTree[Announcement](AF_INET),
            AF_INET6: RadixTree[Announcement](AF_INET6),
        }
        self._count = 0

    def install(self, announcement: Announcement) -> None:
        """Select a route (replacing any previous one for the prefix)."""
        tree = self._trees[announcement.prefix.family]
        if tree.get(announcement.prefix) is None:
            self._count += 1
        tree.insert(announcement.prefix, announcement)

    def withdraw(self, prefix: Prefix) -> bool:
        if self._trees[prefix.family].remove(prefix):
            self._count -= 1
            return True
        return False

    def route_for_prefix(self, prefix: Prefix) -> Optional[Announcement]:
        """The exact route for ``prefix``, if selected."""
        return self._trees[prefix.family].get(prefix)

    def forward(self, address: Prefix) -> Optional[Announcement]:
        """Longest-prefix-match: the route packets to ``address`` take.

        ``address`` is a host prefix (/32 or /128) — or any prefix, in
        which case the most specific covering route is returned.
        """
        match = self._trees[address.family].longest_match(address)
        return match[1] if match is not None else None

    def routes(self) -> Iterator[Announcement]:
        for family in (AF_INET, AF_INET6):
            for _prefix, announcement in self._trees[family].items():
                yield announcement

    def origin_pairs(self) -> Iterator[tuple[Prefix, int]]:
        """(prefix, origin) pairs — the measurement view of this RIB."""
        for announcement in self.routes():
            yield announcement.origin_pair()

    def __len__(self) -> int:
        return self._count

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
