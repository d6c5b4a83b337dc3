"""Cache-side RTR session state: serials and incremental diffs.

The cache keeps a monotonically increasing serial number; each
:meth:`CacheState.update` installs a new VRP set and records the diff so
routers holding a recent serial can catch up incrementally (Serial
Query) instead of re-downloading everything (Reset Query).  History is
bounded; a router too far behind receives Cache Reset, exactly as
RFC 6810 §6 prescribes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from ..rpki.vrp import Vrp, sort_vrps

__all__ = ["VrpDiff", "CacheState"]


@dataclass(frozen=True)
class VrpDiff:
    """Announcements and withdrawals between two consecutive serials."""

    announced: tuple[Vrp, ...]
    withdrawn: tuple[Vrp, ...]

    @property
    def empty(self) -> bool:
        return not self.announced and not self.withdrawn


class CacheState:
    """The VRP database a cache serves, with bounded diff history."""

    def __init__(
        self,
        session_id: int = 1,
        *,
        initial: Iterable[Vrp] = (),
        history_limit: int = 16,
    ) -> None:
        self.session_id = session_id
        self.serial = 0
        self._vrps: set[Vrp] = set(initial)
        self._history: dict[int, VrpDiff] = {}
        self._history_limit = history_limit

    @property
    def vrps(self) -> frozenset[Vrp]:
        return frozenset(self._vrps)

    @property
    def history_limit(self) -> int:
        """How many diffs are retained before routers must reset."""
        return self._history_limit

    def __len__(self) -> int:
        return len(self._vrps)

    def update(self, new_vrps: Iterable[Vrp]) -> VrpDiff:
        """Install a new VRP set; returns the diff and bumps the serial.

        A no-op update (identical VRP set) is coalesced: the serial
        does not move and no empty diff enters the history, so routers
        are neither notified nor forced through a pointless exchange,
        and the bounded history is not flushed by idle refreshes.
        """
        new_set = set(new_vrps)
        if new_set == self._vrps:
            return VrpDiff(announced=(), withdrawn=())
        diff = VrpDiff(
            announced=tuple(sort_vrps(new_set - self._vrps)),
            withdrawn=tuple(sort_vrps(self._vrps - new_set)),
        )
        self.serial += 1
        self._vrps = new_set
        self._history[self.serial] = diff
        while len(self._history) > self._history_limit:
            del self._history[min(self._history)]
        return diff

    def diff_since(self, serial: int) -> Optional[list[VrpDiff]]:
        """Diffs needed to go from ``serial`` to the current state.

        Returns None when the history no longer reaches back that far
        (the router must reset).  ``serial == self.serial`` yields [].
        """
        if serial == self.serial:
            return []
        if serial > self.serial:
            return None
        needed = range(serial + 1, self.serial + 1)
        if any(step not in self._history for step in needed):
            return None
        return [self._history[step] for step in needed]

    def flatten_diffs(self, diffs: list[VrpDiff]) -> VrpDiff:
        """Collapse consecutive diffs into one net announce/withdraw set.

        An entry announced then withdrawn (or vice versa) across the
        span cancels out, so routers apply the minimum change.
        """
        announced: set[Vrp] = set()
        withdrawn: set[Vrp] = set()
        for diff in diffs:
            for vrp in diff.announced:
                if vrp in withdrawn:
                    withdrawn.discard(vrp)
                else:
                    announced.add(vrp)
            for vrp in diff.withdrawn:
                if vrp in announced:
                    announced.discard(vrp)
                else:
                    withdrawn.add(vrp)
        return VrpDiff(
            tuple(sort_vrps(announced)), tuple(sort_vrps(withdrawn)))
