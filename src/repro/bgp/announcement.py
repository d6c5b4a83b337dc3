"""BGP route announcements.

An announcement binds an IP prefix to an AS path; the *origin* (the
rightmost AS) is what ROAs authorize and what hijackers forge.  The
notation matches the paper's running example::

    "168.122.0.0/16: AS 3356, AS 111"

is ``Announcement(Prefix.parse("168.122.0.0/16"), (3356, 111))`` —
AS 111 originated the route, AS 3356 prepended itself while
propagating it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from ..netbase.asnum import validate_asn
from ..netbase.errors import ReproError
from ..netbase.prefix import Prefix

__all__ = ["Announcement", "AnnouncementError"]


class AnnouncementError(ReproError):
    """Malformed announcement (empty path, bad ASN, AS loop)."""


@dataclass(frozen=True)
class Announcement:
    """One BGP route: prefix plus AS path (leftmost = most recent hop).

    Attributes:
        prefix: the announced prefix (NLRI).
        as_path: AS numbers, newest first; the last element originated
            the route.
    """

    prefix: Prefix
    as_path: tuple[int, ...]

    def __init__(self, prefix: Prefix, as_path: Iterable[int]) -> None:
        path = tuple(as_path)
        if not path:
            raise AnnouncementError("AS path cannot be empty")
        for asn in path:
            validate_asn(asn)
        object.__setattr__(self, "prefix", prefix)
        object.__setattr__(self, "as_path", path)

    @property
    def origin(self) -> int:
        """The originating AS (rightmost on the path)."""
        return self.as_path[-1]

    @property
    def path_length(self) -> int:
        return len(self.as_path)

    def has_loop(self) -> bool:
        """True if any AS appears twice (loops are discarded on receipt).

        Prepending (the same AS repeated *consecutively* for traffic
        engineering) is not a loop.
        """
        seen: set[int] = set()
        previous: int | None = None
        for asn in self.as_path:
            if asn != previous and asn in seen:
                return True
            seen.add(asn)
            previous = asn
        return False

    def prepended_by(self, asn: int) -> "Announcement":
        """The announcement a neighbor propagates onward."""
        validate_asn(asn)
        return Announcement(self.prefix, (asn,) + self.as_path)

    def origin_pair(self) -> tuple[Prefix, int]:
        """(prefix, origin) — the unit every RPKI measurement uses."""
        return (self.prefix, self.origin)

    def __str__(self) -> str:
        path_text = ", ".join(f"AS {asn}" for asn in self.as_path)
        return f"“{self.prefix}: {path_text}”"
