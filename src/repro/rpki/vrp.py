"""Validated ROA Payloads (VRPs).

A VRP is the unit of information a relying party extracts from a
cryptographically valid ROA and ships to routers over RPKI-to-Router:
one ``(IP prefix, maxLength, origin AS)`` triple — what the paper calls
a "PDU" or "tuple" throughout §6–§7.  Every measurement in the paper is
a function of a multiset of VRPs and a BGP table, so this type is the
lingua franca between :mod:`repro.rpki`, :mod:`repro.core`,
:mod:`repro.rtr`, and :mod:`repro.analysis`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from ..netbase.asnum import validate_asn
from ..netbase.errors import PrefixLengthError
from ..netbase.prefix import Prefix

__all__ = ["Vrp", "parse_vrp", "sort_vrps"]


@dataclass(frozen=True, order=True, slots=True)
class Vrp:
    """One validated (prefix, maxLength, origin AS) authorization.

    Attributes:
        prefix: the authorized IP prefix.
        max_length: longest subprefix length the origin may announce;
            always ``>= prefix.length`` and bounded by the family width.
        asn: the authorized origin AS number.
    """

    prefix: Prefix
    max_length: int
    asn: int

    def __post_init__(self) -> None:
        validate_asn(self.asn)
        if self.max_length < self.prefix.length:
            raise PrefixLengthError(
                f"maxLength {self.max_length} shorter than prefix {self.prefix}"
            )
        if self.max_length > self.prefix.max_family_length:
            raise PrefixLengthError(
                f"maxLength {self.max_length} exceeds IPv{self.prefix.family} width"
            )

    # ------------------------------------------------------------------
    # Semantics
    # ------------------------------------------------------------------

    @property
    def uses_max_length(self) -> bool:
        """True if the VRP authorizes more lengths than the bare prefix.

        §6 of the paper measures "prefixes in ROAs [that] have a
        maxLength longer than the prefix length" — exactly this flag.
        """
        return self.max_length > self.prefix.length

    def covers(self, prefix: Prefix) -> bool:
        """RFC 6811 "covering": ``prefix`` is inside this VRP's prefix.

        Covering ignores maxLength — a covered-but-too-long announcement
        is what makes a route *invalid* rather than *notfound*.
        """
        return self.prefix.covers(prefix)

    def matches(self, prefix: Prefix, origin_asn: int) -> bool:
        """RFC 6811 "matching": covered, within maxLength, same origin."""
        return (
            self.prefix.covers(prefix)
            and prefix.length <= self.max_length
            and origin_asn == self.asn
        )

    def authorized_prefixes(self) -> Iterable[Prefix]:
        """Every prefix this VRP authorizes (all lengths up to maxLength).

        The count doubles per extra length unit; callers sweeping
        maximally-permissive VRPs should use :meth:`authorized_count`.
        """
        for length in range(self.prefix.length, self.max_length + 1):
            yield from self.prefix.subprefixes(length)

    def authorized_count(self) -> int:
        """Number of distinct prefixes authorized (closed form)."""
        spread = self.max_length - self.prefix.length
        return (1 << (spread + 1)) - 1

    def key(self) -> tuple[Prefix, int, int]:
        return (self.prefix, self.max_length, self.asn)

    def sort_key(self) -> tuple[int, int, int, int, int]:
        """``(family, value, length, maxLength, asn)``: the dataclass
        ordering as a tuple of ints, so sorting a table compares tuples
        in C instead of calling ``__lt__`` on each VRP and prefix."""
        prefix = self.prefix
        return (prefix.family, prefix.value, prefix.length,
                self.max_length, self.asn)

    def __str__(self) -> str:
        if self.uses_max_length:
            return f"{self.prefix}-{self.max_length} => AS{self.asn}"
        return f"{self.prefix} => AS{self.asn}"


def parse_vrp(text: str) -> Vrp:
    """Parse the textual form produced by :meth:`Vrp.__str__`.

    Accepts ``"10.0.0.0/16-24 => AS65000"`` and ``"10.0.0.0/16 => AS65000"``.
    """
    left, _, right = text.partition("=>")
    right = right.strip()
    if right.upper().startswith("AS"):
        right = right[2:]
    asn = int(right)
    left = left.strip()
    if "-" in left.rsplit("/", 1)[-1]:
        prefix_text, _, max_text = left.rpartition("-")
        return Vrp(Prefix.parse(prefix_text), int(max_text), asn)
    prefix = Prefix.parse(left)
    return Vrp(prefix, prefix.length, asn)


def sort_vrps(vrps: Iterable[Vrp]) -> list[Vrp]:
    """Deterministic ordering: by prefix, then maxLength, then ASN."""
    return sorted(vrps, key=Vrp.sort_key)
