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


class _HashSlot:
    """The slot :meth:`Vrp.__hash__` caches into.  A base class rather
    than a field, so ``dataclasses.fields``/``astuple``, ``repr``,
    ``replace`` and the pickled state see the three fields only."""

    __slots__ = ("_hash",)


@dataclass(frozen=True, slots=True, eq=False)
class Vrp(_HashSlot):
    """One validated (prefix, maxLength, origin AS) authorization.

    Equality, hashing and ordering are those of the tuple
    ``(prefix, max_length, asn)`` — :meth:`sort_key` order — written
    out over ints: a serve-tier refresh hashes and sorts the whole
    table, so each is paid once per VRP per refresh.

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

    # ------------------------------------------------------------------
    # Identity: the tuple semantics, on ints.  These read Prefix's
    # slots directly; a property call per field would cost more than
    # the comparison itself.
    # ------------------------------------------------------------------

    def __hash__(self) -> int:
        # Computed once, then kept.  The value must stay that of the
        # tuple: it fixes the iteration order of every set and dict of
        # VRPs, and with it every output built by iterating one.
        try:
            return self._hash
        except AttributeError:
            value = hash((self.prefix, self.max_length, self.asn))
            object.__setattr__(self, "_hash", value)
            return value

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Vrp:
            return NotImplemented
        a, b = self.prefix, other.prefix  # type: ignore[attr-defined]
        return (
            self.asn == other.asn  # type: ignore[attr-defined]
            and self.max_length == other.max_length  # type: ignore[attr-defined]
            and a._value == b._value
            and a._length == b._length
            and a._family == b._family
        )

    def __lt__(self, other: "Vrp") -> bool:
        if other.__class__ is not Vrp:
            return NotImplemented
        a, b = self.prefix, other.prefix
        if a._family != b._family:
            return a._family < b._family
        if a._value != b._value:
            return a._value < b._value
        if a._length != b._length:
            return a._length < b._length
        if self.max_length != other.max_length:
            return self.max_length < other.max_length
        return self.asn < other.asn

    def __gt__(self, other: "Vrp") -> bool:
        if other.__class__ is not Vrp:
            return NotImplemented
        return Vrp.__lt__(other, self)

    def __le__(self, other: "Vrp") -> bool:
        if other.__class__ is not Vrp:
            return NotImplemented
        return not Vrp.__lt__(other, self)

    def __ge__(self, other: "Vrp") -> bool:
        if other.__class__ is not Vrp:
            return NotImplemented
        return not Vrp.__lt__(self, other)

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
