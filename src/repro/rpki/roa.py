"""Route Origin Authorizations (RFC 6482 profile).

A ROA authorizes one AS to originate a *set* of IP prefixes, each with an
optional maxLength.  This module models the ROA eContent and its DER
encoding exactly per RFC 6482:

.. code-block:: text

    RouteOriginAttestation ::= SEQUENCE {
        version [0] INTEGER DEFAULT 0,
        asID ASID,
        ipAddrBlocks SEQUENCE OF ROAIPAddressFamily }

    ROAIPAddressFamily ::= SEQUENCE {
        addressFamily OCTET STRING (SIZE (2..3)),
        addresses SEQUENCE OF ROAIPAddress }

    ROAIPAddress ::= SEQUENCE {
        address IPAddress,          -- BIT STRING, RFC 3779 style
        maxLength INTEGER OPTIONAL }

The cryptographic envelope (a simplified CMS SignedData) lives in
:mod:`repro.rpki.signed_object`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from ..asn1.der import (
    Asn1Error,
    Asn1Value,
    BitString,
    ContextTag,
    Integer,
    OctetString,
    Sequence_,
    decode,
    encode,
)
from ..netbase.asnum import validate_asn
from ..netbase.errors import PrefixLengthError, ValidationError
from ..netbase.prefix import AF_INET, AF_INET6, Prefix
from .vrp import Vrp, sort_vrps

__all__ = ["RoaPrefix", "Roa", "scan_roa_payloads"]

_AFI_BYTES = {AF_INET: b"\x00\x01", AF_INET6: b"\x00\x02"}
_AFI_FAMILY = {v: k for k, v in _AFI_BYTES.items()}


@dataclass(frozen=True)
class RoaPrefix:
    """One (prefix, optional maxLength) entry inside a ROA.

    ``max_length`` of None means "not present": the ROA authorizes only
    the exact prefix length (RFC 6482 §3.3).  Entries order by
    (prefix, effective maxLength), with an absent maxLength sorting
    before an explicit equal one.
    """

    prefix: Prefix
    max_length: Optional[int] = None

    def _sort_key(self) -> tuple[Prefix, int, int]:
        return (
            self.prefix,
            self.effective_max_length,
            0 if self.max_length is None else 1,
        )

    def __lt__(self, other: "RoaPrefix") -> bool:
        if not isinstance(other, RoaPrefix):
            return NotImplemented
        return self._sort_key() < other._sort_key()

    def __post_init__(self) -> None:
        if self.max_length is None:
            return
        if self.max_length < self.prefix.length:
            raise PrefixLengthError(
                f"maxLength {self.max_length} < length of {self.prefix}"
            )
        if self.max_length > self.prefix.max_family_length:
            raise PrefixLengthError(
                f"maxLength {self.max_length} exceeds IPv{self.prefix.family} width"
            )

    @property
    def effective_max_length(self) -> int:
        """The maxLength in force: explicit value or the prefix length."""
        return self.max_length if self.max_length is not None else self.prefix.length

    @property
    def uses_max_length(self) -> bool:
        """True if an explicit maxLength extends beyond the prefix length."""
        return self.max_length is not None and self.max_length > self.prefix.length

    def __str__(self) -> str:
        if self.max_length is not None:
            return f"{self.prefix}-{self.max_length}"
        return str(self.prefix)


@dataclass(frozen=True)
class Roa:
    """A Route Origin Authorization: one AS, a set of prefixes.

    Attributes:
        asn: the authorized origin AS.
        prefixes: the authorized entries (kept sorted for deterministic
            encoding; DER requires a canonical form anyway).
        version: RFC 6482 version, always 0 today.
    """

    asn: int
    prefixes: tuple[RoaPrefix, ...]
    version: int = 0

    def __init__(
        self,
        asn: int,
        prefixes: Iterable[RoaPrefix | Prefix],
        version: int = 0,
    ) -> None:
        validate_asn(asn)
        normalized = tuple(
            sorted(
                entry if isinstance(entry, RoaPrefix) else RoaPrefix(entry)
                for entry in prefixes
            )
        )
        if not normalized:
            raise ValidationError("a ROA must contain at least one prefix")
        object.__setattr__(self, "asn", asn)
        object.__setattr__(self, "prefixes", normalized)
        object.__setattr__(self, "version", version)

    # ------------------------------------------------------------------
    # Semantics
    # ------------------------------------------------------------------

    def vrps(self) -> list[Vrp]:
        """The VRPs this ROA yields once validated."""
        return [
            Vrp(entry.prefix, entry.effective_max_length, self.asn)
            for entry in self.prefixes
        ]

    @property
    def uses_max_length(self) -> bool:
        """True if any entry has an effective maxLength beyond its length."""
        return any(entry.uses_max_length for entry in self.prefixes)

    def authorizes(self, prefix: Prefix, origin_asn: int) -> bool:
        """RFC 6811 matching against any entry of this ROA."""
        if origin_asn != self.asn:
            return False
        return any(
            entry.prefix.covers(prefix)
            and prefix.length <= entry.effective_max_length
            for entry in self.prefixes
        )

    def covered_families(self) -> set[int]:
        return {entry.prefix.family for entry in self.prefixes}

    def __str__(self) -> str:
        inner = ", ".join(str(entry) for entry in self.prefixes)
        return f"ROA:({{{inner}}}, AS{self.asn})"

    # ------------------------------------------------------------------
    # RFC 6482 DER encoding
    # ------------------------------------------------------------------

    def to_econtent(self) -> bytes:
        """DER-encode the RouteOriginAttestation eContent."""
        families: dict[int, list[RoaPrefix]] = {}
        for entry in self.prefixes:
            families.setdefault(entry.prefix.family, []).append(entry)

        family_blocks = []
        for family in sorted(families):  # v4 (AFI 1) before v6 (AFI 2)
            addresses = []
            for entry in families[family]:
                elements: list[Asn1Value] = [BitString(entry.prefix.bits())]
                if entry.max_length is not None:
                    elements.append(Integer(entry.max_length))
                addresses.append(Sequence_(elements))
            family_blocks.append(
                Sequence_([
                    OctetString(_AFI_BYTES[family]),
                    Sequence_(addresses),
                ])
            )

        top_elements: list[Asn1Value] = []
        if self.version != 0:  # DEFAULT 0 must be omitted in DER
            top_elements.append(ContextTag(0, Integer(self.version)))
        top_elements.append(Integer(self.asn))
        top_elements.append(Sequence_(family_blocks))
        return encode(Sequence_(top_elements))

    @classmethod
    def from_econtent(cls, data: bytes) -> "Roa":
        """Decode a DER RouteOriginAttestation back into a :class:`Roa`."""
        try:
            top = decode(data)
        except Asn1Error as exc:
            raise ValidationError(f"bad ROA eContent DER: {exc}") from exc
        if not isinstance(top, Sequence_) or not top.elements:
            raise ValidationError("ROA eContent is not a SEQUENCE")

        elements = list(top.elements)
        version = 0
        if isinstance(elements[0], ContextTag):
            tag = elements.pop(0)
            if tag.number != 0 or not isinstance(tag.inner, Integer):
                raise ValidationError("bad ROA version tag")
            version = tag.inner.value
            if version == 0:
                raise ValidationError("DER forbids encoding DEFAULT version 0")
        if len(elements) != 2:
            raise ValidationError("ROA eContent must be [version] asID blocks")
        as_id, blocks = elements
        if not isinstance(as_id, Integer) or not isinstance(blocks, Sequence_):
            raise ValidationError("bad ROA asID / ipAddrBlocks")

        prefixes: list[RoaPrefix] = []
        for block in blocks.elements:
            if (
                not isinstance(block, Sequence_)
                or len(block.elements) != 2
                or not isinstance(block.elements[0], OctetString)
                or not isinstance(block.elements[1], Sequence_)
            ):
                raise ValidationError("bad ROAIPAddressFamily")
            afi = block.elements[0].value
            if afi not in _AFI_FAMILY:
                raise ValidationError(f"unknown AFI {afi.hex()}")
            family = _AFI_FAMILY[afi]
            for address in block.elements[1].elements:
                if not isinstance(address, Sequence_) or not address.elements:
                    raise ValidationError("bad ROAIPAddress")
                bit_string = address.elements[0]
                if not isinstance(bit_string, BitString):
                    raise ValidationError("ROAIPAddress.address must be BIT STRING")
                prefix = Prefix.from_bits(family, bit_string.bits)
                max_length: Optional[int] = None
                if len(address.elements) == 2:
                    ml = address.elements[1]
                    if not isinstance(ml, Integer):
                        raise ValidationError("maxLength must be INTEGER")
                    max_length = ml.value
                elif len(address.elements) > 2:
                    raise ValidationError("ROAIPAddress has extra fields")
                prefixes.append(RoaPrefix(prefix, max_length))
        return cls(as_id.value, prefixes, version=version)


def scan_roa_payloads(roas: Iterable[Roa]) -> list[Vrp]:
    """Convert already-validated ROA payloads to a sorted VRP list.

    Duplicate tuples are collapsed: two ROAs authorizing the same
    (prefix, maxLength, ASN) yield one VRP, matching how RTR caches
    deduplicate announcements.
    """
    unique: set[Vrp] = set()
    for roa in roas:
        unique.update(roa.vrps())
    return sort_vrps(unique)
