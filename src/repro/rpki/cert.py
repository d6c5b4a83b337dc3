"""Resource certificates (simplified RFC 6487 / RFC 3779 profile).

An RPKI certificate binds a public key to a set of Internet number
resources: IP prefixes and AS numbers.  The profile here keeps the parts
that matter to the paper's threat model — the resource extensions, the
issuer chain, validity windows, and signatures — and drops X.509
baggage (name encodings, extension criticality, algorithm agility).

Differences from the real profile are documented in DESIGN.md; the
validation *logic* (resource containment down the chain, expiry,
revocation) matches RFC 6487 §7.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from ..asn1.der import (
    Asn1Error,
    BitString,
    ContextTag,
    Integer,
    ObjectIdentifier,
    OctetString,
    Sequence_,
    Utf8String,
    decode,
    encode,
)
from ..crypto.rsa import RsaPrivateKey, RsaPublicKey
from ..netbase.errors import ValidationError
from ..netbase.prefix import Prefix
from .oids import OID_SHA256_RSA

__all__ = ["AsRange", "ResourceCertificate", "INHERIT"]

#: Sentinel meaning "inherit resources from the issuer" (RFC 3779 §2.2.3.5).
INHERIT = "inherit"


@dataclass(frozen=True, order=True)
class AsRange:
    """An inclusive range of AS numbers."""

    low: int
    high: int

    def __post_init__(self) -> None:
        if self.low > self.high:
            raise ValidationError(f"AS range {self.low}-{self.high} inverted")

    def contains(self, asn: int) -> bool:
        return self.low <= asn <= self.high

    def contains_range(self, other: "AsRange") -> bool:
        return self.low <= other.low and other.high <= self.high

    def __str__(self) -> str:
        if self.low == self.high:
            return f"AS{self.low}"
        return f"AS{self.low}-AS{self.high}"


def _ip_resources_cover(
    resources: Sequence[Prefix], candidates: Iterable[Prefix]
) -> bool:
    return all(
        any(block.covers(candidate) for block in resources)
        for candidate in candidates
    )


@dataclass(frozen=True)
class ResourceCertificate:
    """A signed resource certificate.

    Attributes:
        serial: issuer-unique serial number.
        issuer: issuer CA name.
        subject: subject name.
        public_key: the certified key.
        not_before / not_after: validity window (unix seconds).
        is_ca: True for CA certificates, False for end-entity (EE).
        ip_resources: tuple of prefixes the subject controls, or the
            string :data:`INHERIT`.
        as_resources: tuple of :class:`AsRange`, or :data:`INHERIT`.
        signature: issuer signature over :meth:`tbs_der`.
    """

    serial: int
    issuer: str
    subject: str
    public_key: RsaPublicKey
    not_before: int
    not_after: int
    is_ca: bool
    ip_resources: tuple[Prefix, ...] | str
    as_resources: tuple[AsRange, ...] | str
    signature: bytes = b""

    def __post_init__(self) -> None:
        if isinstance(self.ip_resources, str) and self.ip_resources != INHERIT:
            raise ValidationError(f"bad ip_resources marker {self.ip_resources!r}")
        if isinstance(self.as_resources, str) and self.as_resources != INHERIT:
            raise ValidationError(f"bad as_resources marker {self.as_resources!r}")
        if self.not_after < self.not_before:
            raise ValidationError("certificate validity window inverted")

    # ------------------------------------------------------------------
    # Resource logic
    # ------------------------------------------------------------------

    def covers_prefixes(self, prefixes: Iterable[Prefix]) -> bool:
        """True if this cert's own (non-inherit) IP resources cover all.

        Inherit is resolved by the validator, which walks the chain; at
        this level an inherit cert covers nothing by itself.
        """
        if self.ip_resources == INHERIT:
            return False
        assert isinstance(self.ip_resources, tuple)
        return _ip_resources_cover(self.ip_resources, prefixes)

    def covers_asn(self, asn: int) -> bool:
        if self.as_resources == INHERIT:
            return False
        assert isinstance(self.as_resources, tuple)
        return any(block.contains(asn) for block in self.as_resources)

    def resources_within(self, issuer_cert: "ResourceCertificate") -> bool:
        """RFC 6487 §7.2: subject resources must be a subset of issuer's.

        Inherit always passes (the subject has exactly the issuer's
        resources).
        """
        ip_ok = (
            self.ip_resources == INHERIT
            or issuer_cert.ip_resources == INHERIT
            or _ip_resources_cover(
                issuer_cert.ip_resources, self.ip_resources  # type: ignore[arg-type]
            )
        )
        as_ok = (
            self.as_resources == INHERIT
            or issuer_cert.as_resources == INHERIT
            or all(
                any(
                    parent.contains_range(child)
                    for parent in issuer_cert.as_resources  # type: ignore[union-attr]
                )
                for child in self.as_resources  # type: ignore[union-attr]
            )
        )
        return ip_ok and as_ok

    def valid_at(self, now: int) -> bool:
        return self.not_before <= now <= self.not_after

    # ------------------------------------------------------------------
    # Encoding and signing
    # ------------------------------------------------------------------

    def tbs_der(self) -> bytes:
        """DER of the to-be-signed portion (everything but the signature)."""
        if self.ip_resources == INHERIT:
            ip_part: ContextTag | Sequence_ = ContextTag(1, Utf8String(INHERIT))
        else:
            assert isinstance(self.ip_resources, tuple)
            ip_part = Sequence_(
                [
                    Sequence_([Integer(p.family), BitString(p.bits())])
                    for p in sorted(self.ip_resources)
                ]
            )
        if self.as_resources == INHERIT:
            as_part: ContextTag | Sequence_ = ContextTag(2, Utf8String(INHERIT))
        else:
            assert isinstance(self.as_resources, tuple)
            as_part = Sequence_(
                [
                    Sequence_([Integer(r.low), Integer(r.high)])
                    for r in sorted(self.as_resources)
                ]
            )
        return encode(
            Sequence_(
                [
                    Integer(self.serial),
                    Utf8String(self.issuer),
                    Utf8String(self.subject),
                    Sequence_(
                        [
                            OID_SHA256_RSA,
                            Integer(self.public_key.modulus),
                            Integer(self.public_key.exponent),
                        ]
                    ),
                    Integer(self.not_before),
                    Integer(self.not_after),
                    Integer(1 if self.is_ca else 0),
                    ip_part,
                    as_part,
                ]
            )
        )

    def to_der(self) -> bytes:
        """Full certificate: SEQUENCE { tbs, signature OCTET STRING }."""
        return encode(
            Sequence_(
                [
                    OctetString(self.tbs_der()),
                    OctetString(self.signature),
                ]
            )
        )

    @classmethod
    def from_der(cls, data: bytes) -> "ResourceCertificate":
        try:
            outer = decode(data)
        except Asn1Error as exc:
            raise ValidationError(f"bad certificate DER: {exc}") from exc
        if (
            not isinstance(outer, Sequence_)
            or len(outer.elements) != 2
            or not isinstance(outer.elements[0], OctetString)
            or not isinstance(outer.elements[1], OctetString)
        ):
            raise ValidationError("certificate must be SEQUENCE {tbs, sig}")
        tbs_bytes, signature = outer.elements[0].value, outer.elements[1].value
        try:
            tbs = decode(tbs_bytes)
        except Asn1Error as exc:
            raise ValidationError(f"bad TBS DER: {exc}") from exc
        if not isinstance(tbs, Sequence_) or len(tbs.elements) != 9:
            raise ValidationError("bad TBS structure")
        (serial, issuer, subject, key_info, not_before, not_after, is_ca,
         ip_part, as_part) = tbs.elements
        if not (
            isinstance(serial, Integer)
            and isinstance(issuer, Utf8String)
            and isinstance(subject, Utf8String)
            and isinstance(key_info, Sequence_)
            and len(key_info.elements) == 3
            and isinstance(key_info.elements[0], ObjectIdentifier)
            and isinstance(key_info.elements[1], Integer)
            and isinstance(key_info.elements[2], Integer)
            and isinstance(not_before, Integer)
            and isinstance(not_after, Integer)
            and isinstance(is_ca, Integer)
        ):
            raise ValidationError("bad TBS field types")

        ip_resources: tuple[Prefix, ...] | str
        if isinstance(ip_part, ContextTag) and ip_part.number == 1:
            ip_resources = INHERIT
        elif isinstance(ip_part, Sequence_):
            prefixes = []
            for element in ip_part.elements:
                if (
                    not isinstance(element, Sequence_)
                    or len(element.elements) != 2
                    or not isinstance(element.elements[0], Integer)
                    or not isinstance(element.elements[1], BitString)
                ):
                    raise ValidationError("bad IP resource entry")
                prefixes.append(
                    Prefix.from_bits(
                        element.elements[0].value, element.elements[1].bits
                    )
                )
            ip_resources = tuple(prefixes)
        else:
            raise ValidationError("bad IP resources")

        as_resources: tuple[AsRange, ...] | str
        if isinstance(as_part, ContextTag) and as_part.number == 2:
            as_resources = INHERIT
        elif isinstance(as_part, Sequence_):
            ranges = []
            for element in as_part.elements:
                if (
                    not isinstance(element, Sequence_)
                    or len(element.elements) != 2
                    or not isinstance(element.elements[0], Integer)
                    or not isinstance(element.elements[1], Integer)
                ):
                    raise ValidationError("bad AS resource entry")
                ranges.append(
                    AsRange(element.elements[0].value, element.elements[1].value)
                )
            as_resources = tuple(ranges)
        else:
            raise ValidationError("bad AS resources")

        return cls(
            serial=serial.value,
            issuer=issuer.value,
            subject=subject.value,
            public_key=RsaPublicKey(
                key_info.elements[1].value, key_info.elements[2].value
            ),
            not_before=not_before.value,
            not_after=not_after.value,
            is_ca=bool(is_ca.value),
            ip_resources=ip_resources,
            as_resources=as_resources,
            signature=signature,
        )

    def verify_signature(self, issuer_key: RsaPublicKey) -> bool:
        """True iff ``signature`` verifies over the TBS with the key."""
        return issuer_key.verify(self.tbs_der(), self.signature)

    @classmethod
    def build_and_sign(
        cls,
        *,
        serial: int,
        issuer: str,
        subject: str,
        public_key: RsaPublicKey,
        not_before: int,
        not_after: int,
        is_ca: bool,
        ip_resources: tuple[Prefix, ...] | str,
        as_resources: tuple[AsRange, ...] | str,
        issuer_key: RsaPrivateKey,
    ) -> "ResourceCertificate":
        """Create a certificate and sign it with the issuer's key."""
        unsigned = cls(
            serial=serial,
            issuer=issuer,
            subject=subject,
            public_key=public_key,
            not_before=not_before,
            not_after=not_after,
            is_ca=is_ca,
            ip_resources=(
                ip_resources
                if isinstance(ip_resources, str)
                else tuple(sorted(ip_resources))
            ),
            as_resources=(
                as_resources
                if isinstance(as_resources, str)
                else tuple(sorted(as_resources))
            ),
        )
        signature = issuer_key.sign(unsigned.tbs_der())
        return cls(
            **{
                **unsigned.__dict__,
                "signature": signature,
            }
        )

    def __str__(self) -> str:
        kind = "CA" if self.is_ca else "EE"
        return f"<{kind} cert #{self.serial} {self.issuer} -> {self.subject}>"
