"""Manifests (RFC 6486) and CRLs for publication points.

A manifest lists every object a CA currently publishes together with its
SHA-256 hash, so a relying party can detect deletions and substitutions.
A CRL revokes certificates by serial number.  Both are signed by the
issuing CA (we skip the EE indirection for these two object types; the
trust semantics are identical and DESIGN.md records the simplification).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from ..asn1.der import (
    Asn1Error,
    Integer,
    OctetString,
    Sequence_,
    Utf8String,
    decode,
    encode,
)
from ..crypto.rsa import RsaPrivateKey, RsaPublicKey
from ..netbase.errors import ValidationError

__all__ = ["Manifest", "Crl", "sha256_hex"]


def sha256_hex(data: bytes) -> str:
    """Hex SHA-256, the hash manifests carry per file."""
    return hashlib.sha256(data).hexdigest()


@dataclass(frozen=True)
class Manifest:
    """A signed listing of (file name, SHA-256) pairs.

    Attributes:
        issuer: publishing CA name.
        manifest_number: monotonically increasing issue counter.
        this_update / next_update: validity window (unix seconds).
        entries: tuple of (name, sha256-hex) pairs, sorted by name.
        signature: CA signature over the TBS DER.
    """

    issuer: str
    manifest_number: int
    this_update: int
    next_update: int
    entries: tuple[tuple[str, str], ...]
    signature: bytes = b""

    def tbs_der(self) -> bytes:
        return encode(
            Sequence_(
                [
                    Utf8String(self.issuer),
                    Integer(self.manifest_number),
                    Integer(self.this_update),
                    Integer(self.next_update),
                    Sequence_(
                        [
                            Sequence_([Utf8String(name), Utf8String(digest)])
                            for name, digest in sorted(self.entries)
                        ]
                    ),
                ]
            )
        )

    def to_der(self) -> bytes:
        return encode(
            Sequence_([OctetString(self.tbs_der()), OctetString(self.signature)])
        )

    @classmethod
    def from_der(cls, data: bytes) -> "Manifest":
        try:
            outer = decode(data)
        except Asn1Error as exc:
            raise ValidationError(f"bad manifest DER: {exc}") from exc
        if (
            not isinstance(outer, Sequence_)
            or len(outer.elements) != 2
            or not isinstance(outer.elements[0], OctetString)
            or not isinstance(outer.elements[1], OctetString)
        ):
            raise ValidationError("manifest must be {tbs, sig}")
        tbs = decode(outer.elements[0].value)
        if not isinstance(tbs, Sequence_) or len(tbs.elements) != 5:
            raise ValidationError("bad manifest TBS")
        issuer, number, this_update, next_update, listing = tbs.elements
        if not (
            isinstance(issuer, Utf8String)
            and isinstance(number, Integer)
            and isinstance(this_update, Integer)
            and isinstance(next_update, Integer)
            and isinstance(listing, Sequence_)
        ):
            raise ValidationError("bad manifest TBS fields")
        entries = []
        for element in listing.elements:
            if (
                not isinstance(element, Sequence_)
                or len(element.elements) != 2
                or not isinstance(element.elements[0], Utf8String)
                or not isinstance(element.elements[1], Utf8String)
            ):
                raise ValidationError("bad manifest entry")
            entries.append((element.elements[0].value, element.elements[1].value))
        return cls(
            issuer=issuer.value,
            manifest_number=number.value,
            this_update=this_update.value,
            next_update=next_update.value,
            entries=tuple(entries),
            signature=outer.elements[1].value,
        )

    def sign_with(self, key: RsaPrivateKey) -> "Manifest":
        return Manifest(
            issuer=self.issuer,
            manifest_number=self.manifest_number,
            this_update=self.this_update,
            next_update=self.next_update,
            entries=self.entries,
            signature=key.sign(self.tbs_der()),
        )

    def verify_signature(self, key: RsaPublicKey) -> bool:
        return key.verify(self.tbs_der(), self.signature)

    def lists(self, name: str, data: bytes) -> bool:
        """True if ``name`` is listed with the hash of ``data``."""
        digest = sha256_hex(data)
        return any(
            entry_name == name and entry_digest == digest
            for entry_name, entry_digest in self.entries
        )

    def valid_at(self, now: int) -> bool:
        return self.this_update <= now <= self.next_update


@dataclass(frozen=True)
class Crl:
    """A signed certificate revocation list (serial numbers)."""

    issuer: str
    crl_number: int
    this_update: int
    next_update: int
    revoked_serials: tuple[int, ...]
    signature: bytes = b""

    def tbs_der(self) -> bytes:
        return encode(
            Sequence_(
                [
                    Utf8String(self.issuer),
                    Integer(self.crl_number),
                    Integer(self.this_update),
                    Integer(self.next_update),
                    Sequence_([Integer(s) for s in sorted(self.revoked_serials)]),
                ]
            )
        )

    def to_der(self) -> bytes:
        return encode(
            Sequence_([OctetString(self.tbs_der()), OctetString(self.signature)])
        )

    @classmethod
    def from_der(cls, data: bytes) -> "Crl":
        try:
            outer = decode(data)
        except Asn1Error as exc:
            raise ValidationError(f"bad CRL DER: {exc}") from exc
        if (
            not isinstance(outer, Sequence_)
            or len(outer.elements) != 2
            or not isinstance(outer.elements[0], OctetString)
            or not isinstance(outer.elements[1], OctetString)
        ):
            raise ValidationError("CRL must be {tbs, sig}")
        tbs = decode(outer.elements[0].value)
        if not isinstance(tbs, Sequence_) or len(tbs.elements) != 5:
            raise ValidationError("bad CRL TBS")
        issuer, number, this_update, next_update, serials = tbs.elements
        if not (
            isinstance(issuer, Utf8String)
            and isinstance(number, Integer)
            and isinstance(this_update, Integer)
            and isinstance(next_update, Integer)
            and isinstance(serials, Sequence_)
        ):
            raise ValidationError("bad CRL TBS fields")
        revoked = []
        for element in serials.elements:
            if not isinstance(element, Integer):
                raise ValidationError("bad CRL serial entry")
            revoked.append(element.value)
        return cls(
            issuer=issuer.value,
            crl_number=number.value,
            this_update=this_update.value,
            next_update=next_update.value,
            revoked_serials=tuple(revoked),
            signature=outer.elements[1].value,
        )

    def sign_with(self, key: RsaPrivateKey) -> "Crl":
        return Crl(
            issuer=self.issuer,
            crl_number=self.crl_number,
            this_update=self.this_update,
            next_update=self.next_update,
            revoked_serials=self.revoked_serials,
            signature=key.sign(self.tbs_der()),
        )

    def verify_signature(self, key: RsaPublicKey) -> bool:
        return key.verify(self.tbs_der(), self.signature)

    def revokes(self, serial: int) -> bool:
        return serial in self.revoked_serials

    def valid_at(self, now: int) -> bool:
        return self.this_update <= now <= self.next_update
