"""Signed RPKI objects (simplified CMS SignedData, RFC 6488 profile).

Every RPKI payload (ROA, manifest) travels inside a signed envelope:
the eContent bytes, the one-time end-entity (EE) certificate whose key
signed them, and the signature itself.  Real RPKI uses full CMS; we keep
the three fields that carry the security semantics.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..asn1.der import (
    Asn1Error,
    ObjectIdentifier,
    OctetString,
    Sequence_,
    decode,
    encode,
)
from ..netbase.errors import ValidationError
from .cert import ResourceCertificate

__all__ = ["SignedObject"]


@dataclass(frozen=True)
class SignedObject:
    """An eContent blob signed by an EE certificate's key.

    Attributes:
        econtent_type: OID naming the payload profile (ROA, manifest).
        econtent: the DER payload bytes.
        ee_cert: the end-entity certificate; its public key must verify
            ``signature``, and its resources must cover the payload.
        signature: EE-key signature over ``econtent``.
    """

    econtent_type: ObjectIdentifier
    econtent: bytes
    ee_cert: ResourceCertificate
    signature: bytes

    def verify(self) -> bool:
        """Check the EE signature over the payload (not the chain)."""
        return self.ee_cert.public_key.verify(self.econtent, self.signature)

    def to_der(self) -> bytes:
        return encode(
            Sequence_(
                [
                    self.econtent_type,
                    OctetString(self.econtent),
                    OctetString(self.ee_cert.to_der()),
                    OctetString(self.signature),
                ]
            )
        )

    @classmethod
    def from_der(cls, data: bytes) -> "SignedObject":
        try:
            outer = decode(data)
        except Asn1Error as exc:
            raise ValidationError(f"bad signed object DER: {exc}") from exc
        if (
            not isinstance(outer, Sequence_)
            or len(outer.elements) != 4
            or not isinstance(outer.elements[0], ObjectIdentifier)
            or not isinstance(outer.elements[1], OctetString)
            or not isinstance(outer.elements[2], OctetString)
            or not isinstance(outer.elements[3], OctetString)
        ):
            raise ValidationError("signed object must be {oid, content, cert, sig}")
        return cls(
            econtent_type=outer.elements[0],
            econtent=outer.elements[1].value,
            ee_cert=ResourceCertificate.from_der(outer.elements[2].value),
            signature=outer.elements[3].value,
        )
