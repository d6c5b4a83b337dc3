"""Certificate authorities: trust anchors, RIRs, and member organizations.

This module wires the object types together into an operating hierarchy:
a :class:`CertificateAuthority` holds a key and a certificate, can issue
child CA certificates (delegating a subset of its resources), can issue
signed ROAs through one-time EE certificates, and publishes everything —
plus a manifest and CRL — at its publication point.

Typical use (see ``examples/quickstart.py``)::

    ta = CertificateAuthority.create_trust_anchor(
        "TA", repository, ip_resources=(Prefix.parse("0.0.0.0/0"),))
    arin = ta.issue_child("ARIN", ip_resources=(Prefix.parse("168.0.0.0/6"),),
                          as_resources=(AsRange(0, 4294967295),))
    bu = arin.issue_child("BU", ip_resources=(Prefix.parse("168.122.0.0/16"),))
    bu.issue_roa(Roa(111, [RoaPrefix(Prefix.parse("168.122.0.0/16"))]))
    bu.publish_crl_and_manifest()
"""

from __future__ import annotations

import random
from typing import Optional

from ..crypto.rsa import RsaPrivateKey, generate_keypair
from ..netbase.errors import ValidationError
from ..netbase.prefix import Prefix
from .cert import INHERIT, AsRange, ResourceCertificate
from .manifest import Crl, Manifest, sha256_hex
from .oids import OID_ROA_ECONTENT
from .repository import ObjectKind, Repository
from .roa import Roa
from .signed_object import SignedObject

__all__ = ["CertificateAuthority", "DEFAULT_VALIDITY_SECONDS"]

#: Default certificate lifetime: one year.
DEFAULT_VALIDITY_SECONDS = 365 * 24 * 3600


class CertificateAuthority:
    """An RPKI CA: key, certificate, children, and publication point.

    Instances are created through :meth:`create_trust_anchor` and
    :meth:`issue_child`, never directly, so the issuing invariants
    (resource containment, serial uniqueness) always hold.

    By default all ROAs issued by one CA share a single EE keypair;
    generating a fresh 1024-bit key per ROA is cryptographically tidier
    but O(seconds) each, which matters when synthesizing thousands of
    ROAs.  Pass ``fresh_ee_keys=True`` for per-ROA keys.
    """

    def __init__(
        self,
        name: str,
        key: RsaPrivateKey,
        certificate: ResourceCertificate,
        repository: Repository,
        rng: random.Random,
        parent: Optional["CertificateAuthority"] = None,
        now: int = 0,
        fresh_ee_keys: bool = False,
    ) -> None:
        self.name = name
        self.key = key
        self.certificate = certificate
        self.repository = repository
        self.parent = parent
        self.children: list[CertificateAuthority] = []
        self.now = now
        self.fresh_ee_keys = fresh_ee_keys
        self._rng = rng
        self._next_serial = 1
        self._revoked: list[int] = []
        self._manifest_number = 0
        self._ee_key: Optional[RsaPrivateKey] = None
        self._roa_counter = 0
        self.publication_point = repository.point_for(name)
        self.publication_point.publish(
            f"{name}.cer", ObjectKind.CERTIFICATE, certificate.to_der()
        )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def create_trust_anchor(
        cls,
        name: str,
        repository: Repository,
        *,
        ip_resources: tuple[Prefix, ...],
        as_resources: tuple[AsRange, ...] = (AsRange(0, 2**32 - 1),),
        rng: Optional[random.Random] = None,
        now: int = 0,
        validity: int = DEFAULT_VALIDITY_SECONDS,
        key_bits: int = 1024,
        fresh_ee_keys: bool = False,
    ) -> "CertificateAuthority":
        """Create a self-signed root CA (e.g. an RIR trust anchor)."""
        rng = rng if rng is not None else random.Random()
        key = generate_keypair(key_bits, rng)
        certificate = ResourceCertificate.build_and_sign(
            serial=1,
            issuer=name,
            subject=name,
            public_key=key.public,
            not_before=now,
            not_after=now + validity,
            is_ca=True,
            ip_resources=ip_resources,
            as_resources=as_resources,
            issuer_key=key,
        )
        return cls(
            name, key, certificate, repository, rng,
            parent=None, now=now, fresh_ee_keys=fresh_ee_keys,
        )

    def issue_child(
        self,
        name: str,
        *,
        ip_resources: tuple[Prefix, ...] | str = INHERIT,
        as_resources: tuple[AsRange, ...] | str = INHERIT,
        validity: int = DEFAULT_VALIDITY_SECONDS,
        key_bits: int = 1024,
    ) -> "CertificateAuthority":
        """Issue a child CA certificate delegating a resource subset.

        Raises:
            ValidationError: if the requested resources exceed ours.
        """
        key = generate_keypair(key_bits, self._rng)
        certificate = ResourceCertificate.build_and_sign(
            serial=self._allocate_serial(),
            issuer=self.name,
            subject=name,
            public_key=key.public,
            not_before=self.now,
            not_after=self.now + validity,
            is_ca=True,
            ip_resources=ip_resources,
            as_resources=as_resources,
            issuer_key=self.key,
        )
        if not certificate.resources_within(self.certificate):
            raise ValidationError(
                f"cannot delegate resources beyond {self.name}'s own to {name}"
            )
        child = CertificateAuthority(
            name, key, certificate, self.repository, self._rng,
            parent=self, now=self.now, fresh_ee_keys=self.fresh_ee_keys,
        )
        self.children.append(child)
        # The child's CA cert is published at the *issuer's* point, as in
        # the real RPKI.
        self.publication_point.publish(
            f"{name}.cer", ObjectKind.CERTIFICATE, certificate.to_der()
        )
        return child

    def _allocate_serial(self) -> int:
        serial = self._next_serial
        self._next_serial += 1
        return serial

    def _ee_signing_key(self) -> RsaPrivateKey:
        if self.fresh_ee_keys:
            return generate_keypair(1024, self._rng)
        if self._ee_key is None:
            self._ee_key = generate_keypair(1024, self._rng)
        return self._ee_key

    # ------------------------------------------------------------------
    # ROA issuance
    # ------------------------------------------------------------------

    def issue_roa(
        self,
        roa: Roa,
        *,
        validity: int = DEFAULT_VALIDITY_SECONDS,
        name: Optional[str] = None,
    ) -> SignedObject:
        """Sign and publish a ROA under a one-time EE certificate.

        The EE certificate carries exactly the ROA's prefixes as its IP
        resources (RFC 6482 §4: the ROA is valid only if its prefixes
        are covered by the EE cert), which in turn must nest inside this
        CA's resources.

        Raises:
            ValidationError: if the ROA's prefixes exceed our resources.
        """
        ee_key = self._ee_signing_key()
        roa_prefixes = tuple(sorted(entry.prefix for entry in roa.prefixes))
        ee_cert = ResourceCertificate.build_and_sign(
            serial=self._allocate_serial(),
            issuer=self.name,
            subject=f"{self.name}-roa-ee-{self._roa_counter}",
            public_key=ee_key.public,
            not_before=self.now,
            not_after=self.now + validity,
            is_ca=False,
            ip_resources=roa_prefixes,
            as_resources=(),
            issuer_key=self.key,
        )
        if not ee_cert.resources_within(self.certificate):
            raise ValidationError(
                f"ROA for AS{roa.asn} claims prefixes outside {self.name}'s resources"
            )
        econtent = roa.to_econtent()
        signed = SignedObject(
            econtent_type=OID_ROA_ECONTENT,
            econtent=econtent,
            ee_cert=ee_cert,
            signature=ee_key.sign(econtent),
        )
        object_name = name if name is not None else f"roa-{self._roa_counter}.roa"
        self._roa_counter += 1
        self.publication_point.publish(object_name, ObjectKind.ROA, signed.to_der())
        return signed

    def revoke(self, serial: int) -> None:
        """Mark a serial revoked; takes effect at the next CRL issue."""
        if serial not in self._revoked:
            self._revoked.append(serial)

    # ------------------------------------------------------------------
    # Manifest / CRL publication
    # ------------------------------------------------------------------

    def publish_crl_and_manifest(
        self, validity: int = DEFAULT_VALIDITY_SECONDS
    ) -> tuple[Crl, Manifest]:
        """(Re)issue this CA's CRL and manifest over its current objects."""
        crl = Crl(
            issuer=self.name,
            crl_number=self._manifest_number,
            this_update=self.now,
            next_update=self.now + validity,
            revoked_serials=tuple(sorted(self._revoked)),
        ).sign_with(self.key)
        self.publication_point.publish(
            f"{self.name}.crl", ObjectKind.CRL, crl.to_der()
        )

        entries = [
            (obj.name, sha256_hex(obj.data))
            for obj in self.publication_point.objects()
            if obj.kind != ObjectKind.MANIFEST
        ]
        manifest = Manifest(
            issuer=self.name,
            manifest_number=self._manifest_number,
            this_update=self.now,
            next_update=self.now + validity,
            entries=tuple(entries),
        ).sign_with(self.key)
        self.publication_point.publish(
            f"{self.name}.mft", ObjectKind.MANIFEST, manifest.to_der()
        )
        self._manifest_number += 1
        return crl, manifest

    def publish_tree(self) -> None:
        """Publish CRL+manifest for this CA and every descendant."""
        self.publish_crl_and_manifest()
        for child in self.children:
            child.publish_tree()

    def __repr__(self) -> str:
        return f"<CA {self.name} ({len(self.children)} children)>"
