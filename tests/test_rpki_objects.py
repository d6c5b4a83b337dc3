"""Tests for certificates, signed objects, manifests, and CRLs."""

from __future__ import annotations

import random

import pytest

from repro.crypto import generate_keypair
from repro.netbase import Prefix
from repro.netbase.errors import ValidationError
from repro.rpki import (
    AsRange,
    Crl,
    INHERIT,
    Manifest,
    ResourceCertificate,
    Roa,
    RoaPrefix,
    SignedObject,
    sha256_hex,
)
from repro.rpki.oids import OID_ROA_ECONTENT


pytestmark = pytest.mark.usefixtures("seeded_keys")


def p(text: str) -> Prefix:
    return Prefix.parse(text)


@pytest.fixture(scope="module")
def issuer_key():
    return generate_keypair(1024, random.Random(1))


@pytest.fixture(scope="module")
def subject_key():
    return generate_keypair(1024, random.Random(2))


@pytest.fixture(scope="module")
def ca_cert(issuer_key):
    return ResourceCertificate.build_and_sign(
        serial=1,
        issuer="TA",
        subject="TA",
        public_key=issuer_key.public,
        not_before=0,
        not_after=10_000,
        is_ca=True,
        ip_resources=(p("10.0.0.0/8"), p("2001:db8::/32")),
        as_resources=(AsRange(0, 2**32 - 1),),
        issuer_key=issuer_key,
    )


class TestAsRange:
    def test_contains(self):
        r = AsRange(10, 20)
        assert r.contains(10) and r.contains(20) and not r.contains(21)

    def test_contains_range(self):
        assert AsRange(0, 100).contains_range(AsRange(5, 10))
        assert not AsRange(5, 10).contains_range(AsRange(0, 100))

    def test_inverted_rejected(self):
        with pytest.raises(ValidationError):
            AsRange(5, 1)

    def test_str(self):
        assert str(AsRange(7, 7)) == "AS7"
        assert str(AsRange(1, 5)) == "AS1-AS5"


class TestCertificate:
    def test_self_signed_verifies(self, ca_cert, issuer_key):
        assert ca_cert.verify_signature(issuer_key.public)

    def test_der_round_trip(self, ca_cert):
        assert ResourceCertificate.from_der(ca_cert.to_der()) == ca_cert

    def test_der_round_trip_inherit(self, issuer_key, subject_key):
        cert = ResourceCertificate.build_and_sign(
            serial=7,
            issuer="TA",
            subject="child",
            public_key=subject_key.public,
            not_before=0,
            not_after=100,
            is_ca=True,
            ip_resources=INHERIT,
            as_resources=INHERIT,
            issuer_key=issuer_key,
        )
        decoded = ResourceCertificate.from_der(cert.to_der())
        assert decoded.ip_resources == INHERIT
        assert decoded.as_resources == INHERIT

    def test_tampered_der_fails_signature(self, ca_cert, issuer_key):
        der = bytearray(ca_cert.to_der())
        # flip a bit inside the TBS (early in the blob)
        der[10] ^= 0x01
        try:
            mangled = ResourceCertificate.from_der(bytes(der))
        except ValidationError:
            return  # structurally destroyed: also acceptable
        assert not mangled.verify_signature(issuer_key.public)

    def test_validity_window(self, ca_cert):
        assert ca_cert.valid_at(0) and ca_cert.valid_at(10_000)
        assert not ca_cert.valid_at(10_001)

    def test_inverted_window_rejected(self, issuer_key):
        with pytest.raises(ValidationError):
            ResourceCertificate(
                serial=1, issuer="x", subject="y",
                public_key=issuer_key.public,
                not_before=10, not_after=5, is_ca=True,
                ip_resources=(), as_resources=(),
            )

    def test_covers_prefixes(self, ca_cert):
        assert ca_cert.covers_prefixes([p("10.1.0.0/16")])
        assert ca_cert.covers_prefixes([p("10.1.0.0/16"), p("2001:db8:1::/48")])
        assert not ca_cert.covers_prefixes([p("11.0.0.0/16")])

    def test_covers_asn(self, ca_cert):
        assert ca_cert.covers_asn(65000)

    def test_resources_within(self, ca_cert, subject_key, issuer_key):
        child = ResourceCertificate.build_and_sign(
            serial=2, issuer="TA", subject="child",
            public_key=subject_key.public,
            not_before=0, not_after=100, is_ca=True,
            ip_resources=(p("10.1.0.0/16"),),
            as_resources=(AsRange(100, 200),),
            issuer_key=issuer_key,
        )
        assert child.resources_within(ca_cert)
        overclaiming = ResourceCertificate.build_and_sign(
            serial=3, issuer="TA", subject="greedy",
            public_key=subject_key.public,
            not_before=0, not_after=100, is_ca=True,
            ip_resources=(p("11.0.0.0/16"),),
            as_resources=(AsRange(100, 200),),
            issuer_key=issuer_key,
        )
        assert not overclaiming.resources_within(ca_cert)

    def test_inherit_is_always_within(self, ca_cert, subject_key, issuer_key):
        child = ResourceCertificate.build_and_sign(
            serial=4, issuer="TA", subject="inheritor",
            public_key=subject_key.public,
            not_before=0, not_after=100, is_ca=True,
            ip_resources=INHERIT, as_resources=INHERIT,
            issuer_key=issuer_key,
        )
        assert child.resources_within(ca_cert)

    def test_inherit_covers_nothing_directly(self, subject_key, issuer_key):
        cert = ResourceCertificate.build_and_sign(
            serial=5, issuer="TA", subject="inheritor",
            public_key=subject_key.public,
            not_before=0, not_after=100, is_ca=False,
            ip_resources=INHERIT, as_resources=INHERIT,
            issuer_key=issuer_key,
        )
        assert not cert.covers_prefixes([p("10.0.0.0/16")])


class TestSignedObject:
    def _make(self, issuer_key, subject_key):
        roa = Roa(111, [RoaPrefix(p("10.1.0.0/16"), 24)])
        ee = ResourceCertificate.build_and_sign(
            serial=9, issuer="TA", subject="ee",
            public_key=subject_key.public,
            not_before=0, not_after=100, is_ca=False,
            ip_resources=(p("10.1.0.0/16"),), as_resources=(),
            issuer_key=issuer_key,
        )
        econtent = roa.to_econtent()
        return SignedObject(
            econtent_type=OID_ROA_ECONTENT,
            econtent=econtent,
            ee_cert=ee,
            signature=subject_key.sign(econtent),
        )

    def test_verify_and_round_trip(self, issuer_key, subject_key):
        signed = self._make(issuer_key, subject_key)
        assert signed.verify()
        recovered = SignedObject.from_der(signed.to_der())
        assert recovered.verify()
        assert recovered == signed

    def test_tampered_econtent_fails(self, issuer_key, subject_key):
        signed = self._make(issuer_key, subject_key)
        tampered = SignedObject(
            econtent_type=signed.econtent_type,
            econtent=signed.econtent + b"\x00",
            ee_cert=signed.ee_cert,
            signature=signed.signature,
        )
        assert not tampered.verify()

    def test_bad_der_rejected(self):
        with pytest.raises(ValidationError):
            SignedObject.from_der(b"\x30\x00")


class TestManifest:
    def test_sign_verify_round_trip(self, issuer_key):
        manifest = Manifest(
            issuer="TA", manifest_number=1, this_update=0, next_update=100,
            entries=(("a.roa", sha256_hex(b"a")), ("b.cer", sha256_hex(b"b"))),
        ).sign_with(issuer_key)
        assert manifest.verify_signature(issuer_key.public)
        recovered = Manifest.from_der(manifest.to_der())
        assert recovered == manifest

    def test_lists_checks_hash(self, issuer_key):
        manifest = Manifest(
            issuer="TA", manifest_number=1, this_update=0, next_update=100,
            entries=(("a.roa", sha256_hex(b"content")),),
        )
        assert manifest.lists("a.roa", b"content")
        assert not manifest.lists("a.roa", b"other")
        assert not manifest.lists("b.roa", b"content")

    def test_validity(self):
        manifest = Manifest("TA", 1, this_update=10, next_update=20, entries=())
        assert manifest.valid_at(10) and manifest.valid_at(20)
        assert not manifest.valid_at(9) and not manifest.valid_at(21)

    def test_entries_sorted_in_der(self, issuer_key):
        manifest = Manifest(
            issuer="TA", manifest_number=1, this_update=0, next_update=1,
            entries=(("z.roa", "00"), ("a.roa", "11")),
        ).sign_with(issuer_key)
        recovered = Manifest.from_der(manifest.to_der())
        assert recovered.entries == (("a.roa", "11"), ("z.roa", "00"))


class TestCrl:
    def test_sign_verify_round_trip(self, issuer_key):
        crl = Crl(
            issuer="TA", crl_number=3, this_update=0, next_update=50,
            revoked_serials=(9, 4),
        ).sign_with(issuer_key)
        assert crl.verify_signature(issuer_key.public)
        recovered = Crl.from_der(crl.to_der())
        assert recovered.revoked_serials == (4, 9)

    def test_revokes(self):
        crl = Crl("TA", 1, 0, 10, revoked_serials=(5,))
        assert crl.revokes(5) and not crl.revokes(6)

    def test_wrong_key_fails(self, issuer_key, subject_key):
        crl = Crl("TA", 1, 0, 10, revoked_serials=()).sign_with(issuer_key)
        assert not crl.verify_signature(subject_key.public)
