"""Integration tests: CA hierarchy, publication, relying-party validation."""

from __future__ import annotations

import random

import pytest

from repro.netbase import Prefix
from repro.netbase.errors import ValidationError
from repro.rpki import (
    AsRange,
    CertificateAuthority,
    INHERIT,
    ObjectKind,
    RelyingParty,
    Repository,
    Roa,
    RoaPrefix,
    Vrp,
    scan_roas,
)


pytestmark = pytest.mark.usefixtures("seeded_keys")


def p(text: str) -> Prefix:
    return Prefix.parse(text)


@pytest.fixture()
def rpki():
    """A small three-level hierarchy: TA -> RIR -> two orgs."""
    rng = random.Random(1)
    repository = Repository()
    ta = CertificateAuthority.create_trust_anchor(
        "TA", repository,
        ip_resources=(p("0.0.0.0/0"), p("::/0")),
        rng=rng, now=1_000,
    )
    rir = ta.issue_child(
        "RIR", ip_resources=(p("168.0.0.0/6"),),
        as_resources=(AsRange(0, 2**32 - 1),),
    )
    bu = rir.issue_child("BU", ip_resources=(p("168.122.0.0/16"),))
    other = rir.issue_child("OTHER", ip_resources=(p("169.0.0.0/16"),))
    return repository, ta, rir, bu, other


class TestHappyPath:
    def test_roa_validates_end_to_end(self, rpki):
        repository, ta, _rir, bu, _other = rpki
        bu.issue_roa(Roa(111, [RoaPrefix(p("168.122.0.0/16"), 24)]))
        ta.publish_tree()
        run = scan_roas(repository, [ta.certificate], now=1_000)
        assert run.ok, [str(i) for i in run.issues]
        assert run.vrps == [Vrp(p("168.122.0.0/16"), 24, 111)]
        assert run.cas_seen == 4  # TA, RIR, BU, OTHER

    def test_multiple_roas_multiple_cas(self, rpki):
        repository, ta, _rir, bu, other = rpki
        bu.issue_roa(Roa(111, [p("168.122.0.0/16")]))
        bu.issue_roa(Roa(112, [p("168.122.8.0/24")]))
        other.issue_roa(Roa(200, [p("169.0.1.0/24")]))
        ta.publish_tree()
        run = scan_roas(repository, [ta.certificate], now=1_000)
        assert run.ok
        assert len(run.vrps) == 3
        assert run.roas_seen == 3

    def test_inherit_resources_chain(self, rpki):
        repository, ta, rir, _bu, _other = rpki
        inheritor = rir.issue_child("INH")  # inherits RIR's resources
        inheritor.issue_roa(Roa(300, [p("168.5.0.0/16")]))
        ta.publish_tree()
        run = scan_roas(repository, [ta.certificate], now=1_000)
        assert run.ok, [str(i) for i in run.issues]
        assert Vrp(p("168.5.0.0/16"), 16, 300) in run.vrps

    def test_validation_is_time_dependent(self, rpki):
        repository, ta, _rir, bu, _other = rpki
        bu.issue_roa(Roa(111, [p("168.122.0.0/16")]))
        ta.publish_tree()
        late = 1_000 + 366 * 24 * 3600
        run = scan_roas(repository, [ta.certificate], now=late)
        assert not run.ok
        assert not run.vrps


class TestNegativeCases:
    def test_issue_overclaiming_child_rejected(self, rpki):
        _repository, _ta, rir, _bu, _other = rpki
        with pytest.raises(ValidationError):
            rir.issue_child("greedy", ip_resources=(p("8.0.0.0/8"),))

    def test_issue_overclaiming_roa_rejected(self, rpki):
        _repository, _ta, _rir, bu, _other = rpki
        with pytest.raises(ValidationError):
            bu.issue_roa(Roa(111, [p("10.0.0.0/8")]))

    def test_tampered_roa_flagged_by_manifest(self, rpki):
        repository, ta, _rir, bu, _other = rpki
        bu.issue_roa(Roa(111, [p("168.122.0.0/16")]))
        ta.publish_tree()
        point = repository.point_for("BU")
        blob = point.get("roa-0.roa").data
        point.publish("roa-0.roa", ObjectKind.ROA, blob[:-1] + bytes([blob[-1] ^ 1]))
        run = scan_roas(repository, [ta.certificate], now=1_000)
        assert not run.ok
        assert not run.vrps
        assert any("manifest" in str(issue) for issue in run.issues)

    def test_removed_roa_flagged_missing(self, rpki):
        repository, ta, _rir, bu, _other = rpki
        bu.issue_roa(Roa(111, [p("168.122.0.0/16")]))
        ta.publish_tree()
        repository.point_for("BU").withdraw("roa-0.roa")
        run = scan_roas(repository, [ta.certificate], now=1_000)
        assert any("missing" in str(issue) for issue in run.issues)

    def test_revoked_ee_rejected(self, rpki):
        repository, ta, _rir, bu, _other = rpki
        signed = bu.issue_roa(Roa(111, [p("168.122.0.0/16")]))
        bu.revoke(signed.ee_cert.serial)
        ta.publish_tree()
        run = scan_roas(repository, [ta.certificate], now=1_000)
        assert not run.vrps
        assert any("revoked" in str(issue) for issue in run.issues)

    def test_revoked_ca_certificate_rejected(self, rpki):
        repository, ta, rir, bu, _other = rpki
        bu.issue_roa(Roa(111, [p("168.122.0.0/16")]))
        rir.revoke(bu.certificate.serial)
        ta.publish_tree()
        run = scan_roas(repository, [ta.certificate], now=1_000)
        assert not run.vrps

    def test_missing_manifest_flagged(self, rpki):
        repository, ta, _rir, bu, _other = rpki
        bu.issue_roa(Roa(111, [p("168.122.0.0/16")]))
        ta.publish_tree()
        repository.point_for("BU").withdraw("BU.mft")
        run = scan_roas(repository, [ta.certificate], now=1_000)
        assert any("manifest missing" in str(issue) for issue in run.issues)

    def test_foreign_signed_roa_rejected(self, rpki):
        """A ROA published at BU but signed by OTHER's CA key fails."""
        repository, ta, _rir, bu, other = rpki
        signed = other.issue_roa(Roa(200, [p("169.0.0.0/16")]))
        repository.point_for("OTHER").withdraw("roa-0.roa")
        repository.point_for("BU").publish(
            "stolen.roa", ObjectKind.ROA, signed.to_der()
        )
        ta.publish_tree()
        run = scan_roas(repository, [ta.certificate], now=1_000)
        assert not any(vrp.asn == 200 for vrp in run.vrps)

    def test_strict_mode_raises(self, rpki):
        repository, ta, _rir, bu, _other = rpki
        bu.issue_roa(Roa(111, [p("168.122.0.0/16")]))
        ta.publish_tree()
        repository.point_for("BU").withdraw("BU.mft")
        party = RelyingParty(repository, [ta.certificate], now=1_000, strict=True)
        with pytest.raises(ValidationError):
            party.validate()

    def test_non_self_signed_trust_anchor_rejected(self, rpki):
        repository, ta, _rir, bu, _other = rpki
        ta.publish_tree()
        # BU's cert is signed by RIR, not itself: cannot act as an anchor
        run = scan_roas(repository, [bu.certificate], now=1_000)
        assert not run.ok
        assert not run.vrps


class TestPublication:
    def test_manifest_covers_publication_point(self, rpki):
        repository, ta, _rir, bu, _other = rpki
        bu.issue_roa(Roa(111, [p("168.122.0.0/16")]))
        ta.publish_tree()
        point = repository.point_for("BU")
        names = set(point.names())
        assert {"BU.mft", "BU.crl", "BU.cer", "roa-0.roa"} <= names

    def test_repository_counts(self, rpki):
        repository, ta, _rir, _bu, _other = rpki
        ta.publish_tree()
        assert repository.total_objects() > 8
        assert "TA" in repository and "BU" in repository

    def test_republish_is_idempotent(self, rpki):
        repository, ta, _rir, bu, _other = rpki
        bu.issue_roa(Roa(111, [p("168.122.0.0/16")]))
        ta.publish_tree()
        ta.publish_tree()  # manifests reissued over the same contents
        run = scan_roas(repository, [ta.certificate], now=1_000)
        assert run.ok
        assert len(run.vrps) == 1
