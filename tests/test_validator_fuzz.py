"""Adversarial fuzzing of the relying party.

The security property behind everything else: **no byte-level tampering
with a published repository may ever produce a VRP the honest
repository did not authorize.**  Corruption may (and usually will)
invalidate objects — that's availability, the RPKI's known weak spot —
but it must never manufacture authorization.

We flip random bits/bytes in random published objects and re-validate,
asserting the resulting VRP set is always a subset of the honest one.
"""

from __future__ import annotations

import random

import pytest

from repro.netbase import Prefix
from repro.rpki import (
    AsRange,
    CertificateAuthority,
    ObjectKind,
    Repository,
    Roa,
    RoaPrefix,
    scan_roas,
)


pytestmark = pytest.mark.usefixtures("seeded_keys")


def p(text: str) -> Prefix:
    return Prefix.parse(text)


@pytest.fixture(scope="module")
def honest_world():
    rng = random.Random(77)
    repository = Repository()
    ta = CertificateAuthority.create_trust_anchor(
        "TA", repository, ip_resources=(p("0.0.0.0/0"), p("::/0")),
        as_resources=(AsRange(0, 2**32 - 1),), rng=rng, now=100,
    )
    rir = ta.issue_child("RIR", ip_resources=(p("10.0.0.0/8"), p("2a00::/12")))
    org_a = rir.issue_child("ORG-A", ip_resources=(p("10.1.0.0/16"),))
    org_b = rir.issue_child("ORG-B", ip_resources=(p("10.2.0.0/16"), p("2a00::/16")))
    org_a.issue_roa(Roa(64500, [RoaPrefix(p("10.1.0.0/16"), 24)]))
    org_a.issue_roa(Roa(64501, [p("10.1.64.0/18"), p("10.1.128.0/18")]))
    org_b.issue_roa(Roa(64502, [RoaPrefix(p("10.2.0.0/16"))]))
    org_b.issue_roa(Roa(64503, [RoaPrefix(p("2a00::/16"), 32)]))
    ta.publish_tree()
    run = scan_roas(repository, [ta.certificate], now=100)
    assert run.ok
    return repository, ta, frozenset(run.vrps)


def _clone_repository(repository: Repository) -> Repository:
    clone = Repository()
    for point in repository.points():
        target = clone.point_for(point.authority)
        for obj in point.objects():
            target.publish(obj.name, obj.kind, obj.data)
    return clone


def _all_objects(repository: Repository):
    return [
        (point.authority, obj)
        for point in repository.points()
        for obj in point.objects()
    ]


class TestTamperFuzz:
    @pytest.mark.parametrize("trial", range(40))
    def test_single_bit_flip_never_adds_authorization(self, honest_world, trial):
        repository, ta, honest_vrps = honest_world
        rng = random.Random(1000 + trial)
        clone = _clone_repository(repository)
        authority, obj = rng.choice(_all_objects(clone))
        data = bytearray(obj.data)
        bit = rng.randrange(len(data) * 8)
        data[bit // 8] ^= 1 << (bit % 8)
        clone.point_for(authority).publish(obj.name, obj.kind, bytes(data))

        run = scan_roas(clone, [ta.certificate], now=100)
        assert set(run.vrps) <= honest_vrps, (
            f"bit flip in {authority}/{obj.name} manufactured VRPs: "
            f"{set(run.vrps) - honest_vrps}"
        )

    @pytest.mark.parametrize("trial", range(15))
    def test_chunk_corruption_never_adds_authorization(self, honest_world, trial):
        repository, ta, honest_vrps = honest_world
        rng = random.Random(2000 + trial)
        clone = _clone_repository(repository)
        for _ in range(rng.randint(1, 3)):
            authority, obj = rng.choice(_all_objects(clone))
            data = bytearray(obj.data)
            start = rng.randrange(max(len(data) - 8, 1))
            for index in range(start, min(start + 8, len(data))):
                data[index] = rng.randrange(256)
            clone.point_for(authority).publish(obj.name, obj.kind, bytes(data))

        run = scan_roas(clone, [ta.certificate], now=100)
        assert set(run.vrps) <= honest_vrps

    def test_object_swap_between_points_never_adds(self, honest_world):
        """Republishing ORG-B's ROA at ORG-A's point must not validate
        (wrong issuer) nor create new authorizations."""
        repository, ta, honest_vrps = honest_world
        clone = _clone_repository(repository)
        org_b_roa = clone.point_for("ORG-B").get("roa-0.roa")
        assert org_b_roa is not None
        clone.point_for("ORG-A").publish(
            "smuggled.roa", ObjectKind.ROA, org_b_roa.data
        )
        run = scan_roas(clone, [ta.certificate], now=100)
        assert set(run.vrps) <= honest_vrps
        assert not run.ok  # the smuggled object must at least be flagged

    def test_truncation_never_adds(self, honest_world):
        repository, ta, honest_vrps = honest_world
        rng = random.Random(3)
        clone = _clone_repository(repository)
        for _ in range(3):
            authority, obj = rng.choice(_all_objects(clone))
            cut = rng.randrange(1, len(obj.data))
            clone.point_for(authority).publish(obj.name, obj.kind, obj.data[:cut])
        run = scan_roas(clone, [ta.certificate], now=100)
        assert set(run.vrps) <= honest_vrps
