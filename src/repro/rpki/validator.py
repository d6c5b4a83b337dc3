"""The relying party: validates a repository into a VRP set.

This is the "local cache" of Figure 1 in the paper.  Starting from one
or more trust anchors it walks the CA hierarchy, checking at every step:

* certificate signatures chain to the trust anchor;
* validity windows contain the evaluation time;
* serials are not revoked by the issuer's current CRL;
* manifests are signed, current, and hash-consistent with the
  publication point (substituted or missing files are flagged);
* RFC 3779 resource containment: a child's resources nest inside its
  issuer's (with ``inherit`` resolved along the chain);
* ROA end-entity certificates cover the ROA's prefixes (RFC 6482 §4).

Objects that fail any check are recorded as :class:`ValidationIssue` and
(in the default lenient mode) skipped; strict mode raises on first
failure.  The output is the set of Validated ROA Payloads the cache
would push to routers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..netbase.errors import ReproError, ValidationError
from ..netbase.prefix import Prefix
from .cert import INHERIT, AsRange, ResourceCertificate
from .manifest import Crl, Manifest, sha256_hex
from .oids import OID_ROA_ECONTENT
from .repository import ObjectKind, Repository
from .roa import Roa
from .signed_object import SignedObject
from .vrp import Vrp

__all__ = ["ValidationIssue", "ValidationRun", "RelyingParty"]


@dataclass(frozen=True)
class ValidationIssue:
    """One problem found while validating a publication point."""

    authority: str
    object_name: str
    reason: str

    def __str__(self) -> str:
        return f"[{self.authority}] {self.object_name}: {self.reason}"


@dataclass
class ValidationRun:
    """The outcome of one relying-party pass.

    Attributes:
        vrps: all validated ROA payloads, sorted.
        roas: the decoded ROA payloads behind those VRPs.
        issues: every problem encountered (lenient mode collects them).
        cas_seen / roas_seen: traversal counters for reporting.
    """

    vrps: list[Vrp] = field(default_factory=list)
    roas: list[Roa] = field(default_factory=list)
    issues: list[ValidationIssue] = field(default_factory=list)
    cas_seen: int = 0
    roas_seen: int = 0

    @property
    def ok(self) -> bool:
        return not self.issues


@dataclass(frozen=True)
class _ResourceContext:
    """Effective (inherit-resolved) resources at a point in the chain."""

    ip_resources: tuple[Prefix, ...]
    as_resources: tuple[AsRange, ...]

    def resolve(self, cert: ResourceCertificate) -> "_ResourceContext":
        ip = (
            self.ip_resources
            if cert.ip_resources == INHERIT
            else cert.ip_resources
        )
        as_ = (
            self.as_resources
            if cert.as_resources == INHERIT
            else cert.as_resources
        )
        return _ResourceContext(ip, as_)  # type: ignore[arg-type]

    def covers_prefixes(self, prefixes: tuple[Prefix, ...]) -> bool:
        return all(
            any(block.covers(p) for block in self.ip_resources) for p in prefixes
        )


class RelyingParty:
    """Validates a :class:`Repository` from a set of trust anchors."""

    def __init__(
        self,
        repository: Repository,
        trust_anchors: list[ResourceCertificate],
        *,
        now: int = 0,
        strict: bool = False,
    ) -> None:
        self.repository = repository
        self.trust_anchors = trust_anchors
        self.now = now
        self.strict = strict

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------

    def validate(self) -> ValidationRun:
        """Walk every trust anchor; returns the merged validation run."""
        run = ValidationRun()
        for anchor in self.trust_anchors:
            if not anchor.verify_signature(anchor.public_key):
                self._issue(run, anchor.subject, f"{anchor.subject}.cer",
                            "trust anchor is not properly self-signed")
                continue
            if not anchor.valid_at(self.now):
                self._issue(run, anchor.subject, f"{anchor.subject}.cer",
                            "trust anchor certificate expired or not yet valid")
                continue
            if anchor.ip_resources == INHERIT or anchor.as_resources == INHERIT:
                self._issue(run, anchor.subject, f"{anchor.subject}.cer",
                            "trust anchor cannot inherit resources")
                continue
            context = _ResourceContext(
                anchor.ip_resources, anchor.as_resources  # type: ignore[arg-type]
            )
            self._validate_ca(run, anchor, context, visited=set())
        run.vrps.sort()
        return run

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _issue(self, run: ValidationRun, authority: str, name: str,
               reason: str) -> None:
        issue = ValidationIssue(authority, name, reason)
        if self.strict:
            raise ValidationError(str(issue))
        run.issues.append(issue)

    def _load_manifest_and_crl(
        self, run: ValidationRun, ca_cert: ResourceCertificate
    ) -> tuple[Optional[Manifest], Optional[Crl]]:
        name = ca_cert.subject
        point = self.repository.point_for(name)

        manifest: Optional[Manifest] = None
        manifest_obj = point.get(f"{name}.mft")
        if manifest_obj is None:
            self._issue(run, name, f"{name}.mft", "manifest missing")
        else:
            try:
                manifest = Manifest.from_der(manifest_obj.data)
            except ReproError as exc:
                self._issue(run, name, f"{name}.mft", f"undecodable: {exc}")
            if manifest is not None:
                if not manifest.verify_signature(ca_cert.public_key):
                    self._issue(run, name, f"{name}.mft", "bad manifest signature")
                    manifest = None
                elif not manifest.valid_at(self.now):
                    self._issue(run, name, f"{name}.mft", "manifest stale")
                    manifest = None

        crl: Optional[Crl] = None
        crl_obj = point.get(f"{name}.crl")
        if crl_obj is None:
            self._issue(run, name, f"{name}.crl", "CRL missing")
        else:
            try:
                crl = Crl.from_der(crl_obj.data)
            except ReproError as exc:
                self._issue(run, name, f"{name}.crl", f"undecodable: {exc}")
            if crl is not None:
                if not crl.verify_signature(ca_cert.public_key):
                    self._issue(run, name, f"{name}.crl", "bad CRL signature")
                    crl = None
                elif not crl.valid_at(self.now):
                    self._issue(run, name, f"{name}.crl", "CRL stale")
                    crl = None

        if manifest is not None:
            for entry_name, entry_digest in manifest.entries:
                published = point.get(entry_name)
                if published is None:
                    self._issue(run, name, entry_name,
                                "listed in manifest but missing from repository")
                elif sha256_hex(published.data) != entry_digest:
                    self._issue(run, name, entry_name,
                                "hash mismatch with manifest (substituted?)")
        return manifest, crl

    def _validate_ca(
        self,
        run: ValidationRun,
        ca_cert: ResourceCertificate,
        context: _ResourceContext,
        visited: set[str],
    ) -> None:
        name = ca_cert.subject
        if name in visited:
            self._issue(run, name, f"{name}.cer", "CA cycle detected")
            return
        visited.add(name)
        run.cas_seen += 1

        if name not in self.repository:
            # A CA with no publication point issues nothing; not an error.
            return
        point = self.repository.point_for(name)
        manifest, crl = self._load_manifest_and_crl(run, ca_cert)

        for obj in point.objects():
            if obj.name in (f"{name}.mft", f"{name}.crl", f"{name}.cer"):
                continue
            if manifest is not None and not manifest.lists(obj.name, obj.data):
                self._issue(run, name, obj.name,
                            "not listed in manifest (or hash mismatch)")
                continue
            if obj.kind == ObjectKind.CERTIFICATE:
                self._validate_child_cert(run, ca_cert, context, crl, obj.name,
                                          obj.data, visited)
            elif obj.kind == ObjectKind.ROA:
                self._validate_roa_object(run, ca_cert, context, crl, obj.name,
                                          obj.data)

    def _validate_child_cert(
        self,
        run: ValidationRun,
        ca_cert: ResourceCertificate,
        context: _ResourceContext,
        crl: Optional[Crl],
        obj_name: str,
        data: bytes,
        visited: set[str],
    ) -> None:
        name = ca_cert.subject
        try:
            child = ResourceCertificate.from_der(data)
        except ReproError as exc:
            self._issue(run, name, obj_name, f"undecodable certificate: {exc}")
            return
        if not child.is_ca:
            # EE certificates only appear inside signed objects.
            self._issue(run, name, obj_name, "stray EE certificate")
            return
        if not child.verify_signature(ca_cert.public_key):
            self._issue(run, name, obj_name, "bad certificate signature")
            return
        if not child.valid_at(self.now):
            self._issue(run, name, obj_name, "certificate expired or not yet valid")
            return
        if crl is not None and crl.revokes(child.serial):
            self._issue(run, name, obj_name, f"serial {child.serial} revoked")
            return
        if not child.resources_within(ca_cert):
            self._issue(run, name, obj_name,
                        "over-claiming: child resources exceed issuer's")
            return
        child_context = context.resolve(child)
        self._validate_ca(run, child, child_context, visited)

    def _validate_roa_object(
        self,
        run: ValidationRun,
        ca_cert: ResourceCertificate,
        context: _ResourceContext,
        crl: Optional[Crl],
        obj_name: str,
        data: bytes,
    ) -> None:
        name = ca_cert.subject
        run.roas_seen += 1
        try:
            signed = SignedObject.from_der(data)
        except ReproError as exc:
            self._issue(run, name, obj_name, f"undecodable signed object: {exc}")
            return
        if signed.econtent_type != OID_ROA_ECONTENT:
            self._issue(run, name, obj_name, "wrong eContentType for a ROA")
            return
        ee = signed.ee_cert
        if ee.is_ca:
            self._issue(run, name, obj_name, "ROA signed by a CA certificate")
            return
        if not ee.verify_signature(ca_cert.public_key):
            self._issue(run, name, obj_name, "EE certificate not signed by this CA")
            return
        if not ee.valid_at(self.now):
            self._issue(run, name, obj_name, "EE certificate expired")
            return
        if crl is not None and crl.revokes(ee.serial):
            self._issue(run, name, obj_name, f"EE serial {ee.serial} revoked")
            return
        if not signed.verify():
            self._issue(run, name, obj_name, "bad signature over eContent")
            return
        try:
            roa = Roa.from_econtent(signed.econtent)
        except ReproError as exc:
            self._issue(run, name, obj_name, f"bad ROA eContent: {exc}")
            return
        roa_prefixes = tuple(entry.prefix for entry in roa.prefixes)
        ee_context = context.resolve(ee)
        if not ee.covers_prefixes(roa_prefixes) and ee.ip_resources != INHERIT:
            self._issue(run, name, obj_name,
                        "ROA prefixes not covered by EE certificate resources")
            return
        if not ee_context.covers_prefixes(roa_prefixes):
            self._issue(run, name, obj_name,
                        "ROA prefixes exceed the CA chain's resources")
            return
        run.roas.append(roa)
        run.vrps.extend(roa.vrps())
