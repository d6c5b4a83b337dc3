"""The RPKI substrate: objects, hierarchy, publication, validation.

Builds the full object chain of the real RPKI in simplified profiles:
resource certificates (RFC 6487/3779), ROAs (RFC 6482), manifests
(RFC 6486), CRLs, publication points, CAs, and the relying-party
validator that turns it all into Validated ROA Payloads (VRPs).
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "ca": ("CertificateAuthority", "DEFAULT_VALIDITY_SECONDS"),
    "cert": ("AsRange", "INHERIT", "ResourceCertificate"),
    "manifest": ("Crl", "Manifest", "sha256_hex"),
    "repository": (
        "ObjectKind", "PublicationPoint", "PublishedObject", "Repository",
    ),
    "roa": ("Roa", "RoaPrefix", "scan_roa_payloads"),
    "scan": ("scan_roas",),
    "signed_object": ("SignedObject",),
    "validator": ("RelyingParty", "ValidationIssue", "ValidationRun"),
    "vrp": ("Vrp", "parse_vrp", "sort_vrps"),
})
