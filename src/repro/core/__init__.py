"""The paper's contribution: compression, minimality, vulnerability.

* :mod:`repro.core.compress` — Algorithm 1 (``compress_roas``) plus an
  optimal-compression extension.
* :mod:`repro.core.minimal` — minimal-ROA conversion (§6/§7 scenarios).
* :mod:`repro.core.vulnerability` — forged-origin subprefix hijack
  classification (§4, §6).
* :mod:`repro.core.bounds` — maximally-permissive lower bound (§6).
* :mod:`repro.core.pipeline` — the Figure 1 local-cache pipeline.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "bounds": ("lower_bound_pdu_count", "maximally_permissive_vrps"),
    # Vrp is defined in repro.rpki.vrp; compress takes and returns it.
    "compress": (
        "CompressionStats", "Vrp", "build_tries", "compress_group",
        "compress_vrps", "compress_vrps_optimal",
    ),
    "minimal": (
        "OriginPair", "additional_prefix_count", "build_origin_index",
        "minimal_roa_for", "to_minimal_vrps",
    ),
    "pipeline": ("LocalCache",),
    "recommend": (
        "Finding", "FindingCode", "RoaReview", "Severity", "lint_roa",
        "lint_roas",
    ),
    "vulnerability": (
        "VulnerabilityReport", "analyze_vrps", "announced_count_under",
        "hijackable_prefixes", "is_minimal", "is_vulnerable",
    ),
})
