"""The §6 measurement suite: every in-text number of the paper.

Given one snapshot (VRPs + BGP table), computes:

* the maxLength-usage fraction (paper: ~12% of ROA prefixes);
* the vulnerable fraction among maxLength users (paper: 84%);
* the "additional prefixes" a minimal conversion needs (paper: 13K,
  a 33% PDU increase);
* the maximally-permissive full-deployment bound (paper: 729,371 of
  776,945 — 6.2% maximum compression);
* what ``compress_roas`` actually achieves against that bound (6.1%).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from ..core.counts import pdu_counts
from ..core.minimal import OriginPair, minimal_pairs
from ..core.vulnerability import VulnerabilityReport, analyze_vrps
from ..rpki.vrp import Vrp

__all__ = ["Section6Measurements", "measure_section6"]


@dataclass(frozen=True)
class Section6Measurements:
    """All §6 statistics for one dataset.

    Attribute names follow the narrative order of the section.
    """

    vulnerability: VulnerabilityReport
    status_quo_pdus: int
    minimal_pdus: int
    additional_prefixes: int
    announced_pairs: int
    full_deployment_pdus: int
    full_deployment_bound: int
    full_deployment_compressed: int

    @property
    def pdu_increase_fraction(self) -> float:
        """PDU growth if today's RPKI went minimal (paper: ~33%)."""
        if not self.status_quo_pdus:
            return 0.0
        return (self.minimal_pdus - self.status_quo_pdus) / self.status_quo_pdus

    @property
    def max_compression_fraction(self) -> float:
        """The bound's compression of the full table (paper: 6.2%)."""
        if not self.full_deployment_pdus:
            return 0.0
        return (
            self.full_deployment_pdus - self.full_deployment_bound
        ) / self.full_deployment_pdus

    @property
    def achieved_compression_fraction(self) -> float:
        """What compress_roas achieves in full deployment (paper: 6.1%)."""
        if not self.full_deployment_pdus:
            return 0.0
        return (
            self.full_deployment_pdus - self.full_deployment_compressed
        ) / self.full_deployment_pdus

    def summary_lines(self) -> list[str]:
        """The section's findings, one measurement per line."""
        v = self.vulnerability
        return [
            f"prefixes in ROAs: {v.total_vrps}",
            (
                f"with maxLength > prefix length: {v.maxlength_vrps} "
                f"({100 * v.maxlength_fraction:.1f}%)"
            ),
            (
                f"of those, vulnerable to forged-origin subprefix hijacks: "
                f"{v.vulnerable_vrps} "
                f"({100 * v.vulnerable_fraction_of_maxlength:.1f}%)"
            ),
            (
                f"additional prefixes for minimal ROAs: "
                f"{self.additional_prefixes} "
                f"(PDU increase {100 * self.pdu_increase_fraction:.0f}%)"
            ),
            f"announced (prefix, AS) pairs: {self.announced_pairs}",
            (
                f"full-deployment PDUs {self.full_deployment_pdus}, "
                f"max-permissive bound {self.full_deployment_bound} "
                f"(max compression {100 * self.max_compression_fraction:.1f}%)"
            ),
            (
                f"compress_roas achieves {self.full_deployment_compressed} "
                f"({100 * self.achieved_compression_fraction:.1f}%)"
            ),
        ]


def measure_section6(
    vrps: Iterable[Vrp], announced: Iterable[OriginPair]
) -> Section6Measurements:
    """Compute every §6 measurement for one dataset."""
    vrp_list = list(vrps)
    announced_list = list(announced)

    vulnerability = analyze_vrps(vrp_list, announced_list)
    minimal = minimal_pairs(vrp_list, announced_list)
    existing = {(vrp.prefix, vrp.asn) for vrp in vrp_list}
    full_pdus, full_compressed, full_bound = pdu_counts(announced_list)
    return Section6Measurements(
        vulnerability=vulnerability,
        status_quo_pdus=len(vrp_list),
        minimal_pdus=len(minimal),
        additional_prefixes=len(minimal - existing),
        announced_pairs=full_pdus,
        full_deployment_pdus=full_pdus,
        full_deployment_bound=full_bound,
        full_deployment_compressed=full_compressed,
    )
