"""Operational recommendations (paper §8, now RFC 9319 practice).

The paper closes by recommending that RIR interfaces steer operators
toward minimal, maxLength-free ROAs, warning "expert users" who insist
on maxLength about forged-origin subprefix hijacks.  This module is
that advice as code: a linter that inspects each ROA against the BGP
table and emits findings with severities and concrete fixes —
including the suggested minimal replacement ROA, optionally
pre-compressed with Algorithm 1 so the operator pays no PDU penalty.

Finding codes:

``VULNERABLE_MAXLENGTH``
    The §4 problem: an entry authorizes unannounced space.
``OWN_ROUTE_INVALID``
    The operator's own announcement fails validation under their ROA —
    the §3 misconfiguration (de-aggregating past maxLength, or past an
    exact-length ROA).
``UNUSED_ENTRY``
    Nothing the entry authorizes is announced; it only adds attack
    surface (or is a deliberate AS0-style block).
``REDUNDANT_ENTRY``
    Another entry of the same ROA already authorizes everything this
    one does.
``WIDE_MAXLENGTH``
    maxLength more than 8 bits past the prefix: even if currently
    minimal, a single withdrawn route reopens a huge surface.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Optional

from ..netbase.prefix import Prefix
from ..rpki.roa import Roa, RoaPrefix
from ..rpki.vrp import Vrp
from .compress import compress_vrps
from .minimal import (
    OriginIndex,
    OriginPair,
    announced_under,
    build_origin_index,
    minimal_roa_for,
)
from .vulnerability import announced_count_under

__all__ = [
    "Severity",
    "FindingCode",
    "Finding",
    "RoaReview",
    "lint_roa",
    "lint_roas",
]


class Severity(enum.IntEnum):
    """Ordered so max() over findings gives the headline severity."""

    INFO = 0
    WARNING = 1
    ERROR = 2


class FindingCode(str, enum.Enum):
    """Machine-readable identifiers for the §8 ROA-review findings."""

    VULNERABLE_MAXLENGTH = "vulnerable-maxlength"
    OWN_ROUTE_INVALID = "own-route-invalid"
    UNUSED_ENTRY = "unused-entry"
    REDUNDANT_ENTRY = "redundant-entry"
    WIDE_MAXLENGTH = "wide-maxlength"


@dataclass(frozen=True)
class Finding:
    """One problem (or note) about one ROA entry."""

    code: FindingCode
    severity: Severity
    entry: RoaPrefix
    message: str

    def __str__(self) -> str:
        return f"[{self.severity.name}] {self.entry}: {self.message}"


@dataclass(frozen=True)
class RoaReview:
    """The lint result for one ROA.

    Attributes:
        roa: the reviewed ROA.
        findings: all findings, ordered by entry.
        suggested: the recommended replacement — the minimal ROA
            covering exactly the announced-and-authorized routes,
            compressed with Algorithm 1 (None when the ROA authorizes
            nothing announced, or is already exactly the suggestion).
    """

    roa: Roa
    findings: tuple[Finding, ...]
    suggested: Optional[Roa]

    @property
    def severity(self) -> Severity:
        if not self.findings:
            return Severity.INFO
        return max(finding.severity for finding in self.findings)

    @property
    def ok(self) -> bool:
        return all(f.severity < Severity.ERROR for f in self.findings)

    def render(self) -> str:
        lines = [f"{self.roa}"]
        if not self.findings:
            lines.append("  clean: minimal and fully announced")
        for finding in self.findings:
            lines.append(f"  {finding}")
        if self.suggested is not None:
            lines.append(f"  suggested replacement: {self.suggested}")
        return "\n".join(lines)


def _suggest(roa: Roa, index: OriginIndex) -> Optional[Roa]:
    """The minimal replacement, compressed so it stays PDU-friendly."""
    minimal = minimal_roa_for(roa, index)
    if minimal is None:
        return None
    compressed = compress_vrps(minimal.vrps())
    suggested = Roa(
        roa.asn,
        [
            RoaPrefix(
                vrp.prefix,
                vrp.max_length if vrp.uses_max_length else None,
            )
            for vrp in compressed
        ],
    )
    if suggested == roa:
        return None
    return suggested


def lint_roa(
    roa: Roa,
    announced: Iterable[OriginPair] | OriginIndex,
    *,
    wide_maxlength_threshold: int = 8,
) -> RoaReview:
    """Review one ROA against the BGP table."""
    index = (
        announced
        if isinstance(announced, dict)
        else build_origin_index(announced)
    )
    findings: list[Finding] = []

    for entry in roa.prefixes:
        vrp = Vrp(entry.prefix, entry.effective_max_length, roa.asn)
        authorized = vrp.authorized_count()
        announced_here = announced_count_under(vrp, index)

        covered_by_other = any(
            other is not entry
            and other.prefix.covers(entry.prefix)
            and other.effective_max_length >= entry.effective_max_length
            for other in roa.prefixes
        )
        if covered_by_other:
            findings.append(
                Finding(
                    FindingCode.REDUNDANT_ENTRY,
                    Severity.WARNING,
                    entry,
                    "another entry of this ROA already authorizes it",
                )
            )
            continue

        if announced_here == 0:
            findings.append(
                Finding(
                    FindingCode.UNUSED_ENTRY,
                    Severity.WARNING,
                    entry,
                    f"AS{roa.asn} announces nothing this entry authorizes "
                    "(drop it, or keep it only as a deliberate block)",
                )
            )
        elif entry.uses_max_length and announced_here < authorized:
            gap = authorized - announced_here
            findings.append(
                Finding(
                    FindingCode.VULNERABLE_MAXLENGTH,
                    Severity.ERROR,
                    entry,
                    f"authorizes {gap} unannounced prefixes — each is a "
                    "forged-origin subprefix hijack target; enumerate the "
                    "announced prefixes instead",
                )
            )

        if (
            entry.effective_max_length - entry.prefix.length
            > wide_maxlength_threshold
        ):
            findings.append(
                Finding(
                    FindingCode.WIDE_MAXLENGTH,
                    Severity.WARNING,
                    entry,
                    f"maxLength {entry.effective_max_length} reaches "
                    f"{entry.effective_max_length - entry.prefix.length} bits "
                    "past the prefix; one withdrawn route reopens a large "
                    "attack surface",
                )
            )

        # The operator's own de-aggregation breaking under their ROA:
        # announced same-AS routes covered by this entry but longer
        # than its maxLength.
        family = entry.prefix.family
        for value, length in announced_under(index, roa.asn, entry.prefix):
            if length <= entry.effective_max_length:
                continue
            announced_prefix = Prefix(family, value, length)
            if not roa.authorizes(announced_prefix, roa.asn):
                findings.append(
                    Finding(
                        FindingCode.OWN_ROUTE_INVALID,
                        Severity.ERROR,
                        entry,
                        f"your own announcement {announced_prefix} is "
                        "RPKI-invalid under this ROA (covered but longer "
                        "than maxLength)",
                    )
                )

    suggested = None
    if any(f.severity >= Severity.WARNING for f in findings):
        suggested = _suggest(roa, index)
    return RoaReview(roa=roa, findings=tuple(findings), suggested=suggested)


def lint_roas(
    roas: Iterable[Roa], announced: Iterable[OriginPair]
) -> list[RoaReview]:
    """Review a whole RPKI's worth of ROAs against one BGP table.

    The table is indexed once, over the announcements of the ASes under
    review: every finding compares a ROA with routes of its own AS.
    """
    roa_list = list(roas)
    holders = {roa.asn for roa in roa_list}
    index = build_origin_index(
        pair for pair in announced if pair[1] in holders
    )
    return [lint_roa(roa, index) for roa in roa_list]
