"""``scan_roas`` — turn validated ROAs into router-ready tuples.

The RPKI Relying Party tools ship a utility of this name that converts a
directory of cryptographically validated ROAs into (IP prefix,
maxLength, origin AS) tuples; the paper's ``compress_roas`` is a drop-in
replacement that post-processes its output (§7.1).  This module provides
the same two entry points our pipeline composes:

* :func:`scan_roas` — full path: validate a repository, emit VRPs.
* :func:`scan_roa_payloads` — fast path: payload objects straight to
  VRPs, used by the synthetic measurement datasets where the crypto
  envelope has already been stripped.
"""

from __future__ import annotations

from typing import Iterable

from .cert import ResourceCertificate
from .repository import Repository
from .roa import Roa
from .validator import RelyingParty, ValidationRun
from .vrp import Vrp, sort_vrps

__all__ = ["scan_roas", "scan_roa_payloads"]


def scan_roas(
    repository: Repository,
    trust_anchors: list[ResourceCertificate],
    *,
    now: int = 0,
) -> ValidationRun:
    """Validate ``repository`` and return the run (VRPs + issues).

    The VRP list in the result is what the local cache would feed to the
    RTR server — and what ``compress_roas`` takes as input.
    """
    return RelyingParty(repository, trust_anchors, now=now).validate()


def scan_roa_payloads(roas: Iterable[Roa]) -> list[Vrp]:
    """Convert already-validated ROA payloads to a sorted VRP list.

    Duplicate tuples are collapsed: two ROAs authorizing the same
    (prefix, maxLength, ASN) yield one VRP, matching how RTR caches
    deduplicate announcements.
    """
    unique: set[Vrp] = set()
    for roa in roas:
        unique.update(roa.vrps())
    return sort_vrps(unique)
