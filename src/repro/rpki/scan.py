"""``scan_roas`` — turn validated ROAs into router-ready tuples.

The RPKI Relying Party tools ship a utility of this name that converts a
directory of cryptographically validated ROAs into (IP prefix,
maxLength, origin AS) tuples; the paper's ``compress_roas`` is a drop-in
replacement that post-processes its output (§7.1).  The fast path for
payloads with no crypto envelope (the synthetic datasets) is
:func:`~repro.rpki.roa.scan_roa_payloads`, which loads no signed object.
"""

from __future__ import annotations

from .cert import ResourceCertificate
from .repository import Repository
from .validator import RelyingParty, ValidationRun

__all__ = ["scan_roas"]


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

