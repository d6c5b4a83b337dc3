"""PDU counts of a pair set: Table 1's rows without building them.

Table 1's full-deployment rows, §6's summary and Figure 3 only ever
take ``len()`` of three VRP lists built from a set of exact-length
(prefix, origin AS) pairs: the maxLength-free VRPs themselves, those
VRPs after ``compress_roas`` (Algorithm 1), and the maximally-
permissive bound.  :func:`pdu_counts` computes the three counts on one
integer grouping (:func:`~repro.core.compress.group_pairs`) and never
builds a ``Vrp``; the functions that return VRPs
(:func:`~repro.core.compress.compress_vrps`,
:func:`~repro.core.bounds.maximally_permissive_vrps`) run the same
sweep and the same scan.
"""

from __future__ import annotations

from typing import Iterable

from .bounds import uncovered_keys
from .compress import _WIDTH, compress_group, group_pairs
from .minimal import OriginPair

__all__ = ["pdu_counts"]


def pdu_counts(pairs: Iterable[OriginPair]) -> tuple[int, int, int]:
    """``(PDUs, compressed PDUs, bound)`` for exact-length pairs.

    * PDUs: one maxLength-free VRP per distinct pair (a minimal ROA);
    * compressed: ``len(compress_vrps(those VRPs))``;
    * bound: ``lower_bound_pdu_count(pairs)``, the maximally-permissive
      lower bound.
    """
    groups = group_pairs(pairs)
    pdus = sum(map(len, groups.values()))
    bound = sum(1 for _ in uncovered_keys(groups))  # before the sweep edits
    for (_origin, family), group in groups.items():
        compress_group(group, _WIDTH[family])
    compressed = sum(map(len, groups.values()))
    return pdus, compressed, bound
