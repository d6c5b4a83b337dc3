"""RFC 6811 origin-validation as a queryable service.

Routers normally validate locally from the table they learned over
RTR; the paper's local cache (Figure 1) can just as well answer the
question directly — "is (prefix, origin AS) valid under the current
ROA set?" — for monitoring consoles, looking-glass tooling, or
software routers that prefer an RPC to a full table.  This module is
that answerer: an immutable VRP snapshot (a
:class:`~repro.bgp.origin_validation.VrpIndex`, one hash table per
address family) with single-shot and batch lookup APIs.
:mod:`repro.serve.http` puts it on the wire.

Beyond the three RFC 6811 states, results carry a *reason* telling the
operator **why** a route is invalid — announced length beyond every
matching ROA's maxLength (``invalid-length``, the paper's §4 loose-ROA
territory) versus no covering ROA authorizing that origin at all
(``invalid-origin``, the forged-origin signature).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..bgp.origin_validation import ValidationState, VrpIndex
from ..netbase.prefix import Prefix
from ..rpki.vrp import Vrp
from .metrics import ServeMetrics, ensure_metrics

__all__ = ["ValidityResult", "QueryService"]

#: reason strings, fixed vocabulary for the JSON API
REASON_MATCHED = "matched"
REASON_INVALID_LENGTH = "invalid-length"
REASON_INVALID_ORIGIN = "invalid-origin"
REASON_NOT_FOUND = "not-found"

#: :meth:`QueryService.reload` applies the VRP delta to the index it
#: holds while the delta is at most this share of the incoming table,
#: and builds a fresh index beyond it.  Measured at 10.5k VRPs (scale
#: 0.25, min of 9, 2-core x86-64, CPython 3.11), a changed VRP of a 1 %
#: delta costs ~1.6 us to apply and a fresh build ~1.6 us per VRP held,
#: so the two meet near 1.0 of the table.  A changed VRP costs more in
#: a large delta: timed whole, the two meet near 0.85, so below 0.75
#: the delta path wins.
_REBUILD_FRACTION = 0.75


@dataclass(frozen=True)
class ValidityResult:
    """The full story of one origin-validation decision."""

    prefix: Prefix
    asn: int
    state: ValidationState
    reason: str
    matched: Optional[Vrp]          # the VRP that made it valid
    covering: Tuple[Vrp, ...]       # every covering VRP consulted

    def to_json(self) -> Dict[str, object]:
        return {
            "prefix": str(self.prefix),
            "asn": self.asn,
            "state": self.state.value,
            "reason": self.reason,
            "matched": str(self.matched) if self.matched else None,
            "covering": [str(vrp) for vrp in self.covering],
        }


class QueryService:
    """Answer ``validity(asn, prefix)`` against a VRP snapshot.

    The snapshot is the router-side index itself — a
    :class:`~repro.bgp.origin_validation.VrpIndex` (per-family hash
    tables of sorted VRP buckets, duplicates dropped) — and is never
    mutated in place, so lookups need no locking: a :meth:`reload`
    derives the next index from the current one (each family the delta
    touches is copied and the copy edited, the others are shared) and
    swaps the reference, leaving in-flight queries on the old (still
    consistent) snapshot.  Answers depend on the table alone: a
    service reloaded any number of times answers exactly like one
    constructed over its latest table.
    """

    def __init__(
        self,
        vrps: Iterable[Vrp] = (),
        *,
        metrics: Optional[ServeMetrics] = None,
    ) -> None:
        self.metrics = ensure_metrics(metrics)
        self._index = VrpIndex()
        self._table: frozenset[Vrp] = frozenset()
        self.serial: Optional[int] = None
        self.reload(vrps)

    def __len__(self) -> int:
        return len(self._index)

    def reload(self, vrps: Iterable[Vrp], *, serial: Optional[int] = None) -> int:
        """Atomically replace the snapshot; returns the VRP count.

        ``vrps`` is the whole new table.  Beyond putting it in a set,
        the work is one C-level dict copy per address family the change
        touches plus work in proportion to how much of it differs from
        the table already held.
        """
        table = frozenset(vrps)
        announced = table - self._table
        withdrawn = self._table - table
        if len(announced) + len(withdrawn) > _REBUILD_FRACTION * len(table):
            index = VrpIndex(table)
        else:
            index = self._index.updated(announced, withdrawn)
        self._index = index
        self._table = table
        self.serial = serial
        return len(index)

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------

    def validity(self, asn: int, prefix: Prefix) -> ValidityResult:
        """RFC 6811 validation of one (origin AS, prefix) pair."""
        started = time.perf_counter()
        result = self._decide(asn, prefix, self._index)
        self.metrics.observe_query(time.perf_counter() - started)
        return result

    def validity_batch(
        self, queries: Sequence[Tuple[int, Prefix]]
    ) -> List[ValidityResult]:
        """In-process batch API: one timing observation per query, one
        snapshot for the whole batch (results are mutually consistent
        even if a reload lands mid-flight)."""
        index = self._index
        started = time.perf_counter()
        results = [self._decide(asn, prefix, index) for asn, prefix in queries]
        elapsed = time.perf_counter() - started
        if queries:
            self.metrics.observe_queries(elapsed / len(queries), len(queries))
        self.metrics.increment("batch_queries")
        return results

    def _decide(
        self, asn: int, prefix: Prefix, index: VrpIndex
    ) -> ValidityResult:
        covering = list(index.covering(prefix))
        if not covering:
            return ValidityResult(prefix, asn, ValidationState.NOTFOUND,
                                  REASON_NOT_FOUND, None, ())
        origin_seen = False
        for vrp in covering:
            if vrp.asn == asn:
                if prefix.length <= vrp.max_length:
                    return ValidityResult(prefix, asn, ValidationState.VALID,
                                          REASON_MATCHED, vrp, tuple(covering))
                origin_seen = True
        reason = REASON_INVALID_LENGTH if origin_seen else REASON_INVALID_ORIGIN
        return ValidityResult(prefix, asn, ValidationState.INVALID,
                              reason, None, tuple(covering))
