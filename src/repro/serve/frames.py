"""Per-serial pre-encoded PDU frame caches.

The threaded toy server re-ran ``encode_pdu(vrp_to_pdu(v))`` over the
whole table for every router; at paper scale (hundreds of thousands of
VRPs, hundreds of routers) that is quadratic work for bytes that are
identical across clients.  Here each distinct response — the full-table
dump at serial *S*, the net diff from serial *A* to *B*, the Serial
Notify for *S* — is encoded **once** into an immutable ``bytes`` frame
and fanned out by reference.  A frame is also a single
``transport.write`` unit, which keeps concurrent writers (a data
stream and a racing notify) from interleaving mid-PDU.

Cache entries are keyed by serial and evicted in step with
:class:`~repro.rtr.session.CacheState` history, so memory stays
bounded by ``history_limit`` regardless of client count.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..rpki.vrp import sort_vrps
from ..rtr.pdu import (
    CacheResponsePdu,
    EndOfDataPdu,
    SerialNotifyPdu,
    encode_pdu,
    vrp_to_pdu,
)
from ..rtr.session import CacheState
from .metrics import ServeMetrics, ensure_metrics

__all__ = ["FrameCache"]


class FrameCache:
    """Encode-once, send-many wire frames for one :class:`CacheState`.

    All lookups are answered against the state's *current* serial; a
    concurrent update simply changes which frames get built next.  The
    cache never hands out partial frames: a frame is built completely
    before it is stored or returned.
    """

    def __init__(
        self,
        state: CacheState,
        *,
        metrics: Optional[ServeMetrics] = None,
    ) -> None:
        self.state = state
        self.metrics = ensure_metrics(metrics)
        self._full: Dict[int, Tuple[bytes, int]] = {}    # serial -> (frame, pdus)
        self._diff: Dict[Tuple[int, int], Tuple[bytes, int]] = {}
        self._notify: Dict[int, bytes] = {}

    # ------------------------------------------------------------------
    # Frame builders
    # ------------------------------------------------------------------

    def full_table(self) -> Tuple[bytes, int]:
        """(frame, pdu_count) answering a Reset Query at the current serial."""
        serial = self.state.serial
        cached = self._full.get(serial)
        if cached is not None:
            self.metrics.increment("frame_hits")
            return cached
        parts = [encode_pdu(CacheResponsePdu(self.state.session_id))]
        for vrp in sort_vrps(self.state.vrps):
            parts.append(encode_pdu(vrp_to_pdu(vrp, announce=True)))
        parts.append(encode_pdu(
            EndOfDataPdu(self.state.session_id, serial)))
        frame = (b"".join(parts), len(parts))
        self.metrics.increment("frame_encodes")
        self._full[serial] = frame
        self._evict()
        return frame

    def diff(self, from_serial: int) -> Optional[Tuple[bytes, int]]:
        """(frame, pdu_count) for a Serial Query at ``from_serial``.

        None means history no longer reaches back that far and the
        router must be sent Cache Reset instead.
        """
        serial = self.state.serial
        key = (from_serial, serial)
        cached = self._diff.get(key)
        if cached is not None:
            self.metrics.increment("frame_hits")
            return cached
        diffs = self.state.diff_since(from_serial)
        if diffs is None:
            return None
        net = self.state.flatten_diffs(diffs)
        parts = [encode_pdu(CacheResponsePdu(self.state.session_id))]
        for vrp in net.announced:
            parts.append(encode_pdu(vrp_to_pdu(vrp, announce=True)))
        for vrp in net.withdrawn:
            parts.append(encode_pdu(vrp_to_pdu(vrp, announce=False)))
        parts.append(encode_pdu(
            EndOfDataPdu(self.state.session_id, serial)))
        frame = (b"".join(parts), len(parts))
        self.metrics.increment("frame_encodes")
        self._diff[key] = frame
        self._evict()
        return frame

    def notify(self) -> bytes:
        """The Serial Notify frame for the current serial."""
        serial = self.state.serial
        frame = self._notify.get(serial)
        if frame is None:
            frame = encode_pdu(
                SerialNotifyPdu(self.state.session_id, serial))
            self.metrics.increment("frame_encodes")
            self._notify[serial] = frame
            self._evict()
        else:
            self.metrics.increment("frame_hits")
        return frame

    # ------------------------------------------------------------------
    # Eviction
    # ------------------------------------------------------------------

    def _evict(self) -> None:
        """Drop frames no future request can ever hit.

        Every lookup is keyed on the *current* serial (serials are
        monotonic), so frames built for any older serial — full table,
        diff end-point, or notify — are unreachable the moment an
        update lands.  Only the current serial's frames survive; the
        big full-table frame therefore exists at most once.  Frames
        mid-write stay alive through the writer's own reference.
        """
        current = self.state.serial
        for serial in [s for s in self._full if s != current]:
            del self._full[serial]
        for serial in [s for s in self._notify if s != current]:
            del self._notify[serial]
        for key in [k for k in self._diff if k[1] != current]:
            del self._diff[key]
