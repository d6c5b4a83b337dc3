"""The local-cache pipeline: Figure 1 of the paper, end to end.

    RPKI repositories --> relying-party validation --> scan_roas
        --> (optional) compress_roas --> RTR cache --> routers

:class:`LocalCache` composes the pieces: it validates a repository (or
accepts pre-validated VRPs), optionally compresses the tuple list with
Algorithm 1, and serves the result to routers over RPKI-to-Router.
``compress_roas`` was designed as a drop-in for this exact seam —
"Because it runs on the local cache, our software requires no changes
to routers and conforms with today's RPKI architecture" (§7.1).
"""

from __future__ import annotations

from typing import Iterable, Optional

from ..rpki.cert import ResourceCertificate
from ..rpki.repository import Repository
from ..rpki.scan import scan_roas
from ..rpki.validator import ValidationRun
from ..rpki.vrp import Vrp, sort_vrps
from ..serve.rtr_async import ThreadedRtrServer
from .compress import CompressionStats, compress_vrps

__all__ = ["LocalCache"]


class LocalCache:
    """An AS's trusted local cache (a general-purpose machine, per §6).

    Args:
        compress: when True, run ``compress_roas`` on every refresh
            before handing PDUs to routers.

    Use :meth:`refresh_from_repository` (full crypto path) or
    :meth:`refresh_from_vrps` (pre-validated tuples), then either read
    :attr:`pdus` directly or :meth:`serve` them over RTR.
    """

    def __init__(self, *, compress: bool = False) -> None:
        self.compress = compress
        self._pdus: list[Vrp] = []
        self._raw_count = 0
        self._last_run: Optional[ValidationRun] = None
        self._server: Optional[ThreadedRtrServer] = None

    # ------------------------------------------------------------------
    # Refresh
    # ------------------------------------------------------------------

    def refresh_from_repository(
        self,
        repository: Repository,
        trust_anchors: list[ResourceCertificate],
        *,
        now: int = 0,
    ) -> ValidationRun:
        """Validate the repository and rebuild the PDU list."""
        run = scan_roas(repository, trust_anchors, now=now)
        self._last_run = run
        self._install(run.vrps)
        return run

    def refresh_from_vrps(self, vrps: Iterable[Vrp]) -> None:
        """Skip crypto: install an externally validated tuple list."""
        self._install(list(vrps))

    def _install(self, vrps: list[Vrp]) -> None:
        self._raw_count = len(vrps)
        self._pdus = compress_vrps(vrps) if self.compress else sort_vrps(vrps)
        if self._server is not None:
            self._server.update(self._pdus)

    # ------------------------------------------------------------------
    # Outputs
    # ------------------------------------------------------------------

    @property
    def pdus(self) -> list[Vrp]:
        """The (possibly compressed) tuples routers will receive."""
        return list(self._pdus)

    @property
    def last_validation(self) -> Optional[ValidationRun]:
        return self._last_run

    def compression_stats(self) -> CompressionStats:
        """Input vs output tuple counts for the latest refresh."""
        return CompressionStats(self._raw_count, len(self._pdus))

    # ------------------------------------------------------------------
    # RTR serving
    # ------------------------------------------------------------------

    def serve(
        self, *, host: str = "127.0.0.1", port: int = 0
    ) -> ThreadedRtrServer:
        """Start (or return) the RTR server publishing this cache's PDUs.

        The server is :class:`repro.serve.ThreadedRtrServer`: asyncio
        sessions behind a synchronous facade, with per-serial
        pre-encoded frames (RFC 6810 on the wire).
        """
        if self._server is None:
            # Assign only after a successful start: a bind failure must
            # not cache a dead server that poisons every later serve().
            server = ThreadedRtrServer(self._pdus, host=host, port=port)
            server.start()
            self._server = server
        return self._server

    def close(self) -> None:
        if self._server is not None:
            self._server.close()
            self._server = None

    def __enter__(self) -> "LocalCache":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
