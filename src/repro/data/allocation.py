"""Address-space allocation: carving RIR pools into AS-held blocks.

A registry hands out aligned blocks from large pools (IPv4 /8s, an
IPv6 /12), never twice.  :class:`AddressAllocator` reproduces just that
bookkeeping: sequential aligned carving with per-family pools, so every
allocation in a synthetic Internet is disjoint by construction —
exactly the invariant the RPKI's resource-containment checks rely on.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..netbase.errors import ReproError
from ..netbase.prefix import AF_INET, AF_INET6, Prefix
from .distributions import weighted_choice

__all__ = ["AllocationError", "AddressAllocator", "Allocation"]

#: IPv4 size mixes by holder profile.  The fringe mix mirrors the real
#: routing table's skew toward /22–/24; the adopter mix models the
#: larger organizations that adopted the RPKI early, and stays at /22
#: or shorter so the classic "maxLength 24" misconfiguration always
#: authorizes unannounced space.
_V4_PROFILES = {
    "fringe": {16: 0.01, 18: 0.02, 19: 0.04, 20: 0.08, 21: 0.12,
               22: 0.28, 23: 0.20, 24: 0.25},
    "adopter": {16: 0.08, 17: 0.05, 18: 0.12, 19: 0.20, 20: 0.25,
                21: 0.15, 22: 0.15},
    # Scatter-style maxLength users hold large blocks: announcing a
    # handful of /24s out of a /16-/19 is the classic vulnerable
    # configuration RFC 7115 warns about.
    "scatter": {16: 0.30, 17: 0.20, 18: 0.30, 19: 0.20},
}

#: IPv6 allocation sizes; /32 is the standard LIR allocation.
_V6_LENGTH_WEIGHTS = {32: 0.55, 36: 0.10, 40: 0.15, 44: 0.08, 48: 0.12}


class AllocationError(ReproError):
    """The pool is exhausted or the request is malformed."""


@dataclass(frozen=True)
class Allocation:
    """One block held by one AS."""

    prefix: Prefix
    asn: int


class AddressAllocator:
    """Sequential aligned carving from per-family pools.

    IPv4 draws from the 126 /8 pools 1/8 … 126/8 (an arbitrary but
    stable choice of unicast space); IPv6 from 2a00::/12, then
    2c00::/12.  Pools are consumed front to back; alignment is
    maintained by rounding the cursor up to the requested block size,
    and the space that rounding skips is never handed out.
    """

    def __init__(self) -> None:
        self._pools = {
            AF_INET: [(Prefix.parse(f"{octet}.0.0.0/8"), 0) for octet in range(1, 127)],
            AF_INET6: [(Prefix.parse("2a00::/12"), 0), (Prefix.parse("2c00::/12"), 0)],
        }
        self._pool_index = {AF_INET: 0, AF_INET6: 0}

    def allocate(self, family: int, length: int) -> Prefix:
        """Carve the next aligned block of ``length`` bits.

        Raises:
            AllocationError: when every pool of the family is spent.
        """
        pools = self._pools[family]
        width = 32 if family == AF_INET else 128
        while self._pool_index[family] < len(pools):
            pool, cursor = pools[self._pool_index[family]]
            if length < pool.length:
                raise AllocationError(
                    f"cannot allocate /{length} from pool {pool}"
                )
            step = 1 << (width - length)
            aligned = (cursor + step - 1) // step * step
            base = pool.value + aligned
            if base + step <= pool.value + (1 << (width - pool.length)):
                pools[self._pool_index[family]] = (pool, aligned + step)
                return Prefix(family, base, length)
            self._pool_index[family] += 1
        raise AllocationError(f"IPv{family} pools exhausted")

    def allocate_random_size(
        self, family: int, rng: random.Random, profile: str = "fringe"
    ) -> Prefix:
        """Carve a block whose size follows the profile's length mix.

        Args:
            profile: "fringe" (routing-table-like skew toward small
                blocks) or "adopter" (larger early-adopter holdings).
        """
        if family == AF_INET:
            weights = _V4_PROFILES[profile]
        else:
            weights = _V6_LENGTH_WEIGHTS
        length = weighted_choice(rng, list(weights), list(weights.values()))
        return self.allocate(family, length)

    def remaining_pools(self, family: int) -> int:
        """Pools not yet started or partially used (capacity signal)."""
        return len(self._pools[family]) - self._pool_index[family]
