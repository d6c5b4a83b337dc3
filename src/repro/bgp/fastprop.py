"""CAIDA-scale route propagation: Gao–Rexford as flat-array sweeps.

:func:`repro.bgp.simulation.propagate_prefix` is a faithful but
object-heavy bucketed BFS: every neighbor view builds a frozenset,
every offer builds a path tuple and scans it for loops, and — when
origin validation is on — every offer walks the VRP radix tree.  None
of that is necessary.  This module runs the same three propagation
phases over an :class:`~repro.bgp.topology.CompiledTopology`:

* adjacency is CSR-style flat integer arrays, iterated row by row;
* per-AS route state is five parallel arrays (adopted flag, seed slot,
  parent index, path length, route class) — paths are parent chains,
  materialized only on demand;
* origin validation collapses to one RFC 6811 verdict per *seed*
  (every propagated copy of an announcement claims the same origin)
  combined with a per-AS validation bitmask, so the per-offer check is
  two byte loads instead of a radix walk.

**Bit-for-bit contract.**  Given the same topology, seeds, and RNG,
the array engine produces exactly the routes and consumes exactly the
random stream of the object engine.  This works because:

1. AS indices are assigned in ascending ASN order, so sorting offers
   by source index equals the object engine's sort by advertising
   neighbor — and neighbors are distinct per candidate list, so the
   rest of the object engine's ``(neighbor, path, seed)`` sort key is
   never consulted.
2. Adoption proceeds per path-length bucket in ascending target order,
   the same schedule the object engine follows, so tie-break draws
   happen in the same sequence.
3. ``rng.choice`` consumes randomness as a function of candidate count
   only, which both engines present identically.

The test suite pins this contract; keep it when touching either
engine.

**Trial throughput.**  Monte-Carlo grids evaluate thousands of
propagations on one topology, so the per-propagation constants matter
as much as the sweep itself.  A :class:`PropagationWorkspace` keeps
the per-AS state arrays alive across propagations (reset in O(touched
ASes), not O(n)), caches the per-trial validation bitmask, and — the
big one — caches *single-seed propagation profiles*: with one seed
there is no inter-seed competition, so the adoption structure and the
sequence of tie-break candidate counts are a deterministic function of
(seed, blocked set) alone, independent of what the RNG actually
returns.  A repeated single-seed propagation (the victim's covering
route evaluated for every grid cell, or an attack announcement whose
RFC 6811 verdict repeats across cells) therefore replays the recorded
candidate counts through the RNG — consuming the identical random
stream — without re-running the sweep.  Multi-seed propagations are
never cached: there the chosen winner decides which seed's blocked
set gates later offers, so the structure is draw-dependent.
"""

from __future__ import annotations

import contextlib
import random
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Union

from ..netbase.errors import ReproError
from ..netbase.prefix import Prefix
from ..obs.metrics import MetricsRegistry, get_registry
from .origin_validation import ValidationState, VrpIndex
from .simulation import Route, RouteClass, Seed, SimulationError
from .topology import AsTopology, CompiledTopology

__all__ = [
    "AttackCase",
    "PropagationWorkspace",
    "evaluate_attack_seeds_array",
    "evaluate_attack_seeds_array_batch",
    "propagate_prefix_array",
]

_ORIGIN = int(RouteClass.ORIGIN)
_CUSTOMER = int(RouteClass.CUSTOMER)
_PEER = int(RouteClass.PEER)
_PROVIDER = int(RouteClass.PROVIDER)

#: Single-seed profiles kept per workspace before the cache recycles
#: (bounds worker memory on CAIDA-scale graphs; within one trial a
#: grid needs at most one profile per cell).
_PROFILE_CAP = 32


def _fast_randbelow_ok() -> bool:
    """Can we inline ``Random.choice``'s rejection sampling?

    The hot loop draws one tie-break per adoption; going through
    ``rng.choice`` costs two extra Python frames each time.  When the
    platform's ``Random._randbelow`` is the documented
    getrandbits-rejection loop we consume the identical bit stream
    inline; this probe verifies that equivalence once at import and
    the engine falls back to ``rng.choice`` if it ever fails.
    """
    reference, inlined = random.Random(7), random.Random(7)
    for size in (1, 2, 3, 5, 17):
        expected = reference.choice(range(size))
        getrandbits = inlined.getrandbits
        bits = size.bit_length()
        draw = getrandbits(bits)
        while draw >= size:
            draw = getrandbits(bits)
        if draw != expected or reference.getstate() != inlined.getstate():
            return False
    return True


_FAST_RANDBELOW = _fast_randbelow_ok()


def _choose(srcs: list[int], rng: Optional[random.Random]) -> int:
    """Tie-break exactly as the object engine's sorted ``rng.choice``."""
    if rng is None:
        return min(srcs)
    srcs.sort()
    return rng.choice(srcs)


class _Lane:
    """One reusable set of per-AS propagation arrays.

    ``touched`` lists every index adopted by the last propagation, in
    adoption order; :meth:`reset` restores the clean-lane invariant in
    O(touched): ``adopted`` all zero and ``offer_srcs`` all ``None``.
    The other arrays may hold stale values — they are only ever read
    behind an ``adopted``/offer guard that guarantees a fresh write
    happened first.
    """

    __slots__ = (
        "n", "adopted", "slot", "parent", "plen", "klass",
        "offer_srcs", "offer_len", "touched",
    )

    def __init__(self, n: int) -> None:
        self.n = n
        self.adopted = bytearray(n)
        self.slot = [0] * n
        self.parent = [-1] * n
        self.plen = [0] * n
        self.klass = bytearray(n)
        self.offer_srcs: list[Optional[list[int]]] = [None] * n
        self.offer_len = [0] * n
        self.touched: list[int] = []

    def reset(self) -> None:
        adopted = self.adopted
        offer_srcs = self.offer_srcs
        for i in self.touched:
            adopted[i] = 0
            offer_srcs[i] = None
        self.touched.clear()

    def hard_reset(self) -> None:
        """Full reinitialization — for exception paths, where the
        O(touched) bookkeeping cannot be trusted."""
        self.__init__(self.n)


class _State:
    """Raw propagation outcome: the lane's five parallel per-AS-index
    arrays plus per-seed adoption counts (maintained during the
    sweeps, so capture fractions never need an O(n) scan)."""

    __slots__ = ("seed_list", "adopted", "slot", "parent", "plen", "klass",
                 "counts")

    def __init__(self, seed_list: list[Seed], lane: _Lane,
                 counts: list[int]) -> None:
        self.seed_list = seed_list
        self.adopted = lane.adopted
        self.slot = lane.slot
        self.parent = lane.parent
        self.plen = lane.plen
        self.klass = lane.klass
        self.counts = counts


@dataclass(frozen=True)
class _Profile:
    """Cached outcome of one single-seed propagation.

    ``counts_seq`` is the tie-break candidate count of every adoption,
    in draw order — the complete description of the propagation's RNG
    consumption, replayed by :func:`_replay_draws`.  Stored as
    ``bytes`` when every count fits (the overwhelmingly common case;
    candidate counts are bounded by node degree), which keeps a
    CAIDA-scale profile at one byte per adoption.
    """

    adopted: bytes
    total: int
    counts_seq: Union[bytes, tuple[int, ...]]

    @staticmethod
    def pack_counts(counts: Sequence[int]) -> Union[bytes, tuple[int, ...]]:
        if all(count < 256 for count in counts):
            return bytes(counts)
        return tuple(counts)


def _replay_draws(
    counts_seq: Sequence[int], rng: Optional[random.Random]
) -> None:
    """Consume exactly the random stream of a recorded propagation."""
    if rng is None:
        return
    if _FAST_RANDBELOW and type(rng) is random.Random:
        getrandbits = rng.getrandbits
        for count in counts_seq:
            if count == 1:
                while getrandbits(1):
                    pass
            else:
                bits = count.bit_length()
                draw = getrandbits(bits)
                while draw >= count:
                    draw = getrandbits(bits)
    else:
        choice = rng.choice
        for count in counts_seq:
            choice(range(count))


def _compiled_of(
    topology: Union[AsTopology, CompiledTopology]
) -> CompiledTopology:
    if isinstance(topology, AsTopology):
        return topology.compiled()
    return topology


class _WorkspaceMetrics:
    """The ``fastprop.*`` instruments one workspace records into.

    Counters only — the kernel never reads a clock — so telemetry here
    can never perturb timing-sensitive callers, let alone the RNG.
    """

    __slots__ = (
        "enabled", "sweeps", "touched_ases", "lane_resets",
        "profile_hits", "profile_misses", "mask_builds", "epochs",
    )

    def __init__(self, registry: MetricsRegistry) -> None:
        view = registry.view("fastprop")
        self.enabled = registry.enabled
        self.sweeps = view.counter("sweeps")
        self.touched_ases = view.counter("touched_ases")
        self.lane_resets = view.counter("lane_resets")
        self.profile_hits = view.counter("profile_hits")
        self.profile_misses = view.counter("profile_misses")
        self.mask_builds = view.counter("mask_builds")
        self.epochs = view.counter("epochs")


class PropagationWorkspace:
    """Reusable per-worker state for array-engine trial evaluation.

    Allocate one per (worker, topology) and pass it to
    :func:`evaluate_attack_seeds_array` /
    :func:`evaluate_attack_seeds_array_batch`: the per-AS state arrays
    are allocated once and reset in O(touched) between propagations,
    the validation bitmask is computed once per validator set instead
    of once per propagation, and single-seed propagations repeated
    under the same validator set are served from the profile cache
    (see the module docstring).  Results are byte-identical to the
    workspace-free path — including RNG consumption — which the test
    suite pins.

    The workspace counts its own behavior (sweeps run, ASes touched,
    profile cache hits/misses, mask builds) into ``registry`` under the
    ``fastprop.`` namespace; by default the process registry at
    construction time, so worker processes each record into their own.

    Not thread-safe; share nothing across threads or processes.
    """

    def __init__(
        self,
        topology: Union[AsTopology, CompiledTopology],
        *,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.compiled = _compiled_of(topology)
        self.metrics = _WorkspaceMetrics(
            registry if registry is not None else get_registry()
        )
        self._lanes: list[_Lane] = []
        self._profiles: dict[tuple, _Profile] = {}
        self._validators_token: object = self  # sentinel: no epoch yet
        self._mask: Optional[bytearray] = None
        self._universal_mask: Optional[bytearray] = None

    def lane(self, index: int = 0) -> _Lane:
        while len(self._lanes) <= index:
            self._lanes.append(_Lane(len(self.compiled)))
        return self._lanes[index]

    def begin(self, validating_ases: Optional[frozenset[int]]) -> None:
        """Open a validator epoch (one per trial, shared by its cells).

        Epochs are tracked by object identity — a trial passes the
        same ``validating_ases`` object to every cell — so the check
        is O(1).  A new epoch drops the cached mask and the profile
        cache, whose invalid-seed entries depend on the mask.
        """
        if validating_ases is not self._validators_token:
            self._validators_token = validating_ases
            self._mask = None
            self._profiles.clear()
            self.metrics.epochs.inc()

    def mask(self) -> bytearray:
        """The current epoch's validation bitmask, computed lazily."""
        if self._validators_token is self:
            raise ReproError("workspace epoch not opened; call begin()")
        if self._mask is None:
            validators = self._validators_token
            if validators is None:
                if self._universal_mask is None:
                    self._universal_mask = bytearray(
                        b"\x01" * len(self.compiled)
                    )
                self._mask = self._universal_mask
            else:
                self._mask = self.compiled.validation_mask(validators)
                self.metrics.mask_builds.inc()
        return self._mask

    def profile(self, key: tuple) -> Optional[_Profile]:
        profile = self._profiles.get(key)
        if profile is not None:
            # Refresh recency (dict order is insertion order), so the
            # cap evicts the least recently used profile — never a hot
            # one like the trial's victim-cover profile.
            del self._profiles[key]
            self._profiles[key] = profile
            self.metrics.profile_hits.inc()
        else:
            self.metrics.profile_misses.inc()
        return profile

    def store_profile(self, key: tuple, profile: _Profile) -> None:
        profiles = self._profiles
        if len(profiles) >= _PROFILE_CAP:
            del profiles[next(iter(profiles))]
        profiles[key] = profile


def _propagate(
    compiled: CompiledTopology,
    prefix: Prefix,
    seed_list: list[Seed],
    vrp_index: Optional[VrpIndex],
    validating_ases: Optional[frozenset[int]],
    rng: Optional[random.Random],
    *,
    lane: Optional[_Lane] = None,
    mask: Optional[bytearray] = None,
    invalid: Optional[list[bool]] = None,
    capture: Optional[list[int]] = None,
) -> tuple[_State, _Lane]:
    """The three Gao–Rexford phases as array sweeps.

    ``lane`` supplies reusable arrays (fresh ones are allocated when
    absent); it must satisfy the clean-lane invariant on entry and is
    returned dirty — the caller resets it.  ``mask``/``invalid`` let a
    workspace pass precomputed validation state; ``capture`` records
    the tie-break candidate count of every adoption, in draw order,
    for single-seed profile replay.
    """
    n = len(compiled)
    index_of = compiled.index_of

    seen: set[int] = set()
    for seed in seed_list:
        if seed.asn not in index_of:
            raise SimulationError(f"seed AS{seed.asn} not in topology")
        if seed.asn in seen:
            raise SimulationError(f"duplicate seed for AS{seed.asn}")
        seen.add(seed.asn)

    # One validation verdict per seed: every propagated copy claims the
    # seed's origin, so the object engine's per-offer radix walk is a
    # constant here.
    if invalid is None:
        invalid = [False] * len(seed_list)
        if vrp_index is not None:
            for k, seed in enumerate(seed_list):
                invalid[k] = (
                    vrp_index.validate(prefix, seed.path[-1])
                    is ValidationState.INVALID
                )
    if vrp_index is not None and mask is None and any(invalid):
        mask = compiled.validation_mask(validating_ases)
    validation_on = vrp_index is not None

    # Per-seed offer block mask: never offer a route to an AS on its
    # seed's initial path (loop prevention — every later hop is an
    # adopter and already excluded by the adopted flag), nor — for an
    # invalid seed — to a validating AS.
    blocked: list[bytearray] = []
    for k, seed in enumerate(seed_list):
        blk = bytearray(mask) if (validation_on and invalid[k]) else (
            bytearray(n)
        )
        for asn in seed.path:
            i = index_of.get(asn)
            if i is not None:
                blk[i] = 1
        blocked.append(blk)

    if lane is None:
        lane = _Lane(n)
    adopted = lane.adopted
    slot = lane.slot
    parent = lane.parent
    plen = lane.plen
    klass = lane.klass
    offer_srcs = lane.offer_srcs
    offer_len = lane.offer_len
    touched = lane.touched
    counts = [0] * len(seed_list)

    # Inline the tie-break draw when the RNG is a plain Random (the
    # verified-identical fast path); anything exotic goes through
    # rng.choice so custom Random subclasses keep exact semantics.
    getrandbits = (
        rng.getrandbits
        if rng is not None and _FAST_RANDBELOW and type(rng) is random.Random
        else None
    )

    origins: list[int] = []
    for k, seed in enumerate(seed_list):
        i = index_of[seed.asn]
        if validation_on and invalid[k] and mask[i]:
            continue
        adopted[i] = 1
        slot[i] = k
        plen[i] = len(seed.path)
        klass[i] = _ORIGIN
        counts[k] += 1
        origins.append(i)
        touched.append(i)

    def sweep(
        exporters: list[int],
        rows: tuple[tuple[int, ...], ...],
        route_class: int,
    ) -> None:
        """Adopt along ``rows`` edges in path-length order, chaining.

        Offers are kept in per-target source lists indexed by the lane
        arrays (``offer_srcs``/``offer_len``) instead of per-length
        dicts; each bucket is just the list of targets first offered
        at that length.  An offer strictly longer than one the target
        already holds is discarded immediately — in the object engine
        it would sit in a later bucket and lose to the earlier
        adoption anyway, without consuming randomness — so the live
        candidate lists are exactly the object engine's.
        """
        buckets: dict[int, list[int]] = {}
        for i in exporters:
            row = rows[i]
            if not row:
                continue
            length = plen[i] if klass[i] == _ORIGIN else plen[i] + 1
            blk = blocked[slot[i]]
            bucket = buckets.get(length)
            if bucket is None:
                bucket = buckets[length] = []
            for t in row:
                if adopted[t] or blk[t]:
                    continue
                srcs = offer_srcs[t]
                if srcs is None:
                    offer_srcs[t] = [i]
                    offer_len[t] = length
                    bucket.append(t)
                elif offer_len[t] == length:
                    srcs.append(i)
                elif length < offer_len[t]:
                    offer_srcs[t] = [i]
                    offer_len[t] = length
                    bucket.append(t)
        while buckets:
            length = min(buckets)
            batch = buckets.pop(length)
            next_length = length + 1
            next_bucket = buckets.get(next_length)
            batch.sort()
            for t in batch:
                if adopted[t]:
                    continue
                srcs = offer_srcs[t]
                count = len(srcs)
                if capture is not None:
                    capture.append(count)
                if count == 1:
                    chosen = srcs[0]
                    if getrandbits is not None:
                        while getrandbits(1):
                            pass
                    elif rng is not None:
                        rng.choice(srcs)
                elif getrandbits is not None:
                    srcs.sort()
                    bits = count.bit_length()
                    draw = getrandbits(bits)
                    while draw >= count:
                        draw = getrandbits(bits)
                    chosen = srcs[draw]
                else:
                    chosen = _choose(srcs, rng)
                adopted[t] = 1
                k = slot[chosen]
                slot[t] = k
                parent[t] = chosen
                plen[t] = length
                klass[t] = route_class
                counts[k] += 1
                touched.append(t)
                row = rows[t]
                if row:
                    blk = blocked[k]
                    if next_bucket is None:
                        next_bucket = buckets[next_length] = []
                    for u in row:
                        if adopted[u] or blk[u]:
                            continue
                        srcs = offer_srcs[u]
                        if srcs is None:
                            offer_srcs[u] = [t]
                            offer_len[u] = next_length
                            next_bucket.append(u)
                        elif offer_len[u] == next_length:
                            srcs.append(t)
                        elif next_length < offer_len[u]:
                            offer_srcs[u] = [t]
                            offer_len[u] = next_length
                            next_bucket.append(u)

    # Phase 1 — customer routes climb provider edges.
    sweep(origins, compiled.provider_rows, _CUSTOMER)

    # Phase 2 — customer/origin routes cross one peering edge; no
    # chaining, so collect every offer first, then settle each AS by
    # shortest-then-tie-break in ascending target order.  Exporters
    # come from the touched list (everything adopted so far is ORIGIN
    # or CUSTOMER here) instead of an O(n) scan; offer order cannot
    # matter because the minimum-length candidates are sorted before
    # drawing.
    peer_rows = compiled.peer_rows
    peer_targets: list[int] = []
    for i in list(touched):
        k = klass[i]
        if k != _ORIGIN and k != _CUSTOMER:
            continue
        row = peer_rows[i]
        if not row:
            continue
        length = plen[i] if k == _ORIGIN else plen[i] + 1
        blk = blocked[slot[i]]
        for t in row:
            if adopted[t] or blk[t]:
                continue
            srcs = offer_srcs[t]
            if srcs is None:
                offer_srcs[t] = [i]
                offer_len[t] = length
                peer_targets.append(t)
            elif offer_len[t] == length:
                srcs.append(i)
            elif length < offer_len[t]:
                offer_srcs[t] = [i]
                offer_len[t] = length
    peer_targets.sort()
    for t in peer_targets:
        srcs = offer_srcs[t]
        if capture is not None:
            capture.append(len(srcs))
        chosen = _choose(srcs, rng)
        adopted[t] = 1
        k = slot[chosen]
        slot[t] = k
        parent[t] = chosen
        plen[t] = offer_len[t]
        klass[t] = _PEER
        counts[k] += 1
        touched.append(t)

    # Phase 3 — every adopted route descends customer edges.  The
    # touched list *is* the adopted set (in adoption order; exporter
    # order is immaterial for the same sorted-candidates reason).
    sweep(list(touched), compiled.customer_rows, _PROVIDER)

    return _State(seed_list, lane, counts), lane


def _materialize(compiled: CompiledTopology, state: _State) -> dict[int, Route]:
    """Expand parent chains into the object engine's Route mapping."""
    asns = compiled.asns
    seed_list = state.seed_list
    adopted, slot = state.adopted, state.slot
    parent, klass = state.parent, state.klass
    paths: dict[int, tuple[int, ...]] = {}

    def path_of(i: int) -> tuple[int, ...]:
        chain: list[int] = []
        j = i
        while True:
            path = paths.get(j)
            if path is not None:
                break
            up = parent[j]
            if up < 0:
                path = seed_list[slot[j]].path
                break
            chain.append(j)
            j = up
        paths[j] = path
        while chain:
            child = chain.pop()
            # The route stored at ``child`` is its parent's offered
            # path: the parent's own path, parent-prepended unless the
            # parent originated the announcement.
            if klass[j] != _ORIGIN:
                path = (asns[j],) + path
            paths[child] = path
            j = child
        return path

    routes: dict[int, Route] = {}
    for i in range(len(asns)):
        if adopted[i]:
            routes[asns[i]] = Route(
                path_of(i), RouteClass(klass[i]), seed_list[slot[i]].asn
            )
    return routes


def propagate_prefix_array(
    topology: Union[AsTopology, CompiledTopology],
    prefix: Prefix,
    seeds: Iterable[Seed],
    *,
    vrp_index: Optional[VrpIndex] = None,
    validating_ases: Optional[frozenset[int]] = None,
    rng: Optional[random.Random] = None,
) -> dict[int, Route]:
    """Drop-in array-engine replacement for
    :func:`repro.bgp.simulation.propagate_prefix`.

    Accepts either an :class:`AsTopology` (compiled and cached on first
    use) or a pre-built :class:`CompiledTopology`; returns the same
    ASN→:class:`Route` mapping, bit-for-bit, including the seeded
    tie-break stream.

    This entry point always runs the full sweep: materialized routes
    need parent chains, which are tie-break-dependent, so the
    workspace profile cache cannot serve them.
    """
    compiled = _compiled_of(topology)
    state, _lane = _propagate(
        compiled, prefix, list(seeds), vrp_index, validating_ases, rng
    )
    return _materialize(compiled, state)


# ----------------------------------------------------------------------
# Attack evaluation
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class AttackCase:
    """One attack measurement for the batched array entry point.

    Mirrors the arguments of :func:`evaluate_attack_seeds_array`; a
    grid trial builds one case per cell and submits them together so
    the workspace amortizes seed/validation setup across the batch.
    """

    victim: int
    victim_prefix: Prefix
    attack_prefix: Prefix
    attacker_seeds: tuple[Seed, ...]
    vrp_index: Optional[VrpIndex] = None
    validating_ases: Optional[frozenset[int]] = None

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "attacker_seeds", tuple(self.attacker_seeds)
        )


@contextlib.contextmanager
def _lane_propagation(
    compiled: CompiledTopology,
    prefix: Prefix,
    seed_list: list[Seed],
    vrp_index: Optional[VrpIndex],
    validating_ases: Optional[frozenset[int]],
    rng: Optional[random.Random],
    workspace: Optional[PropagationWorkspace],
    *,
    mask: Optional[bytearray] = None,
    invalid: Optional[list[bool]] = None,
    capture: Optional[list[int]] = None,
):
    """The lane lifecycle protocol, shared by every sweep call site:
    acquire a workspace lane (or a fresh one), propagate, yield the
    raw state for the caller to read, then restore the clean-lane
    invariant — O(touched) on success, a full reinitialization when
    the sweep died partway and the bookkeeping cannot be trusted."""
    lane = workspace.lane(0) if workspace is not None else None
    try:
        state, used_lane = _propagate(
            compiled, prefix, seed_list, vrp_index, validating_ases,
            rng, lane=lane, mask=mask, invalid=invalid, capture=capture,
        )
    except BaseException:
        if lane is not None:
            lane.hard_reset()
        raise
    try:
        yield state
    finally:
        if workspace is not None and workspace.metrics.enabled:
            # Read the touched count BEFORE reset clears the list.
            metrics = workspace.metrics
            metrics.sweeps.inc()
            metrics.touched_ases.inc(len(used_lane.touched))
            metrics.lane_resets.inc()
        used_lane.reset()


def _single_seed_outcome(
    compiled: CompiledTopology,
    prefix: Prefix,
    seed: Seed,
    vrp_index: Optional[VrpIndex],
    validating_ases: Optional[frozenset[int]],
    rng: Optional[random.Random],
    workspace: Optional[PropagationWorkspace],
) -> tuple[Union[bytes, bytearray], int]:
    """(adopted flags, total adoptions) of a single-seed propagation.

    With a workspace, served from the profile cache when this (seed,
    verdict) was already propagated under the current validator epoch
    — replaying the recorded candidate counts so the RNG advances
    exactly as a real sweep would.  Cache misses run the sweep on a
    workspace lane, record the profile, and release the lane.
    """
    if workspace is None:
        state, _lane = _propagate(
            compiled, prefix, [seed], vrp_index, validating_ases, rng
        )
        return state.adopted, state.counts[0]

    invalid = vrp_index is not None and (
        vrp_index.validate(prefix, seed.path[-1]) is ValidationState.INVALID
    )
    key = (seed.asn, seed.path, invalid)
    profile = workspace.profile(key)
    if profile is not None:
        _replay_draws(profile.counts_seq, rng)
        return profile.adopted, profile.total

    mask = workspace.mask() if invalid else None
    capture: list[int] = []
    with _lane_propagation(
        compiled, prefix, [seed], vrp_index, validating_ases, rng,
        workspace, mask=mask, invalid=[invalid], capture=capture,
    ) as state:
        profile = _Profile(
            bytes(state.adopted), state.counts[0],
            _Profile.pack_counts(capture),
        )
    workspace.store_profile(key, profile)
    return profile.adopted, profile.total


def evaluate_attack_seeds_array(
    topology: Union[AsTopology, CompiledTopology],
    victim: int,
    victim_prefix: Prefix,
    attack_prefix: Prefix,
    attacker_seeds: Sequence[Seed],
    *,
    vrp_index: Optional[VrpIndex] = None,
    validating_ases: Optional[frozenset[int]] = None,
    rng: Optional[random.Random] = None,
    workspace: Optional[PropagationWorkspace] = None,
) -> tuple[tuple[float, float, float], bool]:
    """Array-engine core of
    :func:`repro.bgp.attacks.evaluate_attack_seeds`.

    Same measurement, same return value, same RNG consumption — but the
    capture fractions are counted straight off the raw adoption arrays,
    so no path tuple or :class:`Route` is ever materialized.  Pass a
    :class:`PropagationWorkspace` (one per worker) to reuse state
    arrays and propagation profiles across calls; results are
    byte-identical either way.
    """
    if workspace is not None:
        compiled = workspace.compiled
        if compiled is not _compiled_of(topology):
            raise ReproError(
                "workspace was built for a different topology"
            )
        workspace.begin(validating_ases)
    else:
        compiled = _compiled_of(topology)
    n = len(compiled)
    index_of = compiled.index_of

    attackers = frozenset(seed.asn for seed in attacker_seeds)
    cast = [index_of[victim]] if victim in index_of else []
    for asn in sorted(attackers):
        i = index_of.get(asn)
        if i is not None and i not in cast:
            cast.append(i)
    total = n - len(cast)
    if total <= 0:
        raise ReproError("topology too small to judge an attack")

    victim_seed = Seed.origin(victim)
    is_subprefix = attack_prefix != victim_prefix

    if is_subprefix:
        cover_adopted, cover_total = _single_seed_outcome(
            compiled, victim_prefix, victim_seed,
            vrp_index, validating_ases, rng, workspace,
        )
        if len(attacker_seeds) == 1:
            attack_adopted, attack_total = _single_seed_outcome(
                compiled, attack_prefix, attacker_seeds[0],
                vrp_index, validating_ases, rng, workspace,
            )
        else:
            # The cover outcome above is immutable profile bytes, so
            # the multi-attacker sweep can reuse lane 0.
            mask = None
            if workspace is not None and vrp_index is not None:
                mask = workspace.mask()
            with _lane_propagation(
                compiled, attack_prefix, list(attacker_seeds),
                vrp_index, validating_ases, rng, workspace, mask=mask,
            ) as attack_state:
                attack_adopted = bytes(attack_state.adopted)
                attack_total = sum(attack_state.counts)
        filtered = attack_total == 0
        # Longest-prefix match: an attack-prefix route wins wherever
        # one was adopted; the covering route serves the rest.  The
        # adoption flags are 0/1 bytes, so the cover-minus-overlap
        # count is one bigint popcount instead of an O(n) scan.
        attacker_count = attack_total
        victim_count = (
            int.from_bytes(cover_adopted, "big")
            & ~int.from_bytes(attack_adopted, "big")
        ).bit_count()
        for i in cast:
            if attack_adopted[i]:
                attacker_count -= 1
            elif cover_adopted[i]:
                victim_count -= 1
    else:
        mask = None
        if workspace is not None and vrp_index is not None:
            mask = workspace.mask()
        with _lane_propagation(
            compiled, victim_prefix, [victim_seed, *attacker_seeds],
            vrp_index, validating_ases, rng, workspace, mask=mask,
        ) as combined:
            adopted, slot = combined.adopted, combined.slot
            victim_count = combined.counts[0]
            attacker_count = sum(combined.counts) - victim_count
            for i in cast:
                if adopted[i]:
                    if slot[i] == 0:
                        victim_count -= 1
                    else:
                        attacker_count -= 1
        if vrp_index is None:
            filtered = False
        else:
            universal = (
                validating_ases is None
                or compiled.as_set <= validating_ases
            )
            filtered = universal and all(
                vrp_index.validate(attack_prefix, seed.path[-1])
                is ValidationState.INVALID
                for seed in attacker_seeds
            )
    disconnected = total - attacker_count - victim_count
    return (
        (
            attacker_count / total,
            victim_count / total,
            disconnected / total,
        ),
        filtered,
    )


def evaluate_attack_seeds_array_batch(
    topology: Union[AsTopology, CompiledTopology],
    cases: Sequence[AttackCase],
    *,
    rng: Optional[random.Random] = None,
    workspace: Optional[PropagationWorkspace] = None,
) -> list[tuple[tuple[float, float, float], bool]]:
    """Evaluate a batch of attack cases with one shared workspace.

    The batched entry point for grid trials: one call per trial, one
    case per cell, all sharing ``rng`` (the trial's tie-break stream,
    consumed case by case in order — exactly as per-call evaluation
    would).  The workspace amortizes the validation bitmask and the
    single-seed propagation profiles across the batch; a missing
    workspace gets a transient one, which still amortizes within the
    batch.
    """
    if workspace is None:
        workspace = PropagationWorkspace(topology)
    return [
        evaluate_attack_seeds_array(
            topology, case.victim, case.victim_prefix, case.attack_prefix,
            case.attacker_seeds,
            vrp_index=case.vrp_index,
            validating_ases=case.validating_ases,
            rng=rng,
            workspace=workspace,
        )
        for case in cases
    ]
