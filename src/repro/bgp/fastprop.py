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
random stream of the object engine — ``propagate_prefix`` and
``reference_attack_seeds``, the readable reference the tests hold this
module to (nothing in the product runs it).  This works because:

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

**Two paths.**  :func:`repro.bgp.attacks.evaluate_attack_seeds`, the
measurement core built on this module, propagates an
announcement in one of two ways, chosen by whether seeds compete.

* *One seed* (the victim's covering route, a lone subprefix attacker):
  nothing competes, so every AS that is offered the route adopts it and
  *who adopts* is a reachability closure of (seed, blocked set) —
  independent of path lengths and of anything an RNG could return.
  :func:`_closure` computes it without a lane, candidate lists or
  draws, and the caller's RNG is not touched (neither is it by the
  object engine, which propagates a lone announcement without one).
  The result is a *bitset*, a Python int whose bit *i* says AS index
  *i* adopts: where the blocked set misses the transit core, the whole
  down phase is one OR of precomputed customer cones; otherwise the
  core is walked with set algebra over the CSR rows and the result
  packed once.  A :class:`PropagationWorkspace` caches the bitset per
  (seed, RFC 6811 verdict) for the validator epoch, so the covering
  route is computed once per trial, not once per cell, and a cell is
  judged by popcounts of two ints.
* *Seeds compete* (a same-prefix attack, several attackers at once):
  the ordered sweep of :func:`_propagate` on a workspace lane, drawing
  tie-breaks from the caller's RNG exactly as the object engine does.
  Never cached: the chosen winner decides which seed's blocked set
  gates later offers, so the outcome is draw-dependent.

A grid of subprefix attacks only (the paper's sec. 4/5 experiments)
never sweeps and never draws.  The workspace also keeps the lane's
per-AS arrays alive across sweeps (reset in O(touched ASes), not O(n))
and indexes the validator set at most once per trial, and only when a
sweep or a closure has validators to avoid.
"""

from __future__ import annotations

import contextlib
import random
from functools import reduce
from operator import or_
from typing import Collection, Iterable, Optional, Sequence, Union

from ..netbase.errors import ReproError
from ..netbase.prefix import Prefix
from ..obs.metrics import MetricsRegistry, get_registry
from .origin_validation import ValidationState, VrpIndex
from .simulation import Route, RouteClass, Seed, SimulationError
from .topology import AsTopology, CompiledTopology

__all__ = [
    "PropagationWorkspace",
    "propagate_prefix_array",
]

_ORIGIN = int(RouteClass.ORIGIN)
_CUSTOMER = int(RouteClass.CUSTOMER)
_PEER = int(RouteClass.PEER)
_PROVIDER = int(RouteClass.PROVIDER)

#: Single-seed profiles kept per workspace before the cache recycles
#: (bounds worker memory on CAIDA-scale graphs; within one trial a
#: grid needs at most one profile per cell).  A profile is a bitset of
#: adopted indices, at most ⌈n/8⌉ bytes: 1.25 KiB at 10 k ASes,
#: 9.2 KiB at 75 k.  So a full cache is 40 KiB / 300 KiB, and a
#: validator epoch ends it anyway (grid_10k holds at most 4 profiles).
_PROFILE_CAP = 32

#: ``_BIT(i)`` is ``1 << i``: AS index ``i`` as a one-member bitset.
_BIT = (1).__lshift__
#: Maps a byte-per-AS flag array to the ASCII digits ``int(…, 2)`` reads.
_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def _bits(indices: Collection[int], n: int) -> int:
    """Pack indices below ``n`` into a bitset: bit *i* is set iff *i*
    is one of them.  Setting a bit does not depend on the order the
    bits are set in, so a set may be packed as it iterates.

    A few indices are OR-ed in directly; that costs O(n) per index, so
    more are written as flag bytes and read back as one binary numeral
    — O(n) in all, about 0.5 ms for 10 000 indices.
    """
    if len(indices) < 64:
        return reduce(or_, map(_BIT, indices), 0)
    flags = bytearray(n)
    for i in indices:
        flags[i] = 1
    return int(flags.translate(_DIGITS)[::-1], 2)


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
    arrays, its list of adopted indices, and per-seed adoption counts
    (maintained during the sweeps, so capture fractions never need an
    O(n) scan).  Everything here aliases the lane: read it before the
    lane is reset."""

    __slots__ = ("seed_list", "adopted", "slot", "parent", "plen", "klass",
                 "touched", "counts")

    def __init__(self, seed_list: list[Seed], lane: _Lane,
                 counts: list[int]) -> None:
        self.seed_list = seed_list
        self.adopted = lane.adopted
        self.slot = lane.slot
        self.parent = lane.parent
        self.plen = lane.plen
        self.klass = lane.klass
        self.touched = lane.touched
        self.counts = counts


def _customer_cones(
    compiled: CompiledTopology,
    core: frozenset[int],
    transit: dict[int, tuple[int, ...]],
) -> Optional[dict[int, int]]:
    """Every core AS's customer cone as a bitset, children-first, or
    ``None`` if some core ASes wait on each other (a cycle)."""
    waiting = {i: len(transit.get(i, ())) for i in sorted(core)}
    ready = [i for i, count in waiting.items() if not count]
    customer_rows = compiled.customer_rows
    provider_rows = compiled.provider_rows
    cones: dict[int, int] = {}
    for i in ready:  # grows as providers' core customers complete
        cone = _BIT(i)
        for j in customer_rows[i]:
            cone |= cones.get(j) or _BIT(j)
        cones[i] = cone
        for up in provider_rows[i]:  # a provider is core by definition
            waiting[up] -= 1
            if not waiting[up]:
                ready.append(up)
    return cones if len(cones) == len(waiting) else None


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
        "enabled", "sweeps", "closures", "touched_ases",
        "profile_hits", "profile_misses", "mask_builds", "epochs",
    )

    def __init__(self, registry: MetricsRegistry) -> None:
        view = registry.view("fastprop")
        self.enabled = registry.enabled
        self.sweeps = view.counter("sweeps")
        self.closures = view.counter("closures")
        self.touched_ases = view.counter("touched_ases")
        self.profile_hits = view.counter("profile_hits")
        self.profile_misses = view.counter("profile_misses")
        self.mask_builds = view.counter("mask_builds")
        self.epochs = view.counter("epochs")


class PropagationWorkspace:
    """Reusable per-worker state for array-engine trial evaluation.

    Allocate one per (worker, topology) and pass it to
    :func:`repro.bgp.attacks.evaluate_attack_seeds`: the per-AS state
    arrays are allocated on the first ordered sweep and reset in O(touched)
    between propagations, the validator set is indexed at most once per
    epoch instead of once per propagation, the customer cones are built
    once, on the first closure that can use them, and a single-seed
    propagation's adopted bitset is computed once per epoch (see the
    module docstring).  Results, RNG consumption included, are those of
    a call that is given no workspace and makes a transient one — which
    the test suite pins.

    The workspace counts its own behavior into ``registry`` under the
    ``fastprop.`` namespace — ``sweeps`` (ordered sweeps run),
    ``closures`` (adopted sets computed as reachability),
    ``touched_ases`` (ASes adopted, by either), profile cache
    hits/misses, ``mask_builds`` (validator sets indexed, which only a
    sweep or a closure with validators to avoid asks for) — by default
    the process registry at construction time, so worker processes
    each record into their own.

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
        self._profiles: dict[tuple, int] = {}
        self._validators_token: object = self  # sentinel: no epoch yet
        self._validators: Optional[frozenset[int]] = None
        self._mask: Optional[bytearray] = None
        self._universal_mask: Optional[bytearray] = None
        self._has_customers: Optional[frozenset[int]] = None
        self._transit_rows: dict[int, tuple[int, ...]] = {}
        self._cones: Optional[dict[int, int]] = None
        self._cones_built = False

    def lane(self, index: int = 0) -> _Lane:
        while len(self._lanes) <= index:
            self._lanes.append(_Lane(len(self.compiled)))
        return self._lanes[index]

    def begin(self, validating_ases: Optional[frozenset[int]]) -> None:
        """Open a validator epoch (one per trial, shared by its cells).

        Epochs are tracked by object identity — a trial passes the
        same ``validating_ases`` object to every cell — so the check
        is O(1).  A new epoch drops the cached index and mask and the
        profile cache, whose invalid-seed entries depend on them.
        """
        if validating_ases is not self._validators_token:
            self._validators_token = validating_ases
            self._validators = None
            self._mask = None
            self._profiles.clear()
            self.metrics.epochs.inc()

    def _epoch(self) -> Optional[frozenset[int]]:
        """The current epoch's validating ASNs; ``None`` means every AS
        validates."""
        validating_ases = self._validators_token
        if validating_ases is self:
            raise ReproError("workspace epoch not opened; call begin()")
        return validating_ases

    def anyone_validates(self) -> bool:
        """Does any AS of the topology validate in this epoch?  Decided
        on the ASN set, without indexing it: ASNs outside the topology
        count for nothing."""
        validating_ases = self._epoch()
        if validating_ases is None:
            return True
        return not self.compiled.as_set.isdisjoint(validating_ases)

    def validates(self, asn: int) -> bool:
        """Does AS ``asn`` validate in this epoch?  Decided on the ASN
        set, without indexing it."""
        validating_ases = self._epoch()
        return validating_ases is None or asn in validating_ases

    def validators(self) -> Optional[frozenset[int]]:
        """The current epoch's validating AS *indices*, computed lazily
        straight from the ASN set (ASNs outside the topology are
        ignored); ``None`` means every AS validates."""
        validating_ases = self._epoch()
        if validating_ases is None:
            return None
        if self._validators is None:
            validators = frozenset(
                map(self.compiled.index_of.get, validating_ases)
            )
            if None in validators:  # an ASN outside the topology
                validators -= {None}
            self._validators = validators
            if self._mask is None:  # one build per epoch, in either form
                self.metrics.mask_builds.inc()
        return self._validators

    def mask(self) -> bytearray:
        """The current epoch's validators as the per-AS-index bitmask
        the ordered sweep reads, computed lazily."""
        if self._mask is None:
            validating_ases = self._epoch()
            if validating_ases is None:
                if self._universal_mask is None:
                    self._universal_mask = self.compiled.validation_mask(None)
                self._mask = self._universal_mask
            else:
                self._mask = self.compiled.validation_mask(validating_ases)
                if self._validators is None:
                    self.metrics.mask_builds.inc()
        return self._mask

    def has_customers(self) -> frozenset[int]:
        """ASes with at least one customer — the transit core, the
        only ASes a downward closure has to walk (most of an AS graph
        is stubs).  Built on the first closure, :meth:`transit_rows`
        with it, so a workspace that only ever sweeps never pays for
        either."""
        if self._has_customers is None:
            customer_rows = self.compiled.customer_rows
            core = frozenset(
                i for i, row in enumerate(customer_rows) if row
            )
            for i in sorted(core):
                inner = tuple(j for j in customer_rows[i] if j in core)
                if inner:
                    self._transit_rows[i] = inner
            self._has_customers = core
        return self._has_customers

    def transit_rows(self) -> dict[int, tuple[int, ...]]:
        """``customer_rows`` restricted to the core: each AS's
        customers that themselves have customers.  Sparse — an AS all
        of whose customers are stubs, like a stub itself, has no
        entry: 511 rows for 10 000 generated ASes."""
        self.has_customers()
        return self._transit_rows

    def cones(self) -> Optional[dict[int, int]]:
        """The customer cone of every core AS as a bitset — the AS and
        everything below it over customer edges — or ``None`` when the
        core's customer→provider graph has a cycle, which only
        hand-built and CAIDA-read topologies can have (then every
        closure walks).  Built once, on the first closure whose blocked
        set misses the core, children-first: a core AS is taken once
        all its core customers are, so its cone is its own bit, its
        stub customers' bits and its core customers' cones.  Takes
        core × ⌈n/8⌉ bytes: 1.4 MiB at 10 000 generated ASes."""
        if not self._cones_built:
            self._cones_built = True
            self._cones = _customer_cones(
                self.compiled, self.has_customers(), self.transit_rows()
            )
        return self._cones

    def profile(self, key: tuple) -> Optional[int]:
        """The adopted bitset cached under ``key`` in this epoch, if
        any."""
        profile = self._profiles.get(key)
        if profile is not None:
            # Refresh recency (dict order is insertion order), so the
            # cap evicts the least recently used profile — never a hot
            # one like the trial's victim-cover profile.
            del self._profiles[key]
            self._profiles[key] = profile
            self.metrics.profile_hits.inc()
            return profile
        self.metrics.profile_misses.inc()
        return None

    def store_profile(self, key: tuple, profile: int) -> None:
        """Cache ``profile`` under ``key``, evicting the least recently
        used entry at :data:`_PROFILE_CAP` (dict order is insertion
        order)."""
        profiles = self._profiles
        if key not in profiles and len(profiles) >= _PROFILE_CAP:
            del profiles[next(iter(profiles))]
        profiles[key] = profile


def _check_seeds(
    compiled: CompiledTopology, seed_list: Sequence[Seed]
) -> None:
    """Reject what the object engine rejects, with the same error."""
    seen: set[int] = set()
    for seed in seed_list:
        if seed.asn not in compiled.index_of:
            raise SimulationError(f"seed AS{seed.asn} not in topology")
        if seed.asn in seen:
            raise SimulationError(f"duplicate seed for AS{seed.asn}")
        seen.add(seed.asn)


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
) -> tuple[_State, _Lane]:
    """The three Gao–Rexford phases as array sweeps.

    ``lane`` supplies reusable arrays (fresh ones are allocated when
    absent); it must satisfy the clean-lane invariant on entry and is
    returned dirty — the caller resets it.  ``mask`` lets a workspace
    pass the epoch's precomputed validator bitmask, in which case
    ``validating_ases`` is not read.
    """
    n = len(compiled)
    index_of = compiled.index_of
    _check_seeds(compiled, seed_list)

    # One validation verdict per seed: every propagated copy claims the
    # seed's origin, so the object engine's per-offer radix walk is a
    # constant here.
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


@contextlib.contextmanager
def _lane_propagation(
    workspace: PropagationWorkspace,
    prefix: Prefix,
    seed_list: list[Seed],
    vrp_index: Optional[VrpIndex],
    rng: Optional[random.Random],
):
    """The lane lifecycle protocol, shared by every sweep call site:
    acquire the workspace lane, propagate, yield the raw state for the
    caller to read, then restore the clean-lane invariant — O(touched)
    on success, a full reinitialization when the sweep died partway and
    the bookkeeping cannot be trusted."""
    lane = workspace.lane(0)
    try:
        state, _ = _propagate(
            workspace.compiled, prefix, seed_list, vrp_index, None, rng,
            lane=lane,
            mask=workspace.mask() if vrp_index is not None else None,
        )
    except BaseException:
        lane.hard_reset()
        raise
    try:
        yield state
    finally:
        metrics = workspace.metrics
        if metrics.enabled:
            # Read the touched count BEFORE reset clears the list.
            metrics.sweeps.inc()
            metrics.touched_ases.inc(len(lane.touched))
        lane.reset()


def _closure(
    workspace: PropagationWorkspace, seed: Seed, invalid: bool
) -> int:
    """The adopted bitset of a single-seed propagation, as
    reachability.

    With one seed nothing competes: every AS that is offered the route
    adopts it, so *who* adopts depends on neither path lengths nor
    tie-break draws.  It is the three Gao–Rexford phases read as a
    closure — up over provider edges, one hop over peer edges, down
    over customer edges — never entering the seed's blocked set (its
    initial path; the validating ASes too when the seed is
    RFC 6811-invalid).  The up and peer steps are each one C-level
    union of CSR rows and reach tens of ASes.

    The down phase is where the graph is (every stub hangs off it).
    When no blocked AS but the origin has customers, nothing cuts it:
    every AS below a reached core AS adopts, and the phase is one OR of
    the reached core ASes' :meth:`~PropagationWorkspace.cones`.
    Otherwise it walks only the transit core: the reached ASes that
    have customers, closed over
    :meth:`~PropagationWorkspace.transit_rows` — sets of at most core
    size — and then every core member's whole customer row in one
    union, the blocked set taken out once.  A blocked core AS is never
    walked, so its cone is cut; it is still struck when another core
    member lists it as a customer.
    """
    compiled = workspace.compiled
    _check_seeds(compiled, (seed,))
    index_of = compiled.index_of
    origin = index_of[seed.asn]
    blocked = frozenset(
        index_of[asn] for asn in seed.path if asn in index_of
    )
    if invalid:
        if workspace.validates(seed.asn):
            return 0
        blocked |= workspace.validators()

    reached = {origin}
    frontier = reached
    rows = compiled.provider_rows.__getitem__
    while frontier:
        frontier = set().union(*map(rows, frontier)) - reached
        frontier -= blocked
        reached |= frontier
    reached |= (
        set().union(*map(compiled.peer_rows.__getitem__, reached)) - blocked
    )
    has_customers = workspace.has_customers()
    core = reached & has_customers
    # The origin is blocked (it is on its own path) but cuts nothing:
    # it is reached, and its cone with it.
    cones = (
        workspace.cones()
        if (blocked & has_customers) <= {origin} else None
    )
    n = len(compiled)
    if cones is not None:
        adopted = reduce(or_, map(cones.__getitem__, core), _bits(reached, n))
        return (adopted & ~_bits(blocked, n)) | _BIT(origin)
    transit = workspace.transit_rows()
    rows = transit.__getitem__
    frontier = core & transit.keys()
    while frontier:
        frontier = set().union(*map(rows, frontier)) - core
        frontier -= blocked
        core |= frontier
        frontier &= transit.keys()
    reached.update(*map(compiled.customer_rows.__getitem__, core))
    reached -= blocked
    reached.add(origin)  # on its own path, so blocked — and adopted
    return _bits(reached, n)


def _single_seed_outcome(
    workspace: PropagationWorkspace,
    prefix: Prefix,
    seed: Seed,
    vrp_index: Optional[VrpIndex],
) -> int:
    """The adopted bitset of a single-seed propagation: the
    :func:`_closure`, computed once per (seed, RFC 6811 verdict) and
    validator epoch.  Where nobody validates, a verdict changes
    nothing, and an invalid seed shares the valid seed's profile."""
    invalid = (
        vrp_index is not None
        and vrp_index.validate(prefix, seed.path[-1])
        is ValidationState.INVALID
        and workspace.anyone_validates()
    )
    key = (seed.asn, seed.path, invalid)
    adopted = workspace.profile(key)
    if adopted is None:
        adopted = _closure(workspace, seed, invalid)
        metrics = workspace.metrics
        if metrics.enabled:
            metrics.closures.inc()
            metrics.touched_ases.inc(adopted.bit_count())
        workspace.store_profile(key, adopted)
    return adopted
