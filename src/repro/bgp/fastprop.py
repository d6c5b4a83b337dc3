"""CAIDA-scale route propagation: Gao–Rexford as set closures.

:func:`repro.bgp.simulation.propagate_prefix` is a faithful but
object-heavy bucketed BFS: every neighbor view builds a frozenset,
every offer builds a path tuple and scans it for loops, and — when
origin validation is on — every offer looks up the VRP index.  The
measurement needs none of that: it asks only *which seed* each AS
adopts.  This module answers that over a
:class:`~repro.bgp.topology.CompiledTopology`:

* adjacency is CSR-style rows of AS indices, unioned a frontier at a
  time in C (``set().union(*rows)``), never walked offer by offer;
* origin validation collapses to one RFC 6811 verdict per *seed*
  (every propagated copy of an announcement claims the same origin):
  an invalid seed's blocked set gains the validating ASes;
* an outcome is a *bitset*, a Python int whose bit *i* says AS index
  *i* adopts, so a cell is judged by popcounts.

Paths are never materialized.  Who adopts which seed is decided by
the seed's blocked set (its initial path — loop prevention: every
later hop of a path has adopted already — plus, for an invalid seed,
the validators), by route class and path length, and, among equally
preferred offers from different seeds, by the order-free tie-break
:func:`repro.bgp.simulation.tie_winner` — the rule the object engine
applies too.  So the tests hold this module to ``propagate_prefix``
and ``reference_attack_seeds`` seed for seed; nothing in the product
runs those.

**Two paths.**  :func:`repro.bgp.attacks.evaluate_attack_seeds`, the
measurement core built on this module, propagates an announcement in
one of two ways, chosen by whether seeds compete.

* *One seed* (the victim's covering route, a lone subprefix attacker):
  nothing competes, so every AS that is offered the route adopts it and
  *who adopts* is a reachability closure of (seed, blocked set) —
  independent of path lengths and tie-breaks.  :func:`_closure`
  computes it: where the blocked set misses the transit core, the
  whole down phase is one OR of precomputed customer cones; otherwise
  the core is walked with set algebra over the CSR rows and the result
  packed once.  A :class:`PropagationWorkspace` caches the bitset per
  (seed, RFC 6811 verdict) for the validator epoch, so the covering
  route is computed once per trial, not once per cell.
* *Seeds compete* (a same-prefix attack, several attackers at once):
  :func:`_race`, the same closure with one colour per seed, taken
  level by level in path-length order so that the shortest offer wins
  and equal ones meet the tie-break.  One bitset per seed.  Never
  cached: it depends on the trial's tie seed.

A grid of subprefix attacks only (the paper's sec. 4/5 experiments)
never races.  The workspace indexes the validator set at most once per
trial, and only when an invalid seed has validators to walk around.
"""

from __future__ import annotations

from functools import reduce
from operator import or_
from types import SimpleNamespace
from typing import Collection, Optional, Sequence, Union

from ..netbase.errors import ReproError
from ..netbase.prefix import Prefix
from ..obs.metrics import MetricsRegistry, get_registry
from .origin_validation import ValidationState, VrpIndex
from .simulation import Seed, SimulationError, tie_winner
from .topology import AsTopology, CompiledTopology

__all__ = ["PropagationWorkspace"]

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


class PropagationWorkspace:
    """Reusable per-worker state for trial evaluation.

    Allocate one per (worker, topology) and pass it to
    :func:`repro.bgp.attacks.evaluate_attack_seeds`: the validator set
    is indexed at most once per epoch instead of once per propagation,
    the transit core and the customer cones are built once, on the
    first closure or race that uses them, and a single-seed
    propagation's adopted bitset is computed once per epoch (see the
    module docstring).  Results are those of a call that is given no
    workspace and makes a transient one — which the test suite pins.

    The workspace counts its own behavior into ``registry`` under the
    ``fastprop.`` namespace — ``sweeps`` (races: propagations in which
    seeds compete), ``closures`` (single-seed adopted sets computed),
    ``touched_ases`` (ASes adopted, by either), profile cache
    hits/misses, ``mask_builds`` (validator indexes built, which only
    an invalid seed with validators to walk around asks for) — by
    default the process registry at construction time, so worker
    processes each record into their own.

    Not thread-safe; share nothing across threads or processes.
    """

    def __init__(
        self,
        topology: Union[AsTopology, CompiledTopology],
        *,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.compiled = _compiled_of(topology)
        registry = registry if registry is not None else get_registry()
        # Counters only — the kernel never reads a clock — resolved
        # once per workspace.
        self._counting = registry.enabled
        self._sweeps = registry.counter("fastprop.sweeps")
        self._closures = registry.counter("fastprop.closures")
        self._touched_ases = registry.counter("fastprop.touched_ases")
        self._profile_hits = registry.counter("fastprop.profile_hits")
        self._profile_misses = registry.counter("fastprop.profile_misses")
        self._mask_builds = registry.counter("fastprop.mask_builds")
        self._epochs = registry.counter("fastprop.epochs")
        self._profiles: dict[tuple, int] = {}
        self._validators_token: object = self  # sentinel: no epoch yet
        self._validators: Optional[frozenset[int]] = None
        self._has_customers: Optional[frozenset[int]] = None
        self._transit_rows: Optional[dict[int, tuple[int, ...]]] = None
        self._cones: Optional[dict[int, int]] = None
        self._cones_built = False

    def lane(self, index: int = 0) -> SimpleNamespace:
        """The per-AS arrays the workspace keeps for a propagation:
        none.  The closure and the race hold their state in sets and
        bitsets, so every lane is empty and sizes at 0 bytes; callers
        that report a workspace's array memory still get an object to
        size."""
        return SimpleNamespace()

    def begin(self, validating_ases: Optional[frozenset[int]]) -> None:
        """Open a validator epoch (one per trial, shared by its cells).

        Epochs are tracked by object identity — a trial passes the
        same ``validating_ases`` object to every cell — so the check
        is O(1).  A new epoch drops the cached index and the profile
        cache, whose invalid-seed entries depend on it.
        """
        if validating_ases is not self._validators_token:
            self._validators_token = validating_ases
            self._validators = None
            self._profiles.clear()
            self._epochs.inc()

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
        ignored) and counted in ``mask_builds``; ``None`` means every
        AS validates."""
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
            self._mask_builds.inc()
        return self._validators

    def has_customers(self) -> frozenset[int]:
        """ASes with at least one customer — the transit core, the
        only ASes a downward closure has to walk (most of an AS graph
        is stubs).  Built on the first closure or race."""
        if self._has_customers is None:
            self._has_customers = frozenset(
                i for i, row in enumerate(self.compiled.customer_rows)
                if row
            )
        return self._has_customers

    def transit_rows(self) -> dict[int, tuple[int, ...]]:
        """``customer_rows`` restricted to the core: each AS's
        customers that themselves have customers.  Sparse — an AS all
        of whose customers are stubs, like a stub itself, has no
        entry: 511 rows for 10 000 generated ASes.  Built on the first
        closure that walks or builds the cones, so a workspace that
        only races never pays for it."""
        if self._transit_rows is None:
            core = self.has_customers()
            customer_rows = self.compiled.customer_rows
            transit: dict[int, tuple[int, ...]] = {}
            for i in sorted(core):
                inner = tuple(j for j in customer_rows[i] if j in core)
                if inner:
                    transit[i] = inner
            self._transit_rows = transit
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
            self._profile_hits.inc()
            return profile
        self._profile_misses.inc()
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


def _invalid(
    workspace: PropagationWorkspace,
    prefix: Prefix,
    seed: Seed,
    vrp_index: Optional[VrpIndex],
) -> bool:
    """Is ``seed`` RFC 6811-invalid for ``prefix`` where it matters —
    with somebody in the topology validating?  Where nobody does, a
    verdict changes nothing."""
    return (
        vrp_index is not None
        and vrp_index.validate(prefix, seed.path[-1])
        is ValidationState.INVALID
        and workspace.anyone_validates()
    )


def _closure(
    workspace: PropagationWorkspace, seed: Seed, invalid: bool
) -> int:
    """The adopted bitset of a single-seed propagation, as
    reachability.

    With one seed nothing competes: every AS that is offered the route
    adopts it, so *who* adopts depends on neither path lengths nor
    tie-breaks.  It is the three Gao–Rexford phases read as a
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
    invalid = _invalid(workspace, prefix, seed, vrp_index)
    key = (seed.asn, seed.path, invalid)
    adopted = workspace.profile(key)
    if adopted is None:
        adopted = _closure(workspace, seed, invalid)
        workspace._closures.inc()
        if workspace._counting:  # bit_count is O(n): skip it when off
            workspace._touched_ases.inc(adopted.bit_count())
        workspace.store_profile(key, adopted)
    return adopted


def _race(
    workspace: PropagationWorkspace,
    prefix: Prefix,
    seed_list: Sequence[Seed],
    vrp_index: Optional[VrpIndex],
    tie_seed: Optional[int],
) -> list[int]:
    """The adopted bitset of every seed of a propagation in which
    seeds compete: the :func:`_closure` with one colour per seed.

    A seed is held at its AS unless that AS validates and the seed is
    invalid; it is offered on as the closure offers it, never into its
    own blocked set.  The three phases — up over provider edges, one
    peer hop, down over customer edges — take the offers a *level* at
    a time: all offers of one path length, in C-level unions of CSR
    rows, before any longer one.  So an AS adopts at the shortest
    length it is offered in its phase, as in the object engine, and
    at that length all its offers are on the table at once.  Offers
    from one seed only need no choice: whichever neighbor wins, the AS
    holds that seed at that length and class, which is all that
    decides what it offers next (every later hop of a path has
    adopted, so loop prevention is the seed's blocked set plus the
    adopted ASes).  Where several seeds tie, the winner is the
    neighbor :func:`~repro.bgp.simulation.tie_winner` picks among every
    neighbor offering at that level — the object engine's rule over
    the same neighbors, and the only place a tie seed is read.

    Levels are keyed by *export* length: a seed's origin offers its
    initial path, every adopter its own path one hop longer.  The down
    phase unions only core exporters' rows (a stub has no customers).
    """
    compiled = workspace.compiled
    _check_seeds(compiled, seed_list)
    index_of = compiled.index_of
    asns = compiled.asns
    core = workspace.has_customers()

    #: export length → each seed's exporters at that length
    levels: dict[int, list[set[int]]] = {}

    def level(length: int) -> list[set[int]]:
        exporters = levels.get(length)
        if exporters is None:
            exporters = levels[length] = [set() for _ in seed_list]
        return exporters

    blocked: list[frozenset[int]] = []
    won: list[set[int]] = []
    for k, seed in enumerate(seed_list):
        block = frozenset(
            index_of[asn] for asn in seed.path if asn in index_of
        )
        origin: Optional[int] = index_of[seed.asn]
        if _invalid(workspace, prefix, seed, vrp_index):
            if workspace.validates(seed.asn):
                origin = None  # dropped by its own AS
            else:
                block |= workspace.validators()
        blocked.append(block)
        won.append(set() if origin is None else {origin})
        if origin is not None:
            level(len(seed.path))[k].add(origin)
    adopted: set[int] = set().union(*won)

    def settle(
        length: int,
        exporters: list[set[int]],
        rows: tuple[tuple[int, ...], ...],
        back: tuple[tuple[int, ...], ...],
    ) -> None:
        """Adopt what each seed's ``exporters`` offer over ``rows`` at
        export length ``length``, and queue the adopters that have
        customers to offer one hop longer.  ``back`` is the reverse
        relation, where a contested AS finds the neighbors offering to
        it."""
        offers = []
        offered: set[int] = set()
        contested: set[int] = set()
        for sources, block in zip(exporters, blocked):
            targets = set().union(*map(rows.__getitem__, sources))
            targets -= adopted
            targets -= block
            contested |= offered & targets
            offered |= targets
            offers.append(targets)
        adopted.update(offered)
        if contested:
            for targets in offers:
                targets -= contested
            for t in sorted(contested):
                seed_of = {
                    asns[j]: k
                    for k, sources in enumerate(exporters)
                    if t not in blocked[k]
                    for j in back[t]
                    if j in sources
                }
                offers[seed_of[tie_winner(tie_seed, asns[t], seed_of)]].add(t)
        for k, targets in enumerate(offers):
            won[k] |= targets
            targets &= core
            if targets:
                level(length + 1)[k] |= targets

    def sweep(
        rows: tuple[tuple[int, ...], ...],
        back: tuple[tuple[int, ...], ...],
    ) -> list[tuple[int, list[set[int]]]]:
        """Drain ``levels`` shortest first, chaining; returns the
        drained levels."""
        drained = []
        while levels:
            length = min(levels)
            exporters = levels.pop(length)
            drained.append((length, exporters))
            settle(length, exporters, rows, back)
        return drained

    provider_rows = compiled.provider_rows
    customer_rows = compiled.customer_rows
    # Phase 1 — customer routes climb provider edges (every provider
    # is core, so the climb queues everything it adopts).
    climbed = sweep(provider_rows, customer_rows)
    # Phase 2 — what phase 1 holds crosses one peering edge, shortest
    # first, without chaining; phase 3's levels collect meanwhile.
    for length, exporters in climbed:
        for sources, down in zip(exporters, level(length)):
            down |= sources & core
        settle(length, exporters, compiled.peer_rows, compiled.peer_rows)
    # Phase 3 — every adopted route descends customer edges.
    sweep(customer_rows, provider_rows)

    workspace._sweeps.inc()
    workspace._touched_ases.inc(len(adopted))
    n = len(compiled)
    return [_bits(adopters, n) for adopters in won]
