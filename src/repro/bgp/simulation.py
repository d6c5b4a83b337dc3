"""Single-prefix BGP route propagation under Gao–Rexford policy.

The evaluation of §4/§5 needs to *measure* attack effectiveness: what
fraction of the Internet routes to a hijacker under each attack
variant?  This module implements the standard interdomain propagation
model used by that literature (e.g. Lychev–Goldberg–Schapira [16]):

* **Preference**: customer routes over peer routes over provider
  routes; then shorter AS paths; then a tie-break on the advertising
  neighbor (:func:`tie_winner`).
* **Export**: routes learned from customers are exported to everyone;
  routes learned from peers or providers are exported only to
  customers.

Propagation proceeds in three phases — customer routes climb provider
links from the origins, peer routes cross one peering edge, provider
routes descend.  Within each phase, candidate routes are adopted in
strictly increasing path-length order (a bucketed BFS), so every AS
sees *all* of its equally-short options before the tie-break runs.
Length ordering matters because seeds may inject paths of different
lengths: a forged-origin announcement starts with path
``(attacker, victim)`` — one hop longer than the victim's honest
``(victim,)`` — which is exactly the handicap [16] identifies.

Origin validation plugs in as a filter: validating ASes silently
discard announcements whose (prefix, claimed origin) is RPKI-invalid.

**The tie-break is order-free.**  Among equally preferred offers
(same class, same path length) an AS adopts the one from the neighbor
with the lowest :func:`tie_rank` under the trial's ``tie_seed`` — a
keyed hash of (tie seed, AS, neighbor), so every equally good offer is
equally likely to win, and the winner depends on which offers tie, not
on the order they arrived or were evaluated in.  No RNG is read.  With
no tie seed the lowest neighbor ASN wins.

This is the readable model, not the product path: experiments run the
set closures of :mod:`repro.bgp.fastprop`, which call the same
:func:`tie_winner`, and the test suite holds them to
:func:`propagate_prefix` and :func:`reference_attack_seeds` seed for
seed.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

from ..netbase.errors import ReproError
from ..netbase.prefix import Prefix
from .origin_validation import ValidationState, VrpIndex
from .topology import AsTopology

__all__ = [
    "RouteClass", "Route", "Seed", "propagate_prefix",
    "reference_attack_seeds", "SimulationError", "tie_rank", "tie_winner",
]


class SimulationError(ReproError):
    """Inconsistent simulation setup (unknown seed AS, duplicate seeds)."""


class RouteClass(enum.IntEnum):
    """Adoption preference, best first."""

    ORIGIN = 0  # the AS itself injected the route
    CUSTOMER = 1
    PEER = 2
    PROVIDER = 3


@dataclass(frozen=True)
class Route:
    """The route one AS selected for the simulated prefix.

    Attributes:
        path: AS path as it stands at this AS (this AS not prepended).
        route_class: how the route arrived.
        seed: the AS that injected the announcement — for a forged
            path this is the *attacker*, even though ``path[-1]`` names
            the victim.
    """

    path: tuple[int, ...]
    route_class: RouteClass
    seed: int

    @property
    def length(self) -> int:
        return len(self.path)

    @property
    def claimed_origin(self) -> int:
        return self.path[-1]


@dataclass(frozen=True)
class Seed:
    """One announcement injected into the simulation.

    Attributes:
        asn: the AS sending the announcement.
        path: initial AS path; ``(asn,)`` for an honest origination,
            ``(asn, victim)`` for a forged-origin announcement.
    """

    asn: int
    path: tuple[int, ...]

    @classmethod
    def origin(cls, asn: int) -> "Seed":
        return cls(asn, (asn,))

    @classmethod
    def forged_origin(cls, attacker: int, victim: int) -> "Seed":
        return cls(attacker, (attacker, victim))


def tie_rank(tie_seed: int, asn: int, neighbor: int) -> int:
    """The rank of ``neighbor``'s offer in a tie at AS ``asn``: the
    first 8 bytes, big-endian, of a blake2b digest of
    ``"repro.bgp.tie/{tie_seed}/{asn}/{neighbor}"`` — the construction
    derived trial seeds and retry jitter use.  A contract, like
    ``spec_hash``: changing the encoding moves every same-prefix
    record."""
    key = f"repro.bgp.tie/{tie_seed}/{asn}/{neighbor}".encode()
    return int.from_bytes(
        hashlib.blake2b(key, digest_size=8).digest(), "big"
    )


def tie_winner(
    tie_seed: Optional[int], asn: int, neighbors: Iterable[int]
) -> int:
    """The tie-break, the one rule both engines call: of ``neighbors``
    (distinct ASNs, each offering AS ``asn`` an equally preferred
    route), the one whose offer ``asn`` adopts — the lowest
    :func:`tie_rank`, or with no ``tie_seed`` the lowest ASN.  Order-free
    in ``neighbors``."""
    if tie_seed is None:
        return min(neighbors)
    return min(
        neighbors,
        key=lambda neighbor: (tie_rank(tie_seed, asn, neighbor), neighbor),
    )


#: A candidate route offer: (advertising neighbor, full path, seed AS).
_Offer = tuple[int, tuple[int, ...], int]


def propagate_prefix(
    topology: AsTopology,
    prefix: Prefix,
    seeds: Iterable[Seed],
    *,
    vrp_index: Optional[VrpIndex] = None,
    validating_ases: Optional[frozenset[int]] = None,
    tie_seed: Optional[int] = None,
) -> dict[int, Route]:
    """Simulate propagation of one prefix; returns each AS's choice.

    Args:
        topology: the AS graph.
        prefix: the announced prefix (used only for origin validation).
        seeds: the competing announcements.
        vrp_index: when given, validating ASes drop announcements whose
            (prefix, claimed origin) is RPKI-INVALID.
        validating_ases: which ASes enforce validation; defaults to all
            (when ``vrp_index`` is given) — the paper's "RPKI deployed"
            setting.
        tie_seed: keys the tie-break (:func:`tie_winner`); None means
            deterministic (prefer the lower advertising-neighbor ASN).

    Returns:
        Mapping from ASN to the :class:`Route` it selected.  ASes that
        never hear a (surviving) route are absent.
    """
    seed_list = list(seeds)
    seen_seed_ases: set[int] = set()
    for seed in seed_list:
        if seed.asn not in topology:
            raise SimulationError(f"seed AS{seed.asn} not in topology")
        if seed.asn in seen_seed_ases:
            raise SimulationError(f"duplicate seed for AS{seed.asn}")
        seen_seed_ases.add(seed.asn)

    def drops(asn: int, path: tuple[int, ...]) -> bool:
        if vrp_index is None:
            return False
        if validating_ases is not None and asn not in validating_ases:
            return False
        return vrp_index.validate(prefix, path[-1]) is ValidationState.INVALID

    def tie_break(asn: int, options: list[_Offer]) -> _Offer:
        # One offer per advertising neighbor: each AS offers once per
        # phase.  The winner is a function of which neighbors tie, not
        # of the order their offers arrived in.
        if len(options) == 1:
            return options[0]
        by_neighbor = {offer[0]: offer for offer in options}
        return by_neighbor[tie_winner(tie_seed, asn, by_neighbor)]

    adopted: dict[int, Route] = {}
    for seed in seed_list:
        if not drops(seed.asn, seed.path):
            adopted[seed.asn] = Route(seed.path, RouteClass.ORIGIN, seed.asn)

    def sweep(
        exporters: list[tuple[int, Route]],
        next_hops: Callable[[int], frozenset[int]],
        route_class: RouteClass,
    ) -> None:
        """Adopt routes along ``next_hops`` edges in path-length order.

        ``exporters`` seeds the frontier; every adoption re-exports to
        its own ``next_hops``, so the sweep chains (phases 1 and 3).
        """
        buckets: dict[int, dict[int, list[_Offer]]] = {}

        def offer(source: int, route: Route) -> None:
            # A seed's own path already names it; everyone else prepends.
            if route.route_class is RouteClass.ORIGIN:
                path = route.path
            else:
                path = (source,) + route.path
            for target in next_hops(source):
                if target in adopted or target in path:
                    continue
                if drops(target, path):
                    continue
                buckets.setdefault(len(path), {}).setdefault(target, []).append(
                    (source, path, route.seed)
                )

        for asn, route in exporters:
            offer(asn, route)
        while buckets:
            length = min(buckets)
            batch = buckets.pop(length)
            for asn, options in sorted(batch.items()):
                if asn in adopted:
                    continue
                _neighbor, path, seed_asn = tie_break(asn, options)
                route = Route(path, route_class, seed_asn)
                adopted[asn] = route
                offer(asn, route)

    # Phase 1 — customer routes climb provider edges.
    sweep(list(adopted.items()), topology.providers_of, RouteClass.CUSTOMER)

    # Phase 2 — customer/origin routes cross one peering edge.  No
    # chaining: peer routes are not re-exported to peers, so collect
    # offers once and settle each AS by shortest-then-tie-break.
    peer_offers: dict[int, list[_Offer]] = {}
    for asn, route in list(adopted.items()):
        if route.route_class not in (RouteClass.ORIGIN, RouteClass.CUSTOMER):
            continue
        if route.route_class is RouteClass.ORIGIN:
            path = route.path
        else:
            path = (asn,) + route.path
        for peer in topology.peers_of(asn):
            if peer in adopted or peer in path:
                continue
            if drops(peer, path):
                continue
            peer_offers.setdefault(peer, []).append((asn, path, route.seed))
    for asn, options in sorted(peer_offers.items()):
        best_length = min(len(path) for _n, path, _s in options)
        shortest = [opt for opt in options if len(opt[1]) == best_length]
        _neighbor, path, seed_asn = tie_break(asn, shortest)
        adopted[asn] = Route(path, RouteClass.PEER, seed_asn)

    # Phase 3 — every adopted route descends customer edges.
    sweep(list(adopted.items()), topology.customers_of, RouteClass.PROVIDER)

    return adopted


def reference_attack_seeds(
    topology: AsTopology,
    victim: int,
    victim_prefix: Prefix,
    attack_prefix: Prefix,
    attacker_seeds: Sequence[Seed],
    *,
    vrp_index: Optional[VrpIndex] = None,
    validating_ases: Optional[frozenset[int]] = None,
    tie_seed: Optional[int] = None,
) -> tuple[tuple[float, float, float], bool]:
    """:func:`repro.bgp.attacks.evaluate_attack_seeds` written out over
    :func:`propagate_prefix`: the oracle the product path is tested
    against (invariant 3) — same fractions and flag, every route
    materialized.  Nothing in the product calls it."""
    attackers = frozenset(seed.asn for seed in attacker_seeds)
    judged = frozenset(topology.ases) - {victim} - attackers
    if not judged:
        raise ReproError("topology too small to judge an attack")

    victim_seed = Seed.origin(victim)
    is_subprefix = attack_prefix != victim_prefix
    options = dict(
        vrp_index=vrp_index, validating_ases=validating_ases,
        tie_seed=tie_seed,
    )

    if is_subprefix:
        covering_routes = propagate_prefix(
            topology, victim_prefix, [victim_seed], **options
        )
        attack_routes = propagate_prefix(
            topology, attack_prefix, list(attacker_seeds), **options
        )
    else:
        covering_routes = propagate_prefix(
            topology, victim_prefix, [victim_seed, *attacker_seeds],
            **options,
        )
        attack_routes = {}

    attacker_count = 0
    victim_count = 0
    disconnected = 0
    for asn in sorted(judged):
        # Longest-prefix match: the attack prefix is at least as
        # specific as the covering one, so a route for it wins.
        route = attack_routes.get(asn) or covering_routes.get(asn)
        if route is None:
            disconnected += 1
        elif route.seed in attackers:
            attacker_count += 1
        else:
            victim_count += 1

    total = len(judged)
    if is_subprefix:
        filtered = not attack_routes  # nobody adopted the attack prefix
    elif vrp_index is None:
        filtered = False
    else:
        # Filtered everywhere: invalid, and every AS validates.
        universal = (
            validating_ases is None or topology.ases <= validating_ases
        )
        filtered = universal and all(
            vrp_index.validate(attack_prefix, seed.path[-1])
            is ValidationState.INVALID
            for seed in attacker_seeds
        )
    return (
        (
            attacker_count / total,
            victim_count / total,
            disconnected / total,
        ),
        filtered,
    )
