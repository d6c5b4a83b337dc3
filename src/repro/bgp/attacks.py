"""Hijack attack scenarios and their effectiveness measurement.

The four attacks the paper contrasts (§2, §4, §5):

================================  =======================  ==================
attack                            announcement             RPKI verdict
================================  =======================  ==================
prefix hijack                     "p: AS m"                invalid (dropped)
subprefix hijack                  "q ⊂ p: AS m"            invalid (dropped)
forged-origin (same prefix)       "p: AS m, AS v"          valid — traffic
                                                           *splits* with the
                                                           legit route
forged-origin subprefix           "q ⊂ p: AS m, AS v"      valid when a
                                                           non-minimal ROA
                                                           covers q — attacker
                                                           gets **100%** of q
================================  =======================  ==================

Each scenario builder returns the seeds for
:func:`repro.bgp.simulation.propagate_prefix`; :func:`evaluate_attack`
runs the simulation(s) and reports the attacker's capture fraction over
the target address space, using longest-prefix-match to combine the
hijacked prefix with the victim's covering route.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass
from typing import Optional, Sequence

from ..netbase.errors import ReproError
from ..netbase.prefix import Prefix
from .origin_validation import ValidationState, VrpIndex
from .simulation import Route, Seed, propagate_prefix
from .topology import AsTopology

__all__ = [
    "AttackKind",
    "AttackScenario",
    "AttackOutcome",
    "DEFAULT_ENGINE",
    "ENGINES",
    "coerce_engine",
    "evaluate_attack",
    "evaluate_attack_seeds",
]

#: The two propagation backends: ``"array"`` is the flat-array engine
#: in :mod:`repro.bgp.fastprop`, the one everything runs on;
#: ``"object"`` is the readable bucketed BFS in
#: :mod:`repro.bgp.simulation`, kept selectable as the reference the
#: array engine is tested against (architecture invariant 3: identical
#: routes, fractions and RNG stream).
ENGINES = ("object", "array")

#: What a spec, a CLI run or a direct call gets when it names no engine.
DEFAULT_ENGINE = "array"


def coerce_engine(engine: str) -> str:
    """Validate an engine name; loud on unknowns."""
    if engine not in ENGINES:
        raise ReproError(
            f"unknown propagation engine {engine!r}; expected {ENGINES}"
        )
    return engine


class AttackKind(str, enum.Enum):
    """The four attack variants, as a real enum.

    The string mixin keeps the historical wire/CLI names working:
    ``AttackKind("forged-origin")`` parses, members compare equal to
    their name strings, and formatting yields the bare name.
    """

    PREFIX_HIJACK = "prefix-hijack"
    SUBPREFIX_HIJACK = "subprefix-hijack"
    FORGED_ORIGIN = "forged-origin"
    FORGED_ORIGIN_SUBPREFIX = "forged-origin-subprefix"

    def __str__(self) -> str:
        return self.value

    @classmethod
    def coerce(cls, value: "AttackKind | str") -> "AttackKind":
        """Parse a member from itself or its name; loud on unknowns."""
        try:
            return cls(value)
        except ValueError:
            raise ReproError(
                f"unknown attack kind {value!r}; expected one of "
                f"{[member.value for member in cls]}"
            ) from None

    @property
    def forges_origin(self) -> bool:
        """Does the announcement end in the victim's AS number?"""
        return self in (
            AttackKind.FORGED_ORIGIN,
            AttackKind.FORGED_ORIGIN_SUBPREFIX,
        )

    @property
    def is_subprefix(self) -> bool:
        """Does the attacker announce a strict subprefix?"""
        return self in (
            AttackKind.SUBPREFIX_HIJACK,
            AttackKind.FORGED_ORIGIN_SUBPREFIX,
        )


@dataclass(frozen=True)
class AttackScenario:
    """One (victim, attacker) experiment.

    Attributes:
        kind: an :class:`AttackKind` member; historical string names
            are coerced, unknown names raise :class:`ReproError`.
        victim: the legitimate origin AS.
        attacker: the hijacking AS ("AS m" in the paper).
        victim_prefix: the prefix the victim announces.
        attack_prefix: the prefix the attacker announces (equal to
            ``victim_prefix`` for same-prefix attacks, a subprefix for
            subprefix attacks).
    """

    kind: AttackKind
    victim: int
    attacker: int
    victim_prefix: Prefix
    attack_prefix: Prefix

    def __post_init__(self) -> None:
        object.__setattr__(self, "kind", AttackKind.coerce(self.kind))
        if not self.victim_prefix.covers(self.attack_prefix):
            raise ReproError(
                f"attack prefix {self.attack_prefix} outside victim's "
                f"{self.victim_prefix}"
            )

    def attacker_seed(self) -> Seed:
        """The attacker's announcement for this attack kind."""
        if self.kind.forges_origin:
            return Seed.forged_origin(self.attacker, self.victim)
        return Seed.origin(self.attacker)

    @property
    def is_subprefix_attack(self) -> bool:
        return self.attack_prefix != self.victim_prefix


@dataclass(frozen=True)
class AttackOutcome:
    """Result of simulating one scenario.

    Attributes:
        scenario: the input.
        attacker_fraction: share of ASes whose traffic for the attacked
            address space reaches the attacker.
        victim_fraction: share reaching the victim.
        disconnected_fraction: share with no route at all (e.g. the
            hijacked announcement was dropped as invalid and the space
            is not otherwise covered).
        attack_route_filtered: True when RPKI validation removed the
            attacker's announcement everywhere.
    """

    scenario: AttackScenario
    attacker_fraction: float
    victim_fraction: float
    disconnected_fraction: float
    attack_route_filtered: bool

    def __str__(self) -> str:
        return (
            f"{self.scenario.kind}: attacker {100 * self.attacker_fraction:.1f}% "
            f"victim {100 * self.victim_fraction:.1f}% "
            f"(AS{self.scenario.attacker} vs AS{self.scenario.victim})"
        )


def evaluate_attack(
    topology: AsTopology,
    scenario: AttackScenario,
    *,
    vrp_index: Optional[VrpIndex] = None,
    validating_ases: Optional[frozenset[int]] = None,
    rng: Optional[random.Random] = None,
    engine: str = DEFAULT_ENGINE,
) -> AttackOutcome:
    """Simulate a hijack and measure who captures the attacked space.

    The victim announces ``victim_prefix`` honestly.  The attacker
    announces ``attack_prefix`` per the scenario kind.  For subprefix
    attacks the two announcements are separate BGP destinations and
    longest-prefix match sends the contested space to whoever has the
    more specific route; for same-prefix attacks the two seeds compete
    inside a single propagation.

    Measurement is over all ASes (excluding the two parties): for each
    AS we resolve where a packet addressed inside ``attack_prefix``
    ends up, following the AS's most specific route.
    """
    fractions, filtered = evaluate_attack_seeds(
        topology, scenario.victim, scenario.victim_prefix,
        scenario.attack_prefix, [scenario.attacker_seed()],
        vrp_index=vrp_index, validating_ases=validating_ases, rng=rng,
        engine=engine,
    )
    return AttackOutcome(
        scenario=scenario,
        attacker_fraction=fractions[0],
        victim_fraction=fractions[1],
        disconnected_fraction=fractions[2],
        attack_route_filtered=filtered,
    )


def evaluate_attack_seeds(
    topology: AsTopology,
    victim: int,
    victim_prefix: Prefix,
    attack_prefix: Prefix,
    attacker_seeds: Sequence[Seed],
    *,
    vrp_index: Optional[VrpIndex] = None,
    validating_ases: Optional[frozenset[int]] = None,
    rng: Optional[random.Random] = None,
    engine: str = DEFAULT_ENGINE,
    workspace=None,
) -> tuple[tuple[float, float, float], bool]:
    """The measurement core, generalized to any attacker seed list.

    The victim honestly originates ``victim_prefix``; every seed in
    ``attacker_seeds`` (arbitrary paths — forged origins, prepending,
    several simultaneous attackers) announces ``attack_prefix``.
    Returns ``((attacker, victim, disconnected) fractions, filtered)``
    over all judged ASes (everyone outside the cast), resolving each
    by longest-prefix match as in :func:`evaluate_attack`.

    ``rng`` breaks ties where seeds compete inside one propagation — a
    same-prefix attack, or any number of attackers other than one — and
    is advanced only there; a subprefix attack by one attacker is two
    lone announcements, reads no draw and leaves ``rng`` untouched.

    ``engine`` selects the propagation backend (see :data:`ENGINES`);
    both produce identical results and leave ``rng`` in the same state,
    the default ``"array"`` an order of magnitude faster on large
    graphs.  ``workspace`` — an array-engine
    :class:`~repro.bgp.fastprop.PropagationWorkspace` — lets repeated
    evaluations reuse state arrays and cached adopted sets; it is
    ignored by the object engine and never changes results.
    """
    if coerce_engine(engine) == "array":
        from .fastprop import evaluate_attack_seeds_array

        return evaluate_attack_seeds_array(
            topology, victim, victim_prefix, attack_prefix,
            attacker_seeds, vrp_index=vrp_index,
            validating_ases=validating_ases, rng=rng,
            workspace=workspace,
        )
    attackers = frozenset(seed.asn for seed in attacker_seeds)
    judged = frozenset(topology.ases) - {victim} - attackers
    if not judged:
        raise ReproError("topology too small to judge an attack")

    victim_seed = Seed.origin(victim)
    is_subprefix = attack_prefix != victim_prefix

    if is_subprefix:
        # A lone announcement is adopted by whoever it reaches, whatever
        # a tie-break returns, so it is propagated without the RNG: the
        # caller's stream advances only where seeds compete.
        covering_routes = propagate_prefix(
            topology, victim_prefix, [victim_seed],
            vrp_index=vrp_index, validating_ases=validating_ases,
        )
        attack_routes = propagate_prefix(
            topology, attack_prefix, list(attacker_seeds),
            vrp_index=vrp_index, validating_ases=validating_ases,
            rng=rng if len(attacker_seeds) != 1 else None,
        )
    else:
        combined = propagate_prefix(
            topology, victim_prefix, [victim_seed, *attacker_seeds],
            vrp_index=vrp_index, validating_ases=validating_ases, rng=rng,
        )
        covering_routes = combined
        attack_routes = {}

    attacker_count = 0
    victim_count = 0
    disconnected = 0
    for asn in sorted(judged):
        route = _preferred_route(asn, attack_routes, covering_routes)
        if route is None:
            disconnected += 1
        elif route.seed in attackers:
            attacker_count += 1
        else:
            victim_count += 1

    total = len(judged)
    if is_subprefix:
        # Propagation-derived: the attacker's prefix is a separate BGP
        # destination, so "filtered everywhere" means nobody adopted it.
        filtered = not attack_routes
    elif vrp_index is None:
        filtered = False
    else:
        # Same-prefix attacks share one propagation with the victim, so
        # derive the claim from the VRP verdict — but an INVALID verdict
        # only removes the announcement *everywhere* when every AS
        # actually validates.
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


def _preferred_route(
    asn: int,
    attack_routes: dict[int, Route],
    covering_routes: dict[int, Route],
) -> Optional[Route]:
    """Longest-prefix match between the two route tables.

    The attack prefix is at least as specific as the covering prefix,
    so an AS holding a route for it always prefers that route for
    addresses inside it.
    """
    if asn in attack_routes:
        return attack_routes[asn]
    return covering_routes.get(asn)
