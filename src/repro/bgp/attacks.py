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

Each scenario builder returns the attacker's
:class:`~repro.bgp.simulation.Seed`; :func:`evaluate_attack` propagates
the announcements and reports the attacker's capture fraction over the
target address space, using longest-prefix-match to combine the
hijacked prefix with the victim's covering route.
:func:`evaluate_attack_seeds` is the one measurement core; its
readable reference is :func:`repro.bgp.simulation.reference_attack_seeds`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import or_
from typing import TYPE_CHECKING, Optional, Sequence, Union

from ..netbase.errors import ReproError
from ..netbase.prefix import Prefix
from .attack_kind import AttackKind
from .origin_validation import ValidationState, VrpIndex
from .simulation import Seed
from .topology import AsTopology, CompiledTopology

if TYPE_CHECKING:  # pragma: no cover — the kernel is imported on use
    from .fastprop import PropagationWorkspace

__all__ = [
    "AttackKind",
    "AttackScenario",
    "AttackOutcome",
    "evaluate_attack",
    "evaluate_attack_seeds",
]


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
    tie_seed: Optional[int] = None,
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
        vrp_index=vrp_index, validating_ases=validating_ases,
        tie_seed=tie_seed,
    )
    return AttackOutcome(
        scenario=scenario,
        attacker_fraction=fractions[0],
        victim_fraction=fractions[1],
        disconnected_fraction=fractions[2],
        attack_route_filtered=filtered,
    )


def evaluate_attack_seeds(
    topology: Union[AsTopology, CompiledTopology],
    victim: int,
    victim_prefix: Prefix,
    attack_prefix: Prefix,
    attacker_seeds: Sequence[Seed],
    *,
    vrp_index: Optional[VrpIndex] = None,
    validating_ases: Optional[frozenset[int]] = None,
    tie_seed: Optional[int] = None,
    workspace: Optional[PropagationWorkspace] = None,
) -> tuple[tuple[float, float, float], bool]:
    """The measurement core, generalized to any attacker seed list.

    The victim honestly originates ``victim_prefix``; every seed in
    ``attacker_seeds`` (arbitrary paths — forged origins, prepending,
    several simultaneous attackers) announces ``attack_prefix``.
    Returns ``((attacker, victim, disconnected) fractions, filtered)``
    over all judged ASes (everyone outside the cast), resolving each
    by longest-prefix match as in :func:`evaluate_attack`.

    ``tie_seed`` keys the tie-break
    (:func:`repro.bgp.simulation.tie_winner`) where seeds compete
    inside one propagation — a same-prefix attack, or any number of
    attackers other than one; a subprefix attack by one attacker is
    two lone announcements, and no tie seed changes who adopts them.

    Propagation runs on :mod:`repro.bgp.fastprop`: every adopted set
    is a bitset — no path is materialized — and a cell is judged by
    popcounts, over ``topology`` in either form.  A
    :class:`~repro.bgp.fastprop.PropagationWorkspace` (one per worker)
    reuses indexes and single-seed bitsets across calls; without one a
    transient workspace serves this call, byte-identically.  The tests
    hold it to :func:`repro.bgp.simulation.reference_attack_seeds`.
    """
    # On use: queue clients import this module and must not load the kernel.
    from .fastprop import (
        PropagationWorkspace,
        _compiled_of,
        _race,
        _single_seed_outcome,
    )

    if workspace is None:
        workspace = PropagationWorkspace(topology)
    elif workspace.compiled is not _compiled_of(topology):
        raise ReproError("workspace was built for a different topology")
    compiled = workspace.compiled
    workspace.begin(validating_ases)
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

    # Every adopted set is a bitset (bit i: AS index i adopts).
    if is_subprefix:
        cover = _single_seed_outcome(
            workspace, victim_prefix, victim_seed, vrp_index
        )
        if len(attacker_seeds) == 1:
            attack = _single_seed_outcome(
                workspace, attack_prefix, attacker_seeds[0], vrp_index
            )
        else:
            attack = reduce(or_, _race(
                workspace, attack_prefix, attacker_seeds, vrp_index,
                tie_seed,
            ), 0)
        filtered = not attack
    else:
        cover, *attacks = _race(
            workspace, victim_prefix, [victim_seed, *attacker_seeds],
            vrp_index, tie_seed,
        )
        attack = reduce(or_, attacks, 0)
        if vrp_index is None:
            filtered = False
        else:
            # Same-prefix attacks share one propagation with the victim,
            # so derive the claim from the VRP verdict — but an INVALID
            # verdict only removes the announcement *everywhere* when
            # every AS actually validates.
            universal = (
                validating_ases is None
                or compiled.as_set <= validating_ases
            )
            filtered = universal and all(
                vrp_index.validate(attack_prefix, seed.path[-1])
                is ValidationState.INVALID
                for seed in attacker_seeds
            )
    # Longest-prefix match: an attack-prefix route wins wherever one
    # was adopted; the covering route serves the rest.  (In a
    # same-prefix race the two are disjoint already.)
    victim_count = (cover & ~attack).bit_count()
    attacker_count = attack.bit_count()
    for i in cast:
        if attack >> i & 1:
            attacker_count -= 1
        elif cover >> i & 1:
            victim_count -= 1
    disconnected = total - attacker_count - victim_count
    return (
        (
            attacker_count / total,
            victim_count / total,
            disconnected / total,
        ),
        filtered,
    )
