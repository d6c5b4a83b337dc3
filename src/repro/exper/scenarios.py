"""The scenario grammar: what one experiment cell *is*.

The paper's §4/§5 claims are statistical statements over a space of
scenarios: an attack variant, launched by some attacker population,
against a victim protected by some ROA policy, on an Internet where
some fraction of ASes validate.  This module names each of those axes
as a small, declarative value type:

* :class:`AttackConfig` — an :class:`~repro.bgp.attack_kind.AttackKind`
  plus the knobs the four hand-rolled study loops could never turn:
  how many simultaneous attackers, and how much AS-path prepending the
  forged announcement carries.
* :class:`RoaPolicy` — how the victim's prefix is covered:
  :class:`MinimalRoa` (the paper's recommendation), a
  :class:`MaxLengthLooseRoa` (the §4 vulnerability), :class:`NoRoa`,
  a :class:`CustomRoa` (explicit VRPs), or :class:`PartialCoverageRoa`
  (the victim issued a ROA only with some probability — per-AS partial
  RPKI adoption).
* :class:`VictimAttackerSampler` — how (victim, attacker…) tuples are
  drawn: stub pairs (the historical default), any-AS pairs, or a fixed
  pair for deterministic studies.
* :class:`ScenarioCell` — one (attack, policy) grid cell.

Everything here is a frozen dataclass: hashable, comparable, and —
deliberately — picklable, because the multiprocessing executor ships
the whole grammar to each worker exactly once.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from ..bgp.attack_kind import AttackKind
from ..netbase.errors import ReproError
from ..netbase.prefix import Prefix
from ..rpki.vrp import Vrp

if TYPE_CHECKING:  # pragma: no cover — the graph is only annotated here
    from ..bgp.topology import AsTopology

__all__ = [
    "AttackConfig",
    "RoaPolicy",
    "MinimalRoa",
    "MaxLengthLooseRoa",
    "NoRoa",
    "CustomRoa",
    "PartialCoverageRoa",
    "VictimAttackerSampler",
    "StubPairSampler",
    "AnyAsPairSampler",
    "FixedPairSampler",
    "ScenarioCell",
]


# ----------------------------------------------------------------------
# Attacks
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class AttackConfig:
    """One attack variant, generalized beyond the four legacy loops.

    Attributes:
        kind: the :class:`AttackKind`; string names are coerced.
        attackers: number of simultaneous hijackers announcing the
            attack prefix (the legacy loops could only express 1).
        prepend: extra copies of the attacker's own ASN prepended to
            its announcement — a stealthier forged-origin variant that
            trades capture for plausibility.
    """

    kind: AttackKind
    attackers: int = 1
    prepend: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "kind", AttackKind.coerce(self.kind))
        if self.attackers < 1:
            raise ReproError("an attack needs at least one attacker")
        if self.prepend < 0:
            raise ReproError("prepend count cannot be negative")

    @property
    def label(self) -> str:
        parts = [self.kind.value]
        if self.attackers != 1:
            parts.append(f"x{self.attackers}")
        if self.prepend:
            parts.append(f"prepend{self.prepend}")
        return "+".join(parts)

    def attack_prefix_for(
        self, victim_prefix: Prefix, attack_prefix: Prefix
    ) -> Prefix:
        """Subprefix kinds hijack the subprefix, the rest the prefix."""
        return attack_prefix if self.kind.is_subprefix else victim_prefix


# ----------------------------------------------------------------------
# ROA policies
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class RoaPolicy:
    """How the victim's address space is covered by the RPKI.

    Subclasses name the VRPs routers validate against for one trial
    (the evaluator indexes them, so this grammar loads no validation
    engine).  ``trial_bits`` is a per-trial random word (drawn by the
    spec's seeding layer) for policies that make per-trial choices;
    policies that need it set :attr:`needs_trial_bits` so deterministic
    seed streams stay minimal when no such policy is present.
    """

    needs_trial_bits = False

    @property
    def label(self) -> str:
        raise NotImplementedError

    def trial_vrps(
        self,
        victim: int,
        victim_prefix: Prefix,
        attack_prefix: Prefix,
        trial_bits: int,
    ) -> Optional[tuple[Vrp, ...]]:
        """The trial's VRPs; ``None`` means no RPKI coverage at all."""
        raise NotImplementedError


@dataclass(frozen=True)
class MinimalRoa(RoaPolicy):
    """The paper's §5 recommendation: ``(p, len(p), victim)``."""

    @property
    def label(self) -> str:
        return "minimal"

    def trial_vrps(self, victim, victim_prefix, attack_prefix, trial_bits):
        return (Vrp(victim_prefix, victim_prefix.length, victim),)


@dataclass(frozen=True)
class MaxLengthLooseRoa(RoaPolicy):
    """The §4 vulnerability: a maxLength reaching the attack prefix.

    Attributes:
        max_length: the ROA's maxLength; ``None`` means "exactly long
            enough to authorize the attack prefix" (the worst case).
    """

    max_length: Optional[int] = None

    @property
    def label(self) -> str:
        if self.max_length is None:
            return "maxlength-loose"
        return f"maxlength-{self.max_length}"

    def trial_vrps(self, victim, victim_prefix, attack_prefix, trial_bits):
        max_length = self.max_length
        if max_length is None:
            max_length = attack_prefix.length
        return (Vrp(victim_prefix, max_length, victim),)


@dataclass(frozen=True)
class NoRoa(RoaPolicy):
    """No RPKI coverage at all — the pre-deployment Internet."""

    @property
    def label(self) -> str:
        return "none"

    def trial_vrps(self, victim, victim_prefix, attack_prefix, trial_bits):
        return None


@dataclass(frozen=True)
class CustomRoa(RoaPolicy):
    """An explicit, victim-independent VRP set."""

    vrps: tuple[Vrp, ...]
    name: str = "custom"

    @property
    def label(self) -> str:
        return self.name

    def trial_vrps(self, victim, victim_prefix, attack_prefix, trial_bits):
        return self.vrps


@dataclass(frozen=True)
class PartialCoverageRoa(RoaPolicy):
    """Per-AS partial ROA adoption: the victim issued ``base`` with
    probability ``coverage``, else nothing.

    The coin flip is a property of the *victim* (did this AS sign up
    for the RPKI?), so it is derived from the trial's random word and
    shared by every partial-coverage cell in the trial.
    """

    base: RoaPolicy
    coverage: float = 0.5

    needs_trial_bits = True

    def __post_init__(self) -> None:
        if not 0.0 <= self.coverage <= 1.0:
            raise ReproError("coverage must be a fraction in [0, 1]")
        if self.base.needs_trial_bits:
            raise ReproError("partial coverage cannot nest")

    @property
    def label(self) -> str:
        return f"{self.base.label}@{self.coverage:g}"

    def trial_vrps(self, victim, victim_prefix, attack_prefix, trial_bits):
        if random.Random(trial_bits).random() >= self.coverage:
            return None
        return self.base.trial_vrps(
            victim, victim_prefix, attack_prefix, trial_bits
        )


#: CLI/JSON names for the parameter-free policies.
def policy_from_name(name: str) -> RoaPolicy:
    """Parse a policy from its CLI/JSON name.

    Accepts ``minimal``, ``maxlength-loose``, ``maxlength-<N>``,
    ``none``, and ``<base>@<coverage>`` for partial adoption.
    """
    if "@" in name:
        base_name, _, coverage_text = name.rpartition("@")
        try:
            coverage = float(coverage_text)
        except ValueError:
            raise ReproError(f"bad coverage fraction in {name!r}") from None
        return PartialCoverageRoa(policy_from_name(base_name), coverage)
    if name == "minimal":
        return MinimalRoa()
    if name == "maxlength-loose":
        return MaxLengthLooseRoa()
    if name.startswith("maxlength-"):
        try:
            return MaxLengthLooseRoa(int(name.removeprefix("maxlength-")))
        except ValueError:
            raise ReproError(f"bad maxLength in policy {name!r}") from None
    if name == "none":
        return NoRoa()
    raise ReproError(
        f"unknown ROA policy {name!r}; expected minimal, maxlength-loose, "
        f"maxlength-<N>, none, or <base>@<coverage>"
    )


# ----------------------------------------------------------------------
# Samplers
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class VictimAttackerSampler:
    """Draws the (victim, attackers…) cast of one trial.

    :meth:`population` fixes the candidate pool once per run (sorted,
    so draws are reproducible across processes and Python hash seeds);
    :meth:`sample` then draws ``1 + attackers`` distinct ASes from it.
    """

    def population(self, topology: AsTopology) -> tuple[int, ...]:
        raise NotImplementedError

    def sample(
        self,
        pool: tuple[int, ...],
        rng: random.Random,
        attackers: int,
    ) -> tuple[int, tuple[int, ...]]:
        if len(pool) < 1 + attackers:
            raise ReproError(
                f"population of {len(pool)} cannot cast 1 victim and "
                f"{attackers} attacker(s)"
            )
        drawn = rng.sample(pool, 1 + attackers)
        return drawn[0], tuple(drawn[1:])


@dataclass(frozen=True)
class StubPairSampler(VictimAttackerSampler):
    """Victim and attackers among the stub ASes — the historical
    default: hijacks are typically launched from and against the edge.
    """

    def population(self, topology: AsTopology) -> tuple[int, ...]:
        return tuple(sorted(topology.stub_ases()))


@dataclass(frozen=True)
class AnyAsPairSampler(VictimAttackerSampler):
    """Victim and attackers anywhere in the topology, transit included."""

    def population(self, topology: AsTopology) -> tuple[int, ...]:
        return tuple(sorted(topology.ases))


@dataclass(frozen=True)
class FixedPairSampler(VictimAttackerSampler):
    """A pinned cast — every trial replays the same parties (useful for
    deterministic single-scenario studies and debugging)."""

    victim: int
    attackers: tuple[int, ...]

    def __post_init__(self) -> None:
        cast = (self.victim, *self.attackers)
        if len(set(cast)) != len(cast):
            raise ReproError("victim and attackers must be distinct ASes")

    def population(self, topology: AsTopology) -> tuple[int, ...]:
        for asn in (self.victim, *self.attackers):
            if asn not in topology:
                raise ReproError(f"fixed AS{asn} not in topology")
        return (self.victim, *self.attackers)

    def sample(self, pool, rng, attackers):
        if attackers > len(self.attackers):
            raise ReproError(
                f"fixed cast has {len(self.attackers)} attacker(s), "
                f"cell needs {attackers}"
            )
        return self.victim, self.attackers[:attackers]


# ----------------------------------------------------------------------
# Grid cells
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ScenarioCell:
    """One grid cell: an attack evaluated under a ROA policy."""

    attack: AttackConfig
    policy: RoaPolicy
    name: str = field(default="")

    def __post_init__(self) -> None:
        if isinstance(self.attack, (str, AttackKind)):
            object.__setattr__(self, "attack", AttackConfig(self.attack))
        if not self.name:
            object.__setattr__(
                self, "name", f"{self.attack.label}/{self.policy.label}"
            )
