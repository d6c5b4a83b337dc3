"""Experiment specifications and deterministic trial materialization.

An :class:`ExperimentSpec` is the declarative description of a whole
study: a tuple of :class:`~repro.exper.scenarios.ScenarioCell` grid
cells, a tuple of validating-AS fractions, a trial count, and a seed.
From a spec and a topology, :func:`materialize_trials` produces the
fully-specified, self-contained :class:`TrialSpec` list the executors
consume.  All randomness is drawn *here*, in the driver process — the
expensive part (route propagation) is pure given a trial, which is
what makes the serial and sharded executors byte-identical.

Every trial draws from its own :class:`random.Random`, seeded by
:func:`derive_trial_seed` from ``(seed, fraction_index, trial_index)``
through a keyed blake2b digest, so any trial can be regenerated in
isolation — resumed, sharded or early-stopped, a trial is drawn the
same way or not at all.
"""

from __future__ import annotations

import json
import math
import os
import random
# The C module behind ``hashlib.blake2b`` (the same function):
# importing ``hashlib`` itself would also load OpenSSL's ``_hashlib``.
from _blake2 import blake2b
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Callable,
    Iterable,
    Iterator,
    Optional,
    Union,
)

from ..netbase.codec import Field, Kind, decode, encode, many, record
from ..netbase.errors import ReproError
from ..netbase.prefix import Prefix
from ..rpki.vrp import Vrp
from .scenarios import (
    AnyAsPairSampler,
    AttackConfig,
    CustomRoa,
    FixedPairSampler,
    NoRoa,
    PartialCoverageRoa,
    RoaPolicy,
    ScenarioCell,
    StubPairSampler,
    VictimAttackerSampler,
    policy_from_name,
)

if TYPE_CHECKING:  # pragma: no cover — the graph is only annotated here
    from ..bgp.topology import AsTopology

__all__ = [
    "EXECUTORS",
    "ExperimentSpec",
    "TrialSpec",
    "derive_trial_seed",
    "iter_trials",
    "materialize_trials",
    "usable_cpus",
]

_STOPPINGS = ("none", "ci")

#: Values an earlier version wrote that no spec holds now, by key, and
#: what each reads as (``None``: the key is ignored).  Stored specs
#: (queued jobs, run headers, spec files) stay readable; any other
#: value of a retired key is refused.
_RETIRED = {
    "engine": {"array": None, "object": None},
    "seeding": {"derived": None, "stream": None},
    "executor": {"process": "sharded"},
}

#: Every executor a spec (or runner) may name.  ``"auto"`` resolves at
#: run time to ``"serial"`` or ``"sharded"`` depending on available
#: parallelism (see :func:`repro.exper.runner.resolve_executor`).
EXECUTORS = ("serial", "sharded", "auto")


def usable_cpus() -> int:
    """The CPUs this process may run on, what ``"auto"`` and the
    default worker count go by: its affinity mask where the platform
    has one (a container pinned to one CPU counts one, not the host's
    CPUs), else ``os.cpu_count()``."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) or 1
    return os.cpu_count() or 1


def derive_trial_seed(seed: int, fraction_index: int, trial_index: int) -> int:
    """Deterministic, order-independent per-trial seed.

    A keyed digest rather than arithmetic so that nearby (seed, trial)
    coordinates never produce correlated :class:`random.Random` states.
    """
    key = f"repro.exper/{seed}/{fraction_index}/{trial_index}".encode()
    return int.from_bytes(
        blake2b(key, digest_size=8).digest(), "big"
    )


@dataclass(frozen=True)
class TrialSpec:
    """One fully-drawn trial: everything a worker needs but the grid.

    Attributes:
        fraction_index: index into the spec's ``fractions``.
        trial_index: 0-based trial number within that fraction.
        victim: the legitimate origin AS.
        attackers: the hijacker cast (cells use a prefix of it).
        validating_ases: the sampled validator set, or ``None`` for
            universal validation.
        tie_seed: keys the tie-break of every cell of the trial
            (:func:`repro.bgp.simulation.tie_winner`).
        trial_bits: per-trial random word for policies that flip coins
            (0 when no cell needs it).
    """

    fraction_index: int
    trial_index: int
    victim: int
    attackers: tuple[int, ...]
    validating_ases: Optional[frozenset[int]]
    tie_seed: int
    trial_bits: int = 0


@dataclass(frozen=True)
class ExperimentSpec:
    """A declarative experiment grid.

    Attributes:
        cells: the (attack × ROA policy) grid cells, evaluated per
            trial with a shared tie seed (a paired design: every cell
            sees the same cast and the same luck).
        trials: trials per fraction.
        seed: master seed.
        fractions: validating-AS fractions; ``None`` means universal
            validation (no validator sampling at all).
        sampler: how the (victim, attackers) cast is drawn.
        victim_prefix: the prefix the victim announces.
        attack_prefix: the subprefix the attacker announces; ``None``
            derives ``victim_prefix`` extended by 8 bits.
        executor: the default execution strategy — ``"serial"``,
            ``"sharded"``, or ``"auto"`` (pick serial or sharded from
            available parallelism).  All executors
            produce byte-identical results, so this is purely a
            speed/topology knob: it round-trips
            through JSON but is *excluded* from :meth:`spec_hash`, so
            runs of the same grid under different executors share a
            run identity and merge cleanly.
        stopping: adaptive early stopping — ``"none"`` (run exactly
            ``trials`` everywhere; byte-identical to the pre-stopping
            engine) or ``"ci"`` (a fraction stops early once *every*
            cell's bootstrap CI for the mean is narrower than
            ``stop_ci_width``).  Stopping decisions are a pure
            function of completed-trial prefixes, so every executor
            stops at the same trial count with the same records; a
            trial that does run is evaluated identically either way.
        stop_ci_width: the CI-width threshold (absolute capture
            fraction) for ``stopping="ci"``.
        stop_min_trials: trials a fraction must complete before the
            first stopping check.
        stop_check_every: stopping is re-checked every this many
            trials past the minimum (checks cost a bootstrap).
    """

    cells: tuple[ScenarioCell, ...]
    trials: int
    seed: int = 0
    fractions: tuple[Optional[float], ...] = (None,)
    sampler: VictimAttackerSampler = field(default_factory=StubPairSampler)
    victim_prefix: Prefix = field(
        default_factory=lambda: Prefix.parse("168.122.0.0/16")
    )
    attack_prefix: Optional[Prefix] = None
    executor: str = "serial"
    stopping: str = "none"
    stop_ci_width: float = 0.05
    stop_min_trials: int = 16
    stop_check_every: int = 8

    def __post_init__(self) -> None:
        object.__setattr__(self, "cells", tuple(self.cells))
        object.__setattr__(self, "fractions", tuple(self.fractions))
        if not self.cells:
            raise ReproError("an experiment needs at least one cell")
        if self.trials < 1:
            raise ReproError("an experiment needs at least one trial")
        if not self.fractions:
            raise ReproError("an experiment needs at least one fraction")
        for fraction in self.fractions:
            if fraction is not None and not 0.0 <= fraction <= 1.0:
                raise ReproError(f"fraction {fraction!r} outside [0, 1]")
        if self.executor not in EXECUTORS:
            raise ReproError(
                f"unknown executor {self.executor!r}; "
                f"expected {EXECUTORS}"
            )
        if self.stopping not in _STOPPINGS:
            raise ReproError(
                f"unknown stopping {self.stopping!r}; expected {_STOPPINGS}"
            )
        if not self.stop_ci_width > 0.0:
            raise ReproError("stop_ci_width must be positive")
        if self.stop_min_trials < 2:
            raise ReproError("stop_min_trials must be at least 2")
        if self.stop_check_every < 1:
            raise ReproError("stop_check_every must be positive")
        names = [cell.name for cell in self.cells]
        if len(set(names)) != len(names):
            raise ReproError(f"duplicate cell names in {names}")
        attack = self.effective_attack_prefix
        if not self.victim_prefix.covers(attack):
            raise ReproError(
                f"attack prefix {attack} outside victim's "
                f"{self.victim_prefix}"
            )

    @classmethod
    def grid(
        cls,
        attacks: Iterable[Union[AttackConfig, str]],
        policies: Iterable[RoaPolicy],
        **kwargs,
    ) -> "ExperimentSpec":
        """The full cross product, attacks-major."""
        attack_list = [
            a if isinstance(a, AttackConfig) else AttackConfig(a)
            for a in attacks
        ]
        policy_list = list(policies)
        cells = tuple(
            ScenarioCell(attack, policy)
            for attack in attack_list
            for policy in policy_list
        )
        return cls(cells=cells, **kwargs)

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------

    @property
    def effective_attack_prefix(self) -> Prefix:
        if self.attack_prefix is not None:
            return self.attack_prefix
        length = self.victim_prefix.length + 8
        if length > self.victim_prefix.max_family_length:
            raise ReproError(
                f"cannot derive a /{length} attack subprefix of "
                f"{self.victim_prefix}"
            )
        return Prefix(
            self.victim_prefix.family, self.victim_prefix.value, length
        )

    @property
    def max_attackers(self) -> int:
        return max(cell.attack.attackers for cell in self.cells)

    @property
    def needs_trial_bits(self) -> bool:
        return any(cell.policy.needs_trial_bits for cell in self.cells)

    @property
    def total_trials(self) -> int:
        return self.trials * len(self.fractions)

    # ------------------------------------------------------------------
    # JSON round trip (the CLI's --spec format)
    # ------------------------------------------------------------------

    def to_json_dict(self) -> dict:
        return encode(_FIELDS, vars(self))

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_json_dict(), indent=indent)

    def spec_hash(self) -> str:
        """A stable digest of the whole spec (canonical JSON form).

        Two specs share a hash exactly when their JSON round-trip
        forms are identical — except for ``executor``, which is an
        execution strategy rather than part of the experiment's
        identity: serial and sharded runs of the same grid must share
        a hash so their records merge and resume across executors.
        Durable run records carry the hash so a sink can
        refuse to mix records from different experiments (and resume
        can refuse a mismatched spec).
        """
        identity = self.to_json_dict()
        identity.pop("executor", None)
        canonical = json.dumps(
            identity, sort_keys=True, separators=(",", ":")
        )
        return blake2b(
            canonical.encode("utf-8"), digest_size=16
        ).hexdigest()

    @classmethod
    def from_json_dict(cls, data: object) -> "ExperimentSpec":
        """Decode a spec's JSON form through its field table
        (:mod:`repro.netbase.codec`), nested cells, policies and
        samplers included.  A retired value (``_RETIRED``:
        ``"engine"``, ``"seeding"``, ``"executor": "process"``) reads
        as what replaced it."""
        if isinstance(data, dict):
            data = dict(data)
            for key, retired in _RETIRED.items():
                value = data.get(key)
                if isinstance(value, str) and value in retired:
                    if retired[value] is None:
                        del data[key]
                    else:
                        data[key] = retired[value]
                elif key in data and key not in _FIELD_NAMES:
                    raise ReproError(
                        f"retired spec key {key!r} holds {value!r}; "
                        f"a stored spec may hold {sorted(retired)}"
                    )
        return cls(**decode("spec JSON", _FIELDS, data))

    @classmethod
    def from_json(cls, text: str) -> "ExperimentSpec":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ReproError(f"bad spec JSON: {exc}") from None
        return cls.from_json_dict(data)


# The spec's field tables, nested forms first.

_PREFIX = Kind((str,), "a prefix string", Prefix.parse, str)

_VRP_ROW = record(
    "custom VRP row",
    (Field("prefix", _PREFIX), Field("max_length", int), Field("asn", int)),
    Vrp,
    lambda vrp: {
        "prefix": vrp.prefix, "max_length": vrp.max_length, "asn": vrp.asn,
    },
)


def _read_policy(data: Union[str, dict]) -> RoaPolicy:
    if type(data) is str:
        return policy_from_name(data)
    return (_PARTIAL if "partial" in data else _CUSTOM).decode(data)


def _write_policy(policy: RoaPolicy) -> Union[str, dict]:
    if isinstance(policy, CustomRoa):
        return _CUSTOM.encode(policy)
    if isinstance(policy, PartialCoverageRoa):
        # The dict form, not the display label: the label renders the
        # coverage with %g, which would silently round it on round trip.
        return _PARTIAL.encode(policy)
    return policy.label


_POLICY = Kind(
    (str, dict), "a policy name or object", _read_policy, _write_policy
)

_PARTIAL = record(
    "partial policy",
    (Field("partial", record(
        "partial policy",
        (Field("base", _POLICY), Field("coverage", float, 0.5)),
        PartialCoverageRoa,
    )),),
    lambda partial: partial,
    lambda policy: {"partial": policy},
)

_CUSTOM = record(
    "custom policy",
    (Field("custom", many(_VRP_ROW)), Field("name", str, "custom")),
    lambda custom, name: CustomRoa(custom, name),
    lambda policy: {"custom": policy.vrps, "name": policy.name},
)

_FIXED_PAIR = record(
    "fixed-pair sampler",
    (Field("victim", int), Field("attackers", many(int), ())),
    FixedPairSampler,
)

_SAMPLERS = {"stubs": StubPairSampler(), "any": AnyAsPairSampler()}


def _read_sampler(data: Union[str, dict]) -> VictimAttackerSampler:
    if type(data) is dict:
        return _FIXED_PAIR.decode(data)
    if data not in _SAMPLERS:
        raise ReproError(f"bad sampler entry {data!r}")
    return _SAMPLERS[data]


def _write_sampler(sampler: VictimAttackerSampler) -> Union[str, dict]:
    for name, known in _SAMPLERS.items():
        if sampler == known:
            return name
    if not isinstance(sampler, FixedPairSampler):
        raise ReproError(f"sampler {sampler!r} has no JSON form")
    return _FIXED_PAIR.encode(sampler)


_CELL_FIELDS = (
    Field("kind", str),
    Field("attackers", int, 1, omit=True),
    Field("prepend", int, 0, omit=True),
    Field("policy", _POLICY, NoRoa()),
)

_CELL = record(
    "cell entry",
    _CELL_FIELDS,
    lambda kind, attackers, prepend, policy: ScenarioCell(
        AttackConfig(kind, attackers, prepend), policy
    ),
    lambda cell: {
        "kind": cell.attack.kind.value,
        "attackers": cell.attack.attackers,
        "prepend": cell.attack.prepend,
        "policy": cell.policy,
    },
)

_FIELDS = (
    Field("cells", many(_CELL)),
    Field("trials", int),
    Field("seed", int, 0),
    Field("fractions", many((float, None)), (None,)),
    Field("sampler", Kind((str, dict), "a sampler name or object",
                          _read_sampler, _write_sampler), _SAMPLERS["stubs"]),
    Field("victim_prefix", _PREFIX, Prefix.parse("168.122.0.0/16")),
    Field("attack_prefix", (_PREFIX, None), None),
    Field("executor", str, "serial"),
    Field("stopping", str, "none"),
    Field("stop_ci_width", float, 0.05),
    Field("stop_min_trials", int, 16),
    Field("stop_check_every", int, 8),
)
_FIELD_NAMES = frozenset(entry.name for entry in _FIELDS)


# ----------------------------------------------------------------------
# Trial materialization
# ----------------------------------------------------------------------


def _sample_pools(n: int, count: int) -> bool:
    """Does ``random.sample`` of ``count`` out of ``n`` copy the
    population and swap picks out of it (rather than track picked
    indices in a set)?  CPython's own size rule, transcribed."""
    setsize = 21
    if count > 5:
        setsize += 4 ** math.ceil(math.log(count * 3, 4))
    return 0 <= count <= n <= setsize


def _pool_sample(
    rng: random.Random, population: tuple[int, ...], count: int
) -> list[int]:
    """``random.sample``'s pool branch over ``rng.getrandbits``: the
    draws, their order and the picks of ``rng.sample(population,
    count)`` wherever :func:`_sample_pools` holds."""
    getrandbits = rng.getrandbits
    pool = list(population)
    picks = [0] * count
    remaining = len(pool)
    bits = remaining.bit_length()
    low = (1 << bits) >> 1  # the smallest int that is ``bits`` long
    for slot in range(count):
        j = getrandbits(bits)
        while j >= remaining:
            j = getrandbits(bits)
        remaining -= 1
        picks[slot] = pool[j]
        pool[j] = pool[remaining]  # move a non-picked item into the gap
        if remaining < low:
            bits -= 1
            low >>= 1
    return picks


def _fast_sample_ok() -> bool:
    """Can we inline ``Random.sample``?

    Drawing a trial's validators is up to one ``rng.sample`` pick per
    AS, three Python frames each.  This probe verifies once at import
    that :func:`_pool_sample` returns ``rng.sample``'s list and leaves
    its state, up to the very population size at which ``sample``
    switches branch; :func:`_draw_validators` calls ``rng.sample`` if
    it ever fails.
    """
    reference, inlined = random.Random(7), random.Random(7)
    for n, count in ((1, 1), (5, 0), (21, 1), (21, 21), (33, 32),
                     (85, 6), (277, 22), (64, 64)):
        population = tuple(range(n))
        if (
            _pool_sample(inlined, population, count)
            != reference.sample(population, count)
            or reference.getstate() != inlined.getstate()
        ):
            return False
    return True


_FAST_SAMPLE = _fast_sample_ok()


def _draw_validators(
    rng: random.Random, population: tuple[int, ...], count: int
) -> frozenset[int]:
    """``frozenset(rng.sample(population, count))``, consuming exactly
    its random stream.  Inlined for a plain :class:`random.Random`
    where ``sample`` would take its pool branch (any fraction of a few
    percent or more); anything else — a subclass, a small sample of a
    large population, a failed import probe — is ``rng.sample``."""
    if (
        _FAST_SAMPLE
        and type(rng) is random.Random
        and _sample_pools(len(population), count)
    ):
        return frozenset(_pool_sample(rng, population, count))
    return frozenset(rng.sample(population, count))


def iter_trials(
    spec: ExperimentSpec,
    topology: AsTopology,
    *,
    wants: Optional[Callable[[int, int], bool]] = None,
) -> Iterator[TrialSpec]:
    """Draw the spec's trials lazily, in deterministic order.

    Trial ``(fraction_index, trial_index)`` draws from its own
    :class:`random.Random`, seeded by :func:`derive_trial_seed`, in a
    fixed order (cast, validators, coin word, tie seed) — a stable
    contract.

    Laziness is what keeps driver memory flat on grids with millions
    of trials: executors pull trials one at a time instead of
    materializing the full list.

    ``wants(fraction_index, trial_index)`` lets a consumer (resume,
    a shard, early stopping) decline trials: a declined trial is
    skipped without drawing, and since every seed is self-contained
    nothing else shifts.
    """
    pool = spec.sampler.population(topology)
    needs_validators = any(f is not None for f in spec.fractions)
    all_pool: tuple[int, ...] = ()
    if needs_validators:
        all_pool = tuple(sorted(topology.ases))

    for fraction_index, fraction in enumerate(spec.fractions):
        for trial_index in range(spec.trials):
            if wants is not None and not wants(fraction_index, trial_index):
                continue
            rng = random.Random(
                derive_trial_seed(spec.seed, fraction_index, trial_index)
            )
            victim, attackers = spec.sampler.sample(
                pool, rng, spec.max_attackers
            )
            validators: Optional[frozenset[int]] = None
            if fraction is not None:
                count = round(fraction * len(all_pool))
                validators = _draw_validators(rng, all_pool, count)
            trial_bits = (
                rng.getrandbits(64) if spec.needs_trial_bits else 0
            )
            tie_seed = rng.getrandbits(32)
            yield TrialSpec(
                fraction_index=fraction_index,
                trial_index=trial_index,
                victim=victim,
                attackers=attackers,
                validating_ases=validators,
                tie_seed=tie_seed,
                trial_bits=trial_bits,
            )


def materialize_trials(
    spec: ExperimentSpec, topology: AsTopology
) -> list[TrialSpec]:
    """Every trial of the spec as a list — :func:`iter_trials`, eager.

    Kept for small grids and tests; executors stream from
    :func:`iter_trials` so memory stays flat.
    """
    return list(iter_trials(spec, topology))
