"""Pure trial evaluation: (topology, spec, trial) → TrialRecords.

One trial evaluates *every* grid cell with the trial's one tie seed —
a paired design: every cell sees the same (victim, attackers) cast,
the same validator sample, and the same tie-break luck, so
cell-to-cell differences measure the policy, not the noise.  The
tie-break is a keyed hash of (tie seed, AS, neighbor)
(:func:`repro.bgp.simulation.tie_winner`), not a stream, so a cell's
records do not depend on which cells precede it or on their order.

All cells — the four historical single-attacker variants and the
scenario space the old loops could not express (multiple simultaneous
attackers, AS-path-prepended announcements) — evaluate through one
shared core, :func:`repro.bgp.attacks.evaluate_attack_seeds`; this
module only builds the attacker seed lists.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional, Union

from ..bgp.attacks import evaluate_attack_seeds
from ..bgp.fastprop import PropagationWorkspace
from ..bgp.simulation import Seed
from ..bgp.topology import AsTopology, CompiledTopology
from ..netbase.errors import ReproError
from .scenarios import AttackConfig
from .spec import ExperimentSpec, TrialSpec

__all__ = [
    "RECORD_RULE",
    "RECORD_SCHEMA",
    "TrialRecord",
    "evaluate_trial",
    "evaluate_trials",
]

#: Version of the TrialRecord wire schema.  Bump it when the field
#: list below changes; readers reject records from other versions
#: rather than guessing at their meaning.
RECORD_SCHEMA = 1

#: The measurement rule records are made under: bump it whenever the
#: same spec on the same topology would write different record bytes.
#: Run headers record it; resume and merge refuse to mix two rules.
RECORD_RULE = 1

#: The exact wire field list, in serialization order.  ``to_json_dict``
#: emits these plus ``"schema"``; ``from_json_dict`` requires all of
#: them and rejects anything else — silent drift between writer and
#: reader is how archived runs rot.
_RECORD_FIELDS = (
    "fraction_index",
    "trial_index",
    "cell_index",
    "fraction",
    "cell",
    "victim",
    "attackers",
    "attacker_fraction",
    "victim_fraction",
    "disconnected_fraction",
    "attack_route_filtered",
)


@dataclass(frozen=True)
class TrialRecord:
    """The outcome of one (trial, cell) evaluation.

    Attributes:
        fraction_index / trial_index / cell_index: grid coordinates.
        fraction: the validating fraction (``None`` = universal).
        cell: the cell's name.
        victim / attackers: the trial's cast (this cell's slice).
        attacker_fraction / victim_fraction / disconnected_fraction:
            shares of judged ASes routing the attacked space to each
            party (or nowhere).
        attack_route_filtered: True when validation removed every
            attacker announcement everywhere.
    """

    fraction_index: int
    trial_index: int
    cell_index: int
    fraction: Optional[float]
    cell: str
    victim: int
    attackers: tuple[int, ...]
    attacker_fraction: float
    victim_fraction: float
    disconnected_fraction: float
    attack_route_filtered: bool

    @property
    def sort_key(self) -> tuple[int, int, int]:
        return (self.fraction_index, self.trial_index, self.cell_index)

    # ------------------------------------------------------------------
    # Versioned wire schema (the repro.results JSONL line format)
    # ------------------------------------------------------------------

    def to_json_dict(self) -> dict:
        """This record as a schema-versioned, JSON-ready dict."""
        data: dict = {"schema": RECORD_SCHEMA}
        for name in _RECORD_FIELDS:
            value = getattr(self, name)
            if name == "attackers":
                value = list(value)
            data[name] = value
        return data

    @classmethod
    def from_json_dict(cls, data: object) -> "TrialRecord":
        """Decode one wire dict, strictly.

        Unknown fields, missing fields, or a schema version this
        reader does not speak all raise :class:`ReproError` — a record
        that cannot be decoded faithfully must not be decoded at all.
        """
        if not isinstance(data, dict):
            raise ReproError(f"trial record must be an object, not {data!r}")
        schema = data.get("schema")
        if schema != RECORD_SCHEMA:
            raise ReproError(
                f"trial record schema {schema!r} is not the supported "
                f"schema {RECORD_SCHEMA}"
            )
        missing = [n for n in _RECORD_FIELDS if n not in data]
        if missing:
            raise ReproError(f"trial record missing fields {missing}")
        unknown = sorted(set(data) - set(_RECORD_FIELDS) - {"schema"})
        if unknown:
            raise ReproError(f"trial record has unknown fields {unknown}")
        def bad(name: str) -> ReproError:
            return ReproError(
                f"bad trial record value: {name}={data[name]!r}"
            )

        # Exact JSON types, no coercion: int("3"), bool("false"), or a
        # string iterated as an attacker list would all decode to
        # something the writer never meant.  And only values a writer
        # can produce: a grid index counts from 0, and every float in a
        # record is a share of ASes — ``json`` reads NaN and Infinity,
        # which fail the range test like any other stray number.
        def as_int(name: str) -> int:
            value = data[name]
            if isinstance(value, bool) or not isinstance(value, int):
                raise bad(name)
            return value

        def as_index(name: str) -> int:
            if as_int(name) < 0:
                raise bad(name)
            return data[name]

        def as_float(name: str) -> float:
            value = data[name]
            if isinstance(value, bool) or not isinstance(
                value, (int, float)
            ):
                raise bad(name)
            if not 0 <= value <= 1:
                raise bad(name)
            return float(value)

        if not isinstance(data["cell"], str):
            raise bad("cell")
        attackers = data["attackers"]
        if isinstance(attackers, str) or not isinstance(
            attackers, (list, tuple)
        ):
            raise bad("attackers")
        for attacker in attackers:
            if isinstance(attacker, bool) or not isinstance(
                attacker, int
            ):
                raise bad("attackers")
        if not isinstance(data["attack_route_filtered"], bool):
            raise bad("attack_route_filtered")
        return cls(
            fraction_index=as_index("fraction_index"),
            trial_index=as_index("trial_index"),
            cell_index=as_index("cell_index"),
            fraction=(
                None if data["fraction"] is None else as_float("fraction")
            ),
            cell=data["cell"],
            victim=as_int("victim"),
            attackers=tuple(attackers),
            attacker_fraction=as_float("attacker_fraction"),
            victim_fraction=as_float("victim_fraction"),
            disconnected_fraction=as_float("disconnected_fraction"),
            attack_route_filtered=data["attack_route_filtered"],
        )


def evaluate_trial(
    topology: Union[AsTopology, CompiledTopology],
    spec: ExperimentSpec,
    trial: TrialSpec,
    *,
    workspace: Optional[PropagationWorkspace] = None,
) -> list[TrialRecord]:
    """Evaluate every cell of the spec for one materialized trial.

    ``topology`` may be the compiled form (workers receive only that).
    ``workspace`` — one per worker — reuses propagation state across
    trials (given none, one is made for the trial); results are
    byte-identical with or without it (a tested invariant), so it is
    purely a throughput knob.
    """
    victim_prefix = spec.victim_prefix
    subprefix = spec.effective_attack_prefix
    fraction = spec.fractions[trial.fraction_index]
    if workspace is None:
        workspace = PropagationWorkspace(topology)

    records = []
    for cell_index, cell in enumerate(spec.cells):
        attack = cell.attack
        attackers = trial.attackers[: attack.attackers]
        attack_prefix = attack.attack_prefix_for(victim_prefix, subprefix)
        vrp_index = cell.policy.vrp_index(
            trial.victim, victim_prefix, attack_prefix, trial.trial_bits
        )
        fractions, filtered = evaluate_attack_seeds(
            topology, trial.victim, victim_prefix, attack_prefix,
            [
                _attacker_seed(attack, attacker, trial.victim)
                for attacker in attackers
            ],
            vrp_index=vrp_index,
            validating_ases=trial.validating_ases,
            tie_seed=trial.tie_seed,
            workspace=workspace,
        )
        records.append(TrialRecord(
            fraction_index=trial.fraction_index,
            trial_index=trial.trial_index,
            cell_index=cell_index,
            fraction=fraction,
            cell=cell.name,
            victim=trial.victim,
            attackers=attackers,
            attacker_fraction=fractions[0],
            victim_fraction=fractions[1],
            disconnected_fraction=fractions[2],
            attack_route_filtered=filtered,
        ))
    return records


def evaluate_trials(
    topology: Union[AsTopology, CompiledTopology],
    spec: ExperimentSpec,
    trials: Iterable[TrialSpec],
    *,
    workspace: Optional[PropagationWorkspace] = None,
    observe: Optional[Callable[[TrialSpec, float], None]] = None,
) -> Iterator[TrialRecord]:
    """Evaluate a stream of trials with one shared workspace.

    The batched evaluation path the executors use: the workspace (one
    is created here when none is passed) keeps
    its state arrays and profile cache alive across the whole stream,
    which is where the trials/sec win over per-trial allocation comes
    from.  Record content is byte-identical to mapping
    :func:`evaluate_trial` over the same trials.

    ``observe`` — called as ``observe(trial, seconds)`` after each
    trial evaluates — is the runner's per-trial latency hook; it is
    pure observation and must not mutate anything the trial reads.
    When it is ``None`` (telemetry off) no clocks are read at all.
    """
    if workspace is None:
        workspace = PropagationWorkspace(topology)
    if observe is None:
        for trial in trials:
            yield from evaluate_trial(
                topology, spec, trial, workspace=workspace
            )
        return
    clock = time.perf_counter
    for trial in trials:
        start = clock()
        records = evaluate_trial(
            topology, spec, trial, workspace=workspace
        )
        observe(trial, clock() - start)
        yield from records


def _attacker_seed(
    attack: AttackConfig, attacker: int, victim: int
) -> Seed:
    """The (possibly prepended) announcement of one attacker."""
    head = (attacker,) * (1 + attack.prepend)
    if attack.kind.forges_origin:
        return Seed(attacker, head + (victim,))
    return Seed(attacker, head)
