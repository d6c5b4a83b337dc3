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
from ..bgp.origin_validation import VrpIndex
from ..bgp.simulation import Seed
from ..bgp.topology import AsTopology, CompiledTopology
from ..netbase.codec import Field, decode, encode, many
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
        return encode(_FIELDS, vars(self))

    @classmethod
    def from_json_dict(cls, data: object) -> "TrialRecord":
        """Decode one wire dict, strictly (:mod:`repro.netbase.codec`).

        A record that cannot be decoded faithfully must not be
        decoded at all: another schema, a missing or unknown field, an
        inexact type, or a value no writer produces raises
        :class:`ReproError`.
        """
        return cls(**decode("trial record", _FIELDS, data))


def _share(value: float) -> bool:
    return 0.0 <= value <= 1.0


_index = (0).__le__

#: The wire form, in serialization order; silent drift between writer
#: and reader is how archived runs rot.  Only values a writer can
#: produce decode: a grid index counts from 0, and every float in a
#: record is a share of ASes.
_FIELDS = (
    Field("schema", const=RECORD_SCHEMA),
    Field("fraction_index", int, check=_index),
    Field("trial_index", int, check=_index),
    Field("cell_index", int, check=_index),
    Field("fraction", (float, None), check=_share),
    Field("cell", str),
    Field("victim", int),
    Field("attackers", many(int)),
    Field("attacker_fraction", float, check=_share),
    Field("victim_fraction", float, check=_share),
    Field("disconnected_fraction", float, check=_share),
    Field("attack_route_filtered", bool),
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
        vrps = cell.policy.trial_vrps(
            trial.victim, victim_prefix, attack_prefix, trial.trial_bits
        )
        vrp_index = None if vrps is None else VrpIndex(vrps)
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
