"""repro.exper — the unified, parallel experiment engine.

Every statistical claim of the paper — average attacker capture over
sampled (victim, attacker) pairs, under varying ROA policies and
validation deployment — is one :class:`ExperimentSpec` away:

    >>> from repro.exper import (
    ...     AttackConfig, ExperimentRunner, ExperimentSpec,
    ...     MaxLengthLooseRoa, MinimalRoa, ScenarioCell,
    ... )
    >>> spec = ExperimentSpec(
    ...     cells=(
    ...         ScenarioCell("forged-origin-subprefix", MaxLengthLooseRoa()),
    ...         ScenarioCell("forged-origin-subprefix", MinimalRoa()),
    ...     ),
    ...     trials=50,
    ...     fractions=(0.0, 0.5, 1.0),
    ... )
    >>> result = ExperimentRunner(
    ...     topology, spec, executor="sharded"
    ... ).run()                                          # doctest: +SKIP
    >>> result.cell("forged-origin-subprefix/minimal", 1.0).mean
    0.0                                                 # doctest: +SKIP

The layers, bottom to top:

* :mod:`repro.exper.scenarios` — the scenario grammar (attack
  configs, ROA policies, victim/attacker samplers, grid cells).
* :mod:`repro.exper.spec` — :class:`ExperimentSpec`, deterministic
  per-trial seed derivation, JSON round trip, trial materialization.
* :mod:`repro.exper.evaluate` — pure (topology, spec, trial) →
  :class:`TrialRecord` evaluation, including multi-attacker and
  path-prepended generalizations.
* :mod:`repro.exper.runner` — the serial executor, early stopping,
  durable-record sinks and resumption (see :mod:`repro.results`).
* :mod:`repro.exper.sharded` — the parallel (sharded) executor: grid
  partitioning, crash-retried shard workers streaming durable
  partials, and the coordinator that unions them byte-identically to
  a serial run.
* :mod:`repro.exper.aggregate` — means, stdevs, and bootstrap
  confidence intervals per grid cell, streamed through
  :mod:`repro.results.accumulate`.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "aggregate": (
        "CellStats", "ExperimentResult", "aggregate_records",
        "prefix_ci_width",
    ),
    "evaluate": (
        "RECORD_RULE", "RECORD_SCHEMA", "TrialRecord", "evaluate_trial",
        "evaluate_trials",
    ),
    "runner": ("EXECUTORS", "ExperimentRunner", "resolve_executor"),
    "scenarios": (
        "AnyAsPairSampler", "AttackConfig", "CustomRoa", "FixedPairSampler",
        "MaxLengthLooseRoa", "MinimalRoa", "NoRoa", "PartialCoverageRoa",
        "RoaPolicy", "ScenarioCell", "StubPairSampler",
        "VictimAttackerSampler", "policy_from_name",
    ),
    "sharded": (
        "LocalShardTransport", "Shard", "ShardCoordinator", "plan_shards",
        "run_shard",
    ),
    "spec": (
        "ExperimentSpec", "TrialSpec", "derive_trial_seed", "iter_trials",
        "materialize_trials",
    ),
})
