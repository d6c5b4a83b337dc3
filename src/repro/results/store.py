"""A directory of durable runs, and operations across them.

The layout is deliberately boring — one JSONL run file per run id
under one root::

    results/
        baseline.jsonl
        shard-0.jsonl
        shard-1.jsonl
        merged.jsonl

which is exactly what a sharded executor needs: every shard appends
its own run file (same spec, disjoint trials), and
:func:`merge_runs` unions them into one run that aggregates as if a
single machine had produced it.  :func:`run_result` turns any run
file — complete, early-stopped, or interrupted mid-flight — into the
:class:`~repro.exper.aggregate.ExperimentResult` over its completed
trial prefix.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..netbase.errors import ReproError
from . import appendlog
from .accumulate import completed_prefix
from .sinks import (
    RunHeader,
    _check_coordinates,
    _dedupe,
    check_header_compatible,
    read_run,
)

if TYPE_CHECKING:  # pragma: no cover — typing only (import-cycle care)
    from ..exper.aggregate import ExperimentResult
    from ..exper.evaluate import TrialRecord

__all__ = [
    "ResultsStore",
    "merge_runs",
    "result_to_json",
    "run_ci_document",
    "run_diff_document",
    "run_result",
    "shard_run_id",
]

_RUN_ID = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")


def shard_run_id(base: str, shard_index: int, shard_count: int) -> str:
    """The canonical run id of one shard of a sharded run.

    ``base`` names the whole run; the suffix pins both the shard's
    position and the plan width, so partials from differently-sharded
    runs of the same grid can never be confused for one another.  The
    result is always a valid :class:`ResultsStore` run id.
    """
    if shard_count < 1:
        raise ReproError("shard_count must be positive")
    if not 0 <= shard_index < shard_count:
        raise ReproError(
            f"shard index {shard_index} outside plan of {shard_count}"
        )
    width = len(str(shard_count - 1))
    run_id = f"{base}.shard{shard_index:0{width}d}of{shard_count}"
    if not _RUN_ID.match(run_id):
        raise ReproError(
            f"bad shard run id {run_id!r}: base {base!r} must use "
            f"letters, digits, '.', '_', '-'"
        )
    return run_id


class ResultsStore:
    """Runs as files: ``<root>/<run_id>.jsonl``."""

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)

    def path(self, run_id: str) -> Path:
        """The run's file path; the id must be filesystem-plain."""
        if not _RUN_ID.match(run_id):
            raise ReproError(
                f"bad run id {run_id!r}: use letters, digits, '.', "
                f"'_', '-'"
            )
        return self.root / f"{run_id}.jsonl"

    def sink(self, run_id: str, *, fsync: bool = False):
        """A :class:`~repro.results.sinks.JsonlSink` for this run."""
        from .sinks import JsonlSink

        self.root.mkdir(parents=True, exist_ok=True)
        return JsonlSink(self.path(run_id), fsync=fsync)

    def run_ids(self) -> List[str]:
        """Every run in the store, sorted by id."""
        if not self.root.is_dir():
            return []
        return sorted(
            path.stem for path in self.root.glob("*.jsonl")
        )

    def read(self, run_id: str) -> Tuple[RunHeader, List["TrialRecord"]]:
        return read_run(self.path(run_id))

    def merge(
        self, out_id: str, run_ids: Sequence[str]
    ) -> Tuple[RunHeader, int]:
        """Union several of this store's runs into a new run."""
        self.root.mkdir(parents=True, exist_ok=True)
        return merge_runs(
            self.path(out_id), [self.path(run_id) for run_id in run_ids]
        )


def merge_runs(
    out_path: Union[str, Path],
    in_paths: Iterable[Union[str, Path]],
) -> Tuple[RunHeader, int]:
    """Union shard-partial runs of one spec into a single run file.

    Every input must be the same run (:func:`check_header_compatible`,
    which refuses a schema-1 input even alone); records present in
    several inputs must be identical (they are re-evaluations of the
    same deterministic trial) and are written once.  The output is
    deterministic: header, then records sorted by grid coordinate —
    merging the same shards always produces the same bytes.
    """
    paths = [Path(p) for p in in_paths]
    if not paths:
        raise ReproError("merge needs at least one input run")
    header: Optional[RunHeader] = None
    pooled: List["TrialRecord"] = []
    for path in paths:
        run_header, records = read_run(path)
        header = header or run_header
        check_header_compatible(run_header, header, str(path))
        pooled.extend(records)
    merged = _dedupe(pooled, "merge input")
    with appendlog.open_at(Path(out_path), 0) as fh:
        fh.write(appendlog.encode_line(header.to_json_dict()))
        for record in merged:
            fh.write(appendlog.encode_line(record.to_json_dict()))
    return header, len(merged)


def run_result(
    header: RunHeader,
    records: Sequence["TrialRecord"],
    *,
    bootstrap_resamples: int = 1000,
    confidence: float = 0.95,
) -> Tuple["ExperimentResult", int]:
    """Aggregate a run's records over their completed trial prefix.

    For a finished run this is exactly the runner's result.  For an
    interrupted or shard-partial run, each fraction aggregates the
    trials that are *consecutively complete from zero* (every cell
    present); records past that prefix — partial trials, or shard
    gaps — are dropped and counted in the returned ``dropped``.
    Fractions execute in order, so a run killed mid-grid leaves later
    fractions without any complete trial: those trailing fractions are
    omitted from the result (their stray records count as dropped),
    and only a run with *no* complete trial at all is an error.  The
    per-cell statistics of the fractions that are reported — bootstrap
    CIs included — are identical to a full run's, because fraction
    indices (which seed the bootstrap) are preserved by truncation.
    """
    # Imported here: repro.exper.aggregate itself streams through
    # repro.results.accumulate, so a module-level import would cycle.
    import dataclasses

    from ..exper.aggregate import aggregate_records

    spec = header.experiment_spec()
    _check_coordinates(records, spec, "run")
    present = [[set() for _ in spec.cells] for _ in spec.fractions]
    for record in records:
        present[record.fraction_index][record.cell_index].add(
            record.trial_index
        )
    counts = [
        completed_prefix(spec.trials, cell_trials)
        for cell_trials in present
    ]
    # Keep the leading fractions that completed at least one trial;
    # a complete trial *after* an empty fraction would mean the run
    # did not execute fractions in order — refuse to guess.
    live = len(counts)
    while live and counts[live - 1] == 0:
        live -= 1
    if live == 0:
        raise ReproError("no complete trials for fraction index 0")
    for fraction_index in range(live):
        if counts[fraction_index] == 0:
            raise ReproError(
                f"no complete trials for fraction index {fraction_index}"
            )
    view = spec
    if live < len(spec.fractions):
        view = dataclasses.replace(
            spec, fractions=spec.fractions[:live]
        )
    kept = [
        record
        for record in records
        if record.fraction_index < live
        and record.trial_index < counts[record.fraction_index]
    ]
    result = aggregate_records(
        view,
        kept,
        bootstrap_resamples=bootstrap_resamples,
        confidence=confidence,
        expected_trials=counts[:live],
    )
    return result, len(records) - len(kept)


def result_to_json(result: "ExperimentResult") -> dict:
    """JSON-ready view of an aggregated grid.

    The one canonical shape: ``repro-roa experiment --json``,
    ``repro-roa results show --json``, and the serve tier's
    ``/experiments/<run>/ci`` all emit exactly this, so a CI payload
    can be compared against the CLI's output field for field.
    """
    return {
        "fractions": list(result.fractions),
        "trials_per_cell": result.trials_per_cell,
        "trial_counts": list(result.trial_counts),
        "cells": [
            {
                "cell": stats.cell,
                "fraction": stats.fraction,
                "trials": stats.trials,
                "mean": stats.mean,
                "stdev": stats.stdev,
                "ci_low": stats.ci_low,
                "ci_high": stats.ci_high,
                "victim_mean": stats.victim_mean,
                "disconnected_mean": stats.disconnected_mean,
                "filtered_fraction": stats.filtered_fraction,
            }
            for row in result.stats
            for stats in row
        ],
    }


def _run_summary(
    run_id: str, header: RunHeader, records: int, dropped: int
) -> dict:
    return {
        "run": run_id,
        "spec_hash": header.spec_hash,
        "seed": header.seed,
        "rule": header.rule,
        "records": records,
        "dropped": dropped,
    }


def run_ci_document(
    run_id: str,
    header: RunHeader,
    records: Sequence["TrialRecord"],
    *,
    bootstrap_resamples: int = 1000,
    confidence: float = 0.95,
) -> dict:
    """The ``/experiments/<run>/ci`` payload for one recorded run.

    A pure function of the run's bytes: :func:`run_result` aggregates
    the completed trial prefix (bootstrap CIs seeded by grid
    coordinate, so they are deterministic), and the statistics land in
    the :func:`result_to_json` shape under ``"result"``.  Serialized
    with sorted keys and no whitespace, the same run file yields the
    same payload bytes in any process.
    """
    result, dropped = run_result(
        header,
        records,
        bootstrap_resamples=bootstrap_resamples,
        confidence=confidence,
    )
    document = _run_summary(run_id, header, len(records), dropped)
    document["bootstrap_resamples"] = bootstrap_resamples
    document["confidence"] = confidence
    document["result"] = result_to_json(result)
    return document


def _fraction_sort_key(fraction) -> tuple:
    # None (universal deployment) sorts below every numeric fraction.
    return (0, 0.0) if fraction is None else (1, fraction)


def run_diff_document(
    a_id: str,
    a_header: RunHeader,
    a_records: Sequence["TrialRecord"],
    b_id: str,
    b_header: RunHeader,
    b_records: Sequence["TrialRecord"],
    *,
    bootstrap_resamples: int = 1000,
    confidence: float = 0.95,
) -> dict:
    """The ``GET /diff?a=&b=`` payload: run-to-run comparison.

    Both runs aggregate through :func:`run_result`; grid coordinates
    are matched by (cell name, fraction) so one spec run under
    different policies or seeds lines up cell for cell.
    Coordinates present on only one side carry ``null`` for the other.
    Where both sides report, ``delta_mean`` is ``b - a`` and
    ``ci_overlap`` says whether the bootstrap intervals intersect —
    the paper's loose-MaxLength vs minimal-ROA comparisons read
    straight off it.  Cells are emitted in sorted (cell, fraction)
    order, so the document is deterministic for given run bytes.
    """
    a_result, a_dropped = run_result(
        a_header,
        a_records,
        bootstrap_resamples=bootstrap_resamples,
        confidence=confidence,
    )
    b_result, b_dropped = run_result(
        b_header,
        b_records,
        bootstrap_resamples=bootstrap_resamples,
        confidence=confidence,
    )

    def side_cells(result: "ExperimentResult") -> dict:
        return {
            (stats.cell, stats.fraction): stats
            for row in result.stats
            for stats in row
        }

    def side_entry(stats) -> dict:
        return {
            "trials": stats.trials,
            "mean": stats.mean,
            "stdev": stats.stdev,
            "ci_low": stats.ci_low,
            "ci_high": stats.ci_high,
            "victim_mean": stats.victim_mean,
            "disconnected_mean": stats.disconnected_mean,
            "filtered_fraction": stats.filtered_fraction,
        }

    a_cells = side_cells(a_result)
    b_cells = side_cells(b_result)
    cells = []
    for key in sorted(
        set(a_cells) | set(b_cells),
        key=lambda k: (k[0], _fraction_sort_key(k[1])),
    ):
        cell, fraction = key
        a_stats = a_cells.get(key)
        b_stats = b_cells.get(key)
        entry = {
            "cell": cell,
            "fraction": fraction,
            "a": None if a_stats is None else side_entry(a_stats),
            "b": None if b_stats is None else side_entry(b_stats),
        }
        if a_stats is not None and b_stats is not None:
            entry["delta_mean"] = b_stats.mean - a_stats.mean
            entry["ci_overlap"] = not (
                a_stats.ci_high < b_stats.ci_low
                or b_stats.ci_high < a_stats.ci_low
            )
        cells.append(entry)
    return {
        "a": _run_summary(a_id, a_header, len(a_records), a_dropped),
        "b": _run_summary(b_id, b_header, len(b_records), b_dropped),
        "spec_match": a_header.spec_hash == b_header.spec_hash,
        "bootstrap_resamples": bootstrap_resamples,
        "confidence": confidence,
        "cells": cells,
    }
