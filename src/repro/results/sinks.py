"""Result sinks: where a run's trial records go as they happen.

A :class:`ResultSink` receives the run header, then every released
:class:`~repro.exper.evaluate.TrialRecord`, then the final per-fraction
trial counts.  Implementations here:

* :class:`MemorySink` — records in a list (tests, small runs).
* :class:`JsonlSink` — the durable form: an append-only line log
  (:mod:`repro.results.appendlog`), one versioned record per line,
  with a header line carrying the run's identity.  Every
  write is flushed, so a killed run loses at most the line being
  written — and the scanner recovers from exactly that, dropping a
  truncated or corrupt *tail* line while refusing silently-corrupt
  interiors.  The durable unit is a whole trial: re-opening a file
  also drops the cells of a half-recorded trailing trial, so a
  resumed file is the bytes an uninterrupted run writes.

The JSONL file format, line by line::

    {"kind": "repro.results/run", "schema": 2, "spec_hash": …,
     "topology_hash": …, "rule": 1, "spec": {…full ExperimentSpec…}}
    {"schema": 1, "fraction_index": 0, "trial_index": 0, …}
    {"schema": 1, "fraction_index": 0, "trial_index": 0, …}
    …

(keys sorted on disk).  Rule, spec hash and topology digest are the
run's identity (:func:`check_header_compatible`); a schema-1 header,
written before the rule was, reads with ``rule=None``.

A resumed run does not repeat a (fraction, trial, cell) coordinate,
but files written before sinks recovered to whole trials (resume
re-recorded a half-written trial after its orphaned cells), or merged
by hand, may — so readers deduplicate identical duplicates and reject
conflicting ones.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..faults.plan import fire
from ..netbase.codec import Field, decode, encode
from ..netbase.errors import ReproError
from ..obs.metrics import MetricsRegistry, get_registry
from . import appendlog

if TYPE_CHECKING:  # pragma: no cover — typing only; runtime imports
    # are deferred because repro.exper.aggregate imports this package.
    from ..exper.evaluate import TrialRecord
    from ..exper.spec import ExperimentSpec

__all__ = [
    "HEADER_SCHEMA",
    "JsonlSink",
    "MemorySink",
    "ResultSink",
    "RunHeader",
    "SinkWriteError",
    "check_header_compatible",
    "complete_trials",
    "read_run",
    "topology_digest",
]

#: Version of the run-header line.  Distinct from the per-record
#: schema so the two can evolve independently.
HEADER_SCHEMA = 2

_HEADER_KIND = "repro.results/run"

#: Each readable header schema's field table.  Schema 1 wrote the
#: spec's seed and the engine, not a rule.
_HEADER_FIELDS = {
    1: (
        Field("kind", const=_HEADER_KIND), Field("schema", const=1),
        Field("spec_hash", str), Field("spec", dict),
        Field("topology_hash", (str, None)),
        Field("seed", int), Field("engine", str),
    ),
    2: (
        Field("kind", const=_HEADER_KIND), Field("schema", const=2),
        Field("spec_hash", str), Field("spec", dict),
        Field("topology_hash", (str, None)),
        Field("rule", int),
    ),
}


class SinkWriteError(ReproError):
    """A durable sink write failed and the sink degraded fail-safe.

    Raised by :meth:`JsonlSink.write` when the underlying IO fails —
    a real ``OSError`` (disk full, pulled mount) or an injected fault
    at the ``results.sink.write`` injection point.  By the time it
    propagates the sink is marked ``dirty`` and its file handle is
    released: what is on disk is the previously flushed prefix (at
    worst plus one partial tail line, exactly what resume truncates),
    so the run stays resumable.  ``path`` and ``errno`` identify the
    failure for callers that triage by cause.
    """

    def __init__(self, path: Union[str, Path], cause: OSError) -> None:
        self.path = Path(path)
        self.errno = getattr(cause, "errno", None)
        super().__init__(f"sink write to {self.path} failed: {cause}")


def topology_digest(topology) -> str:
    """A stable digest of an AS topology, via its compiled flat blob.

    The spec deliberately does not name a topology (the same grid runs
    on many graphs), so run records carry this digest instead: trial
    outcomes are functions of (topology, spec, trial), and resuming or
    merging records across *different* topologies would silently mix
    incomparable worlds.
    """
    import hashlib

    compiled = (
        topology.compiled() if hasattr(topology, "compiled") else topology
    )
    return hashlib.blake2b(compiled.to_blob(), digest_size=16).hexdigest()


@dataclass(frozen=True)
class RunHeader:
    """The first line of a durable run: what these records belong to.

    ``spec_hash``, ``topology_hash`` and ``rule`` are the run's
    identity (:func:`check_header_compatible`; ``rule`` is ``None``,
    unknown, in a schema-1 file); ``spec`` is the full JSON spec, so a
    run file alone suffices to re-aggregate — or resume — the run.
    """

    spec_hash: str
    spec: dict
    topology_hash: Optional[str]
    rule: Optional[int]

    @classmethod
    def for_spec(
        cls, spec: "ExperimentSpec", topology=None
    ) -> "RunHeader":
        from ..exper.evaluate import RECORD_RULE

        # The executor is *how* the run executed, not *what* it
        # computed: spec_hash already excludes it, and dropping it
        # here keeps run files byte-identical across executors.
        spec_dict = spec.to_json_dict()
        spec_dict.pop("executor", None)
        return cls(
            spec.spec_hash(),
            spec_dict,
            None if topology is None else topology_digest(topology),
            RECORD_RULE,
        )

    @property
    def seed(self) -> int:
        """The spec's master seed."""
        return self.spec["seed"]

    @property
    def cell_count(self) -> int:
        """Records per trial — the size of the run's durable unit."""
        return len(self.spec["cells"])

    def experiment_spec(self) -> "ExperimentSpec":
        """Reconstruct the spec this run executed."""
        from ..exper.spec import ExperimentSpec

        return ExperimentSpec.from_json_dict(self.spec)

    def to_json_dict(self) -> dict:
        return encode(_HEADER_FIELDS[HEADER_SCHEMA], vars(self))

    @classmethod
    def from_json_dict(cls, data: object) -> "RunHeader":
        """Decode strictly: the schema's field table, and a spec that
        decodes and (schema 2) hashes to ``spec_hash``.  A schema-1
        hash was taken over spec keys that have since left."""
        schema = data.get("schema") if isinstance(data, dict) else None
        fields = _HEADER_FIELDS.get(schema) if type(schema) is int else None
        values = decode(
            "run header", fields or _HEADER_FIELDS[HEADER_SCHEMA], data
        )
        header = cls(
            values["spec_hash"], values["spec"], values["topology_hash"],
            values.get("rule"),
        )
        spec_hash = header.experiment_spec().spec_hash()
        if schema == HEADER_SCHEMA and spec_hash != header.spec_hash:
            raise ReproError(
                f"bad run header: spec_hash {header.spec_hash!r} is not "
                f"the hash of its spec, {spec_hash}"
            )
        return header


class ResultSink:
    """The sink protocol: ``begin``, then ``write`` per record, then
    ``finish`` — and ``close`` when the caller is done with it.

    The base class is a usable null sink (every method a no-op except
    resume, which only durable sinks support), so subclasses override
    just what they need.
    """

    def begin(self, header: RunHeader) -> None:
        """Start (or re-open) a run described by ``header``."""

    def write(self, record: "TrialRecord") -> None:
        """Persist one released record."""

    def finish(self, trial_counts: Sequence[int]) -> None:
        """The run completed with these per-fraction trial counts."""

    def close(self) -> None:
        """Release any resources; the sink is not used afterwards."""

    def resume_scan(self) -> Tuple[Optional[RunHeader], List["TrialRecord"]]:
        """The sink's existing header and records, for resumption.

        Returns ``(None, [])`` when the sink holds nothing yet; raises
        when the sink kind cannot resume at all (the base behaviour).
        """
        raise ReproError(
            f"{type(self).__name__} does not support resuming a run"
        )

    def __enter__(self) -> "ResultSink":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def check_header_compatible(
    existing: RunHeader, header: RunHeader, where: str
) -> None:
    """The one "same run" decision: refuse to mix records of different
    measurement rules, specs or topologies.

    A header of unknown rule (schema 1) matches nothing, not even
    itself.  A missing topology hash on either side (a header built
    without a topology) is not a mismatch; two *different* digests are.
    """
    if existing.rule is None or existing.rule != header.rule:
        rules = [
            "unknown (a schema-1 header)" if rule is None else rule
            for rule in (existing.rule, header.rule)
        ]
        raise ReproError(
            f"{where} holds records of measurement rule {rules[0]}, not "
            f"rule {rules[1]}: records of two rules must not be mixed"
        )
    if existing.spec_hash != header.spec_hash:
        raise ReproError(
            f"{where} holds records for spec hash "
            f"{existing.spec_hash}, not {header.spec_hash}"
        )
    if (
        existing.topology_hash is not None
        and header.topology_hash is not None
        and existing.topology_hash != header.topology_hash
    ):
        raise ReproError(
            f"{where} holds records for topology "
            f"{existing.topology_hash}, not {header.topology_hash}"
        )


class MemorySink(ResultSink):
    """Records in a list; supports resume (tests, in-process restarts)."""

    def __init__(self) -> None:
        self.header: Optional[RunHeader] = None
        self.records: List["TrialRecord"] = []
        self.trial_counts: Optional[Tuple[int, ...]] = None

    def begin(self, header: RunHeader) -> None:
        if self.header is not None:
            check_header_compatible(self.header, header, "sink")
        self.header = header

    def write(self, record: "TrialRecord") -> None:
        self.records.append(record)

    def finish(self, trial_counts: Sequence[int]) -> None:
        self.trial_counts = tuple(trial_counts)

    def resume_scan(self) -> Tuple[Optional[RunHeader], List["TrialRecord"]]:
        return self.header, _dedupe(self.records, "sink")


class JsonlSink(ResultSink):
    """Append-only, crash-safe JSONL persistence for one run.

    ``begin`` on a fresh path writes the header line; on an existing
    file it checks the header's identity, cuts what a crash left
    past the last complete trial (a partial tail line, the cells of a
    half-recorded trial), and positions for append — so
    ``JsonlSink(path)`` is both "start a run" and "continue one", and
    the continued file is byte-identical to an uninterrupted one.
    Every ``write`` is flushed to the OS; pass ``fsync=True`` to also
    force each line to stable storage (slower, stronger).

    IO failures degrade fail-safe: a write that raises ``OSError``
    (or an injected ``results.sink.write`` fault) marks the sink
    ``dirty``, releases the file handle, and raises a typed
    :class:`SinkWriteError` — never corrupting the flushed prefix, so
    a fresh sink on the same path resumes the run.
    """

    def __init__(
        self,
        path: Union[str, Path],
        *,
        fsync: bool = False,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.path = Path(path)
        self.fsync = fsync
        #: True once a write has failed; the sink refuses further use
        #: and the run must be resumed through a fresh sink.
        self.dirty = False
        self._fh = None
        self._header: Optional[RunHeader] = None
        self._scanned: Optional[
            Tuple[Optional[RunHeader], List["TrialRecord"], int]
        ] = None
        # Sink telemetry under the ``results.`` namespace: how many
        # records and bytes went to disk, and what each flushed write
        # cost (fsync shows up here immediately).
        registry = registry if registry is not None else get_registry()
        self._metrics_enabled = registry.enabled
        self._records_written = registry.counter("results.records_written")
        self._bytes_written = registry.counter("results.bytes_written")
        self._flush_latency = registry.histogram("results.flush_latency")

    # -- scanning ------------------------------------------------------

    def _scan(self) -> Tuple[Optional[RunHeader], List["TrialRecord"], int]:
        if self._scanned is None:
            self._scanned = _scan_file(self.path)
        return self._scanned

    def resume_scan(self) -> Tuple[Optional[RunHeader], List["TrialRecord"]]:
        if self._fh is not None:
            raise ReproError(
                f"cannot resume-scan {self.path}: sink already writing"
            )
        header, records, _ = self._scan()
        return header, records

    # -- the sink protocol ---------------------------------------------

    def begin(self, header: RunHeader) -> None:
        if self.dirty:
            raise ReproError(
                f"sink {self.path} is dirty after a failed write; "
                f"resume the run through a fresh sink"
            )
        if self._fh is not None:
            if self._header is not None:
                check_header_compatible(
                    self._header, header, f"sink {self.path}"
                )
            return
        existing, _, data_end = self._scan()
        if existing is not None:
            check_header_compatible(
                existing, header, f"sink {self.path}"
            )
        self._fh = appendlog.open_at(self.path, data_end)
        if existing is None:
            appendlog.append(
                self._fh,
                appendlog.encode_line(header.to_json_dict()),
                fsync=self.fsync,
            )
        self._header = header
        self._scanned = None  # the file is live now; scans would lie

    def write(self, record: "TrialRecord") -> None:
        if self.dirty:
            raise ReproError(
                f"sink {self.path} is dirty after a failed write; "
                f"resume the run through a fresh sink"
            )
        if self._fh is None:
            raise ReproError(
                f"sink {self.path} received a record before begin()"
            )
        line = appendlog.encode_line(record.to_json_dict())
        if not self._metrics_enabled:
            self._write_line(line)
            return
        start = time.perf_counter()
        self._write_line(line)
        self._flush_latency.observe(time.perf_counter() - start)
        self._records_written.inc()
        self._bytes_written.inc(len(line))

    def _write_line(self, line: bytes) -> None:
        try:
            fire("results.sink.write", path=str(self.path))
            appendlog.append(self._fh, line, fsync=self.fsync)
        except OSError as exc:
            self._degrade()
            raise SinkWriteError(self.path, exc) from exc

    def _degrade(self) -> None:
        """Fail-safe after an IO error: mark dirty, release the handle.

        Closing is best-effort — the close itself may fail on a sick
        filesystem.  The flushed prefix on disk stays valid JSONL (at
        worst one partial tail line, which resume truncates), so the
        run remains resumable through a fresh sink.
        """
        self.dirty = True
        fh, self._fh = self._fh, None
        self._scanned = None
        if fh is not None:
            try:
                fh.close()
            except OSError:
                pass

    def finish(self, trial_counts: Sequence[int]) -> None:
        if self._fh is not None:
            appendlog.sync(self._fh)

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None
        self._scanned = None


# ----------------------------------------------------------------------
# Reading
# ----------------------------------------------------------------------


def read_run(path: Union[str, Path]) -> Tuple[RunHeader, List["TrialRecord"]]:
    """Load a durable run: its header and deduplicated records.

    Tolerates (drops) a truncated or corrupt final line — the signature
    a killed writer leaves — and raises :class:`ReproError` on a
    missing/invalid header, corruption anywhere else, or conflicting
    duplicate records.
    """
    path = Path(path)
    header, records, _ = _scan_file(path)
    if header is None:
        raise ReproError(f"{path} is not a results run file (no header)")
    return header, records


def _dedupe(
    records: Iterable["TrialRecord"], where: str
) -> List["TrialRecord"]:
    """Drop identical duplicates, reject conflicting ones, sort."""
    seen: Dict[Tuple[int, int, int], "TrialRecord"] = {}
    for record in records:
        key = record.sort_key
        known = seen.get(key)
        if known is None:
            seen[key] = record
        elif known != record:
            raise ReproError(
                f"{where} has conflicting records for fraction index "
                f"{key[0]}, trial {key[1]}, cell {record.cell!r}"
            )
    return [seen[key] for key in sorted(seen)]


def complete_trials(
    records: Iterable["TrialRecord"], cell_count: int
) -> Dict[Tuple[int, int], List["TrialRecord"]]:
    """The trials ``records`` hold in full, each with its records in
    cell order, keyed by ``(fraction_index, trial_index)``.

    A trial is the durable unit of a run: it counts only once every
    one of its ``cell_count`` cells is present.  Runner resume, shard
    resume and the sink's own recovery all share this one definition.
    """
    by_trial: Dict[Tuple[int, int], Dict[int, "TrialRecord"]] = {}
    for record in records:
        by_trial.setdefault(
            (record.fraction_index, record.trial_index), {}
        )[record.cell_index] = record
    return {
        key: [cells[index] for index in sorted(cells)]
        for key, cells in by_trial.items()
        if len(cells) == cell_count
    }


def _check_coordinates(
    records: Iterable["TrialRecord"], spec: "ExperimentSpec", what: str
) -> None:
    """Refuse a record whose grid coordinate lies outside ``spec``."""
    for record in records:
        if not (
            0 <= record.fraction_index < len(spec.fractions)
            and 0 <= record.trial_index < spec.trials
            and 0 <= record.cell_index < len(spec.cells)
        ):
            raise ReproError(
                f"{what} record for cell {record.cell!r} addresses grid "
                f"coordinate ({record.fraction_index}, {record.trial_index}"
                f", {record.cell_index}) outside the spec"
            )


def _scan_file(
    path: Path,
) -> Tuple[Optional[RunHeader], List["TrialRecord"], int]:
    """Parse a run file with tail recovery.

    Returns ``(header, records, data_end)``: every intact record
    (deduplicated), and the byte offset a resuming writer appends from
    — just past the last *complete trial*, so the trial resume
    re-evaluates whole is not preceded by its own orphaned cells.
    Every executor writes a trial's cells as one contiguous block, so
    only the trailing block can be partial.  A missing or empty file
    (or one holding only a partial header line) is ``(None, [], 0)``.
    """
    lines, end, torn = appendlog.scan(path)
    if not lines:
        return None, [], 0  # at most a crash mid-header: nothing durable

    from ..exper.evaluate import TrialRecord

    def parse(index: int, what: str) -> object:
        try:
            return json.loads(lines[index].decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ReproError(
                f"{path}: corrupt {what} at line {index + 1}: {exc}"
            ) from None

    header = RunHeader.from_json_dict(parse(0, "run header"))
    records: List["TrialRecord"] = []
    for index in range(1, len(lines)):
        try:
            records.append(
                TrialRecord.from_json_dict(parse(index, "trial record"))
            )
        except ReproError:
            if index == len(lines) - 1 and not torn:
                break  # corrupt tail line: recovered by truncation
            raise  # interior: more was written after it
    # Walk back over the trailing block (the last trial's lines) and
    # keep it only if it is whole.
    keep = len(records)
    while keep and (
        records[keep - 1].sort_key[:2] == records[-1].sort_key[:2]
    ):
        keep -= 1
    if complete_trials(records[keep:], header.cell_count):
        keep = len(records)
    dropped = sum(len(line) + 1 for line in lines[1 + keep:])
    return header, _dedupe(records, str(path)), end - dropped
