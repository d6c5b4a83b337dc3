"""Result sinks: where a run's trial records go as they happen.

A :class:`ResultSink` receives the run header, then every released
:class:`~repro.exper.evaluate.TrialRecord`, then the final per-fraction
trial counts.  Implementations here:

* :class:`MemorySink` — records in a list (tests, small runs).
* :class:`JsonlSink` — the durable form: an append-only line log
  (:mod:`repro.results.appendlog`), one versioned record per line,
  with a header line carrying the spec hash, seed, and engine.  Every
  write is flushed, so a killed run loses at most the line being
  written — and the scanner recovers from exactly that, dropping a
  truncated or corrupt *tail* line while refusing silently-corrupt
  interiors.  The durable unit is a whole trial: re-opening a file
  also drops the cells of a half-recorded trailing trial, so a
  resumed file is the bytes an uninterrupted run writes.
* :class:`TeeSink` — fan out one record stream to several sinks
  (e.g. a durable file *and* a live serve-tier publisher).

The JSONL file format, line by line::

    {"kind": "repro.results/run", "schema": 1, "spec_hash": …,
     "seed": …, "engine": …, "spec": {…full ExperimentSpec…}}
    {"schema": 1, "fraction_index": 0, "trial_index": 0, …}
    {"schema": 1, "fraction_index": 0, "trial_index": 0, …}
    …

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
    "TeeSink",
    "check_header_compatible",
    "complete_trials",
    "read_run",
    "topology_digest",
]

#: Version of the run-header line.  Distinct from the per-record
#: schema so the two can evolve independently.
HEADER_SCHEMA = 1

_HEADER_KIND = "repro.results/run"


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
    return hashlib.blake2b(
        bytes(compiled.to_blob()), digest_size=16
    ).hexdigest()


@dataclass(frozen=True)
class RunHeader:
    """The first line of a durable run: what these records belong to.

    ``spec_hash`` and ``topology_hash`` are the identity checks
    (resume and merge refuse a mismatch on either); ``seed`` and
    ``engine`` ride along for observability; ``spec`` is the full JSON
    spec, so a run file alone suffices to re-aggregate — or resume —
    the experiment.  A header written now names engine ``"array"``,
    the one propagation engine; one read from an older file keeps
    whatever it holds (``"object"``, the retired reference engine,
    whose records were the same).
    """

    spec_hash: str
    seed: int
    engine: str
    spec: dict
    topology_hash: Optional[str] = None

    @classmethod
    def for_spec(
        cls, spec: "ExperimentSpec", topology=None
    ) -> "RunHeader":
        # The executor is *how* the run executed, not *what* it
        # computed: spec_hash already excludes it, and dropping it
        # here keeps run files byte-identical across executors.
        spec_dict = spec.to_json_dict()
        spec_dict.pop("executor", None)
        return cls(
            spec.spec_hash(),
            spec.seed,
            spec_dict["engine"],
            spec_dict,
            None if topology is None else topology_digest(topology),
        )

    @property
    def cell_count(self) -> int:
        """Records per trial — the size of the run's durable unit."""
        return len(self.spec["cells"])

    def experiment_spec(self) -> "ExperimentSpec":
        """Reconstruct the spec this run executed."""
        from ..exper.spec import ExperimentSpec

        return ExperimentSpec.from_json_dict(self.spec)

    def to_json_dict(self) -> dict:
        return {
            "kind": _HEADER_KIND,
            "schema": HEADER_SCHEMA,
            "spec_hash": self.spec_hash,
            "seed": self.seed,
            "engine": self.engine,
            "spec": self.spec,
            "topology_hash": self.topology_hash,
        }

    @classmethod
    def from_json_dict(cls, data: object) -> "RunHeader":
        if not isinstance(data, dict) or data.get("kind") != _HEADER_KIND:
            raise ReproError(
                f"not a {_HEADER_KIND} header: {str(data)[:80]!r}"
            )
        schema = data.get("schema")
        if schema != HEADER_SCHEMA:
            raise ReproError(
                f"run header schema {schema!r} is not the supported "
                f"schema {HEADER_SCHEMA}"
            )
        try:
            topology_hash = data.get("topology_hash")
            header = cls(
                str(data["spec_hash"]),
                int(data["seed"]),
                str(data["engine"]),
                dict(data["spec"]),
                None if topology_hash is None else str(topology_hash),
            )
            if not header.cell_count:
                raise ValueError("spec has no cells")
            return header
        except (KeyError, TypeError, ValueError) as exc:
            raise ReproError(f"bad run header: {exc}") from None


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

    def resume_scan(
        self, spec: "ExperimentSpec"
    ) -> Tuple[Optional[RunHeader], List["TrialRecord"]]:
        """The sink's existing header and records, for resumption.

        Returns ``(None, [])`` when the sink holds nothing yet; raises
        when it holds records of a *different* spec, or when the sink
        kind cannot resume at all (the base behaviour).
        """
        raise ReproError(
            f"{type(self).__name__} does not support resuming a run"
        )

    def __enter__(self) -> "ResultSink":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def _check_spec(
    header: Optional[RunHeader], spec: "ExperimentSpec", where: str
) -> None:
    if header is not None and header.spec_hash != spec.spec_hash():
        raise ReproError(
            f"{where} holds records for spec hash {header.spec_hash}, "
            f"not this spec's {spec.spec_hash()}"
        )


def check_header_compatible(
    existing: RunHeader, header: RunHeader, where: str
) -> None:
    """Refuse to mix records of different specs — or topologies.

    A missing topology hash on either side (a header built without a
    topology in hand) is not a mismatch; two *different* digests are.
    """
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

    def resume_scan(
        self, spec: "ExperimentSpec"
    ) -> Tuple[Optional[RunHeader], List["TrialRecord"]]:
        _check_spec(self.header, spec, "sink")
        return self.header, _dedupe(self.records, "sink")


class TeeSink(ResultSink):
    """Forward every call to each of several sinks, in order."""

    def __init__(self, *sinks: ResultSink) -> None:
        if not sinks:
            raise ReproError("a TeeSink needs at least one sink")
        self.sinks = tuple(sinks)

    def begin(self, header: RunHeader) -> None:
        for sink in self.sinks:
            sink.begin(header)

    def write(self, record: "TrialRecord") -> None:
        for sink in self.sinks:
            sink.write(record)

    def finish(self, trial_counts: Sequence[int]) -> None:
        for sink in self.sinks:
            sink.finish(trial_counts)

    def close(self) -> None:
        for sink in self.sinks:
            sink.close()


class JsonlSink(ResultSink):
    """Append-only, crash-safe JSONL persistence for one run.

    ``begin`` on a fresh path writes the header line; on an existing
    file it verifies the header's spec hash, cuts what a crash left
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
        view = (
            registry if registry is not None else get_registry()
        ).view("results")
        self._metrics_enabled = view.enabled
        self._records_written = view.counter("records_written")
        self._bytes_written = view.counter("bytes_written")
        self._flush_latency = view.histogram("flush_latency")

    # -- scanning ------------------------------------------------------

    def _scan(self) -> Tuple[Optional[RunHeader], List["TrialRecord"], int]:
        if self._scanned is None:
            self._scanned = _scan_file(self.path)
        return self._scanned

    def resume_scan(
        self, spec: "ExperimentSpec"
    ) -> Tuple[Optional[RunHeader], List["TrialRecord"]]:
        if self._fh is not None:
            raise ReproError(
                f"cannot resume-scan {self.path}: sink already writing"
            )
        header, records, _ = self._scan()
        _check_spec(header, spec, f"sink {self.path}")
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
