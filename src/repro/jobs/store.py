"""The durable job queue: one append-only, crash-safe JSONL file.

Layout convention (what ``repro-roa jobs --store DIR`` points at)::

    <root>/
        queue.jsonl       # header line, then one JobRecord per event
        runs/             # the jobs' ResultsStore (one run per job)

The queue file is the same line log run files are
(:mod:`repro.results.appendlog`): a versioned header line first,
canonical JSON per line, every append flushed and fsynced, and a
reader that tolerates exactly one trailing partial line — the most a
crash mid-append can leave.  A corrupt *complete* line is an error
wherever it sits, never silently skipped.  State is *folded*, not
stored: a job's status is the last of its events, so recovery after
SIGKILL is a re-scan, and two processes never disagree about what the
bytes say.
"""

from __future__ import annotations

import json
import threading
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Union

from ..netbase.codec import Field, decode, encode
from ..netbase.errors import ReproError
from ..results import appendlog
from ..results.runid import check_run_id
from .model import (
    JOB_SCHEMA,
    JobRecord,
    JobSpec,
    JobState,
    QUEUE_KIND,
    STATUS_BY_EVENT,
)

# The sink stack is imported on use: queue clients (submit, list,
# show, cancel) never open a run.
if TYPE_CHECKING:  # pragma: no cover
    from ..results.store import ResultsStore

__all__ = ["JobStore"]

#: The queue file's header line: two constants and nothing else.
_HEADER_FIELDS = (
    Field("schema", const=JOB_SCHEMA),
    Field("kind", const=QUEUE_KIND),
)


class JobStore:
    """Append-only queue of experiment jobs under one directory.

    Thread-safe: appends serialize under one lock, and every read is
    a fresh scan of the file — the bytes are the single source of
    truth, which is what makes SIGKILL-then-restart recovery a
    non-event (see :class:`~repro.jobs.scheduler.JobScheduler`).
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.path = self.root / "queue.jsonl"
        self._lock = threading.Lock()

    def results_store(self) -> ResultsStore:
        """The store convention: job runs live under ``<root>/runs``."""
        from ..results.store import ResultsStore

        return ResultsStore(self.root / "runs")

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------

    def records(self) -> List[JobRecord]:
        """Every complete event in file order (crash tail dropped)."""
        return self._scan()

    def _scan(self) -> List[JobRecord]:
        complete, _, _ = appendlog.scan(self.path)
        if not complete:
            return []
        header = self._decode(complete[0], 1)
        try:
            decode("job queue header", _HEADER_FIELDS, header)
        except ReproError as exc:
            raise ReproError(
                f"{self.path}: not a schema-{JOB_SCHEMA} job queue ({exc})"
            ) from None
        records = []
        for number, raw in enumerate(complete[1:], start=2):
            if not raw:
                raise ReproError(
                    f"{self.path}:{number}: blank interior line"
                )
            records.append(
                JobRecord.from_json_dict(self._decode(raw, number))
            )
        return records

    def _decode(self, raw: bytes, number: int) -> dict:
        try:
            data = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ReproError(
                f"{self.path}:{number}: corrupt line: {exc}"
            ) from None
        if not isinstance(data, dict):
            raise ReproError(
                f"{self.path}:{number}: expected an object"
            )
        return data

    def jobs(self) -> Dict[str, JobState]:
        """Every known job's folded state, keyed by job id."""
        states: Dict[str, JobState] = {}
        for record in self._scan():
            state = states.get(record.job)
            if state is None:
                if record.spec is None:
                    raise ReproError(
                        f"{self.path}: job {record.job!r} has a "
                        f"{record.event!r} event before 'enqueued'"
                    )
                state = JobState(job=record.job, spec=record.spec)
                states[record.job] = state
            elif record.event == "enqueued":
                raise ReproError(
                    f"{self.path}: job {record.job!r} is enqueued twice"
                )
            state.status = STATUS_BY_EVENT[record.event]
            if record.detail:
                state.detail = record.detail
            state.history = state.history + (record.event,)
        return states

    def job(self, job_id: str) -> Optional[JobState]:
        """One job's folded state, or ``None`` if unknown."""
        return self.jobs().get(job_id)

    def pending(self) -> List[JobState]:
        """Jobs a scheduler owes work, in job-id (enqueue) order."""
        return [
            state
            for _, state in sorted(self.jobs().items())
            if state.pending
        ]

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------

    def enqueue(self, spec: JobSpec) -> str:
        """Durably add a job; returns its id.

        Ids are sequential (``job-000001``, ...) over all *enqueued*
        events ever written — deterministic, so docs and tests can
        name them — and a spec without a pinned run id adopts the job
        id (a valid :class:`~repro.results.store.ResultsStore` run
        id by construction).  Counting and appending happen under the
        log's writer lock, so concurrent ``jobs submit`` processes get
        distinct ids (and one header between them).
        """
        with self._lock, appendlog.open_shared(self.path) as handle:
            appendlog.lock(handle)
            count = sum(
                1 for record in self._scan()
                if record.event == "enqueued"
            )
            job_id = f"job-{count + 1:06d}"
            if spec.run is None:
                spec = spec.with_run(job_id)
            else:
                # Fail loudly now, not when the scheduler first opens
                # the sink.
                check_run_id(spec.run)
            self._append(
                handle, JobRecord(job=job_id, event="enqueued", spec=spec)
            )
            return job_id

    def mark(self, job_id: str, event: str, detail: str = "") -> None:
        """Append one lifecycle event for an existing job."""
        with self._lock:
            record = JobRecord(job=job_id, event=event, detail=detail)
            known = {r.job for r in self._scan() if r.event == "enqueued"}
            if job_id not in known:
                raise ReproError(
                    f"no job named {job_id!r} in {self.path}"
                )
            # Shared, not single-writer: `jobs submit` may append while
            # a scheduler in another process is marking, and both
            # events must survive.
            with appendlog.open_shared(self.path) as handle:
                self._append(handle, record)

    def _append(self, handle, record: JobRecord) -> None:
        line = appendlog.encode_line(record.to_json_dict())
        if handle.tell() == 0:
            line = appendlog.encode_line(encode(_HEADER_FIELDS, {})) + line
        appendlog.append(handle, line, fsync=True)
