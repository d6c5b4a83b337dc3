"""The job queue's versioned wire schema: ``JobSpec`` and ``JobRecord``.

Same discipline as :class:`~repro.results.sinks.RunHeader` and
``TrialRecord``: every durable line carries ``schema`` and ``kind``
fields, readers refuse versions they do not understand, and the JSON
round trip is exact.  A :class:`JobSpec` is everything the scheduler
needs to reproduce a ``repro-roa experiment`` invocation byte for
byte — the :class:`~repro.exper.spec.ExperimentSpec` itself plus the
synthetic-topology parameters (``ases``, ``topology_seed``) that the
CLI would have used to build the graph.  A :class:`JobRecord` is one
append-only *event* in a job's life (``enqueued`` → ``started`` →
``finished`` / ``failed`` / ``cancelled``); folding a job's events in
file order yields its current :class:`JobState`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Optional

from ..exper.spec import ExperimentSpec
from ..netbase.errors import ReproError

__all__ = [
    "EVENT_KIND",
    "JOB_SCHEMA",
    "JobRecord",
    "JobSpec",
    "JobState",
    "QUEUE_KIND",
    "STATUS_BY_EVENT",
]

#: Wire schema version of every job-queue line.
JOB_SCHEMA = 1
#: ``kind`` of the queue file's header line.
QUEUE_KIND = "repro.jobs/queue"
#: ``kind`` of every event line after the header.
EVENT_KIND = "repro.jobs/event"

#: Job status implied by each event; the *last* event wins when
#: folding a job's history.
STATUS_BY_EVENT = {
    "enqueued": "queued",
    "started": "running",
    "finished": "done",
    "failed": "failed",
    "cancelled": "cancelled",
}

#: Statuses a scheduler restart picks back up: still-queued work and
#: jobs a crash caught mid-flight (their run files resume).
PENDING_STATUSES = frozenset({"queued", "running"})


@dataclass(frozen=True)
class JobSpec:
    """One queued experiment: the grid plus how to build its world.

    Attributes:
        spec: the :class:`~repro.exper.spec.ExperimentSpec` to run.
        run: results-store run id the job's records stream into;
            ``None`` adopts the job id at enqueue time.
        ases / topology_seed: synthetic-topology parameters, exactly
            the CLI's ``--ases`` / ``--topology-seed`` defaults — the
            scheduler builds ``generate_topology(TopologyProfile(
            ases), random.Random(topology_seed))`` so a job's run
            header (and bytes) match a direct CLI run of the spec.
        workers / shards: executor sizing knobs, as on the CLI.
    """

    spec: ExperimentSpec
    run: Optional[str] = None
    ases: int = 400
    topology_seed: int = 11
    workers: Optional[int] = None
    shards: Optional[int] = None

    def __post_init__(self) -> None:
        if self.ases < 2:
            raise ReproError("a job topology needs at least 2 ASes")
        if self.workers is not None and self.workers < 1:
            raise ReproError("workers must be positive")
        if self.shards is not None and self.shards < 1:
            raise ReproError("shards must be positive")

    @property
    def spec_hash(self) -> str:
        """The experiment's canonical identity (never recomputed
        differently from :meth:`ExperimentSpec.spec_hash`)."""
        return self.spec.spec_hash()

    def with_run(self, run: str) -> "JobSpec":
        """This spec with its run id pinned (enqueue-time default)."""
        return replace(self, run=run)

    def build_topology(self):
        """The job's AS graph, identical to the CLI's construction."""
        from ..data.asgraph import TopologyProfile, generate_topology

        return generate_topology(
            TopologyProfile(ases=self.ases),
            random.Random(self.topology_seed),
        )

    def to_json_dict(self) -> dict:
        return {
            "spec": self.spec.to_json_dict(),
            "run": self.run,
            "ases": self.ases,
            "topology_seed": self.topology_seed,
            "workers": self.workers,
            "shards": self.shards,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "JobSpec":
        try:
            spec = ExperimentSpec.from_json_dict(data["spec"])
        except KeyError:
            raise ReproError("job spec JSON missing 'spec'") from None
        run = data.get("run")
        workers = data.get("workers")
        shards = data.get("shards")
        return cls(
            spec=spec,
            run=None if run is None else str(run),
            ases=int(data.get("ases", 400)),
            topology_seed=int(data.get("topology_seed", 11)),
            workers=None if workers is None else int(workers),
            shards=None if shards is None else int(shards),
        )


@dataclass(frozen=True)
class JobRecord:
    """One durable event in a job's life (one queue-file line)."""

    job: str
    event: str
    spec: Optional[JobSpec] = None
    detail: str = ""

    def __post_init__(self) -> None:
        if self.event not in STATUS_BY_EVENT:
            raise ReproError(
                f"unknown job event {self.event!r}; expected one of "
                f"{sorted(STATUS_BY_EVENT)}"
            )
        if self.event == "enqueued" and self.spec is None:
            raise ReproError("an 'enqueued' event must carry the spec")

    def to_json_dict(self) -> dict:
        data: dict = {
            "schema": JOB_SCHEMA,
            "kind": EVENT_KIND,
            "job": self.job,
            "event": self.event,
        }
        if self.spec is not None:
            data["spec"] = self.spec.to_json_dict()
        if self.detail:
            data["detail"] = self.detail
        return data

    @classmethod
    def from_json_dict(cls, data: dict) -> "JobRecord":
        schema = data.get("schema")
        if schema != JOB_SCHEMA:
            raise ReproError(
                f"unsupported job record schema {schema!r} "
                f"(this reader speaks {JOB_SCHEMA})"
            )
        kind = data.get("kind")
        if kind != EVENT_KIND:
            raise ReproError(
                f"not a job event line: kind {kind!r}"
            )
        try:
            job = str(data["job"])
            event = str(data["event"])
        except KeyError as exc:
            raise ReproError(
                f"job record missing key {exc}"
            ) from None
        raw_spec = data.get("spec")
        return cls(
            job=job,
            event=event,
            spec=(
                None if raw_spec is None
                else JobSpec.from_json_dict(raw_spec)
            ),
            detail=str(data.get("detail", "")),
        )


@dataclass
class JobState:
    """A job's folded view: its spec and where it is in its life."""

    job: str
    spec: JobSpec
    status: str = "queued"
    detail: str = ""
    history: tuple = field(default_factory=tuple)

    @property
    def pending(self) -> bool:
        """Does a scheduler still owe this job work?"""
        return self.status in PENDING_STATUSES

    def summary(self) -> dict:
        """JSON-ready view for ``GET /jobs`` and the CLI."""
        return {
            "job": self.job,
            "status": self.status,
            "run": self.spec.run,
            "spec_hash": self.spec.spec_hash,
            "detail": self.detail,
            "events": list(self.history),
        }
