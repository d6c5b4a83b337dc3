"""``repro.jobs`` — the always-on experiment platform.

The CLI runs one grid and exits; this package makes experiments a
*service*: submit a spec, let a scheduler execute it durably, watch it
live, diff it against any other run — the control-plane loop the
ROADMAP names over :mod:`repro.exper` and :mod:`repro.results`.

Four pieces, each reusing an existing discipline rather than
inventing one:

* :class:`JobSpec` / :class:`JobRecord` (:mod:`repro.jobs.model`) —
  the versioned (``schema: 1``) wire forms: an experiment spec plus
  the topology parameters that pin its world, and the append-only
  lifecycle events (``enqueued``/``started``/``finished``/
  ``failed``/``cancelled``).
* :class:`JobStore` (:mod:`repro.jobs.store`) — those events in one
  crash-safe JSONL file (the run-file idioms of
  :mod:`repro.results.sinks`: canonical lines, fsync per append,
  partial-tail recovery).  A job's status is a *fold* of its events,
  so recovery is a re-scan.
* :class:`JobScheduler` (:mod:`repro.jobs.scheduler`) — executes the
  queue through :class:`~repro.exper.runner.ExperimentRunner`,
  streaming each job into its own results-store run with one
  ``JsonlSink`` as both sink and resume source.  **Architecture
  invariant 8** falls out: a scheduled job's run bytes equal a direct
  ``repro-roa experiment`` of the same spec, even across a scheduler
  SIGKILL and restart-resume.
* :class:`JobsHttpServer` (:mod:`repro.jobs.http`) — the HTTP
  control plane on the serve tier's hardened base: ``POST
  /experiments`` to enqueue, ``/jobs`` CRUD, and (inherited) live
  stats, per-cell bootstrap CIs, and run-to-run diffs.

``repro-roa jobs submit|list|show|cancel|diff|run`` and ``repro-roa
serve --jobs`` are the CLI faces; ``jobs.*`` metrics and the
``jobs.enqueue``/``jobs.execute`` fault sites plug the platform into
:mod:`repro.obs` and :mod:`repro.faults` like every other tier.  See
``docs/platform.md``.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "http": ("JobsHttpServer",),
    "model": ("JobRecord", "JobSpec", "JobState"),
    "scheduler": ("JobScheduler",),
    "store": ("JobStore",),
})
