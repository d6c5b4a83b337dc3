"""``repro.faults`` — deterministic fault injection + retry policy.

The robustness layer: a seeded :class:`FaultPlan` schedules faults
(IO errors, connection resets, stalls, worker crashes) over named
injection sites threaded through the serve and results tiers, and
:class:`RetryPolicy` is the one retry/backoff-with-jitter object every
retry loop shares.  Both are pure data and fully deterministic — the
test suite pins that a sharded run under an aggressive fault plan is
byte-identical to a fault-free serial run (architecture.md invariant
7).  See ``docs/robustness.md``.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "plan": (
        "FaultPlan", "FaultRule", "PLAN_ENV", "SITES", "active_plan", "fire",
        "fire_async", "install", "install_from_env", "uninstall",
    ),
    "retry": ("RetryPolicy",),
})
