"""Seeded, deterministic fault injection for the whole stack.

PR 8 proved one narrow fault survives: a shard worker killed
mid-stream still converges on the serial bytes (today a ``crash``
rule at ``exper.shard.record``).  This module generalizes that
discipline.  A :class:`FaultPlan`
is a *schedule* of :class:`FaultRule`\\ s over named injection sites
threaded through the serve and results tiers::

    serve.rtr.accept      a router session was accepted
    serve.rtr.send        an RTR frame is about to be written
    serve.http.accept     an HTTP connection was accepted
    serve.http.request    an HTTP request is about to be routed
    serve.shards.dispatch a shard dispatch is about to be scheduled
    serve.shards.execute  a shard is about to execute on a worker
    serve.shards.request  a transport HTTP request is about to go out
    results.sink.write    a sink line is about to hit the file
    exper.shard.open      a local shard worker is about to open its run
    exper.shard.record    a shard worker just wrote one record
    rtr.client.send       a router is about to write an RTR query
    rtr.client.recv       a router is about to read from its cache
    jobs.enqueue          a job is about to be appended to the queue
    jobs.execute          a queued job is about to start executing

Code at each site calls :func:`fire` (or, inside the serve tier's
event loop, where a callback may not wait, :func:`injected_delay`)
with keyword context (``shard=1``, ``attempt=0``, ...).  With no plan
installed that is one global read and a ``return`` — effectively
free, which is what lets the hooks live on hot paths.  With a plan
installed, every matching rule counts the hit, and a rule whose
1-based ordinal is scheduled *injects*: raises
an :class:`OSError` (``EIO``/``ENOSPC``), raises
:class:`ConnectionResetError`, stalls the caller, delays it by a
deterministically jittered latency, or SIGKILLs the process.  Every
injection increments the ``faults.injected`` counter and is appended
to the plan's ``fired`` log.

Determinism is the contract: a plan is pure data (JSON round trip via
:meth:`FaultPlan.to_json`), :meth:`FaultPlan.generate` derives a plan
from a seed through an injected ``random.Random`` (same seed → same
schedule, asserted in tests), and hit counting is ordered by rule
declaration under one lock.  Worker processes inherit plans through
:data:`PLAN_ENV` — :func:`install_from_env` at worker entry re-parses
the JSON, so fork-inherited hit counters reset and every attempt sees
the same fresh schedule.
"""

from __future__ import annotations

import errno
import json
import os
import random
import signal
import threading
import time
# The C module behind ``hashlib.blake2b`` (the same function):
# importing ``hashlib`` itself would also load OpenSSL's ``_hashlib``.
from _blake2 import blake2b
from dataclasses import dataclass, field
from typing import List, Mapping, Optional, Tuple, Union

from ..netbase.codec import Field, decode, encode, many, record
from ..netbase.errors import ReproError
from ..obs.metrics import get_registry

__all__ = [
    "PLAN_ENV",
    "SITES",
    "FaultRule",
    "FaultPlan",
    "active_plan",
    "fire",
    "injected_delay",
    "install",
    "install_from_env",
    "uninstall",
]

#: Environment variable carrying a JSON-encoded :class:`FaultPlan`.
#: Worker entry points call :func:`install_from_env` so dispatched
#: shards (forked processes, worker servers) honor the same schedule.
PLAN_ENV = "REPRO_FAULT_PLAN"

#: The injection sites threaded through the stack (see module
#: docstring).  Purely documentary — :func:`fire` accepts any site
#: string, so new call sites need no registry edit.
SITES = (
    "serve.rtr.accept",
    "serve.rtr.send",
    "serve.http.accept",
    "serve.http.request",
    "serve.shards.dispatch",
    "serve.shards.execute",
    "serve.shards.request",
    "results.sink.write",
    "exper.shard.open",
    "exper.shard.record",
    "rtr.client.send",
    "rtr.client.recv",
    "jobs.enqueue",
    "jobs.execute",
)

_ACTIONS = ("error", "reset", "stall", "delay", "crash")
_ERRNOS = {"io": errno.EIO, "enospc": errno.ENOSPC}


@dataclass(frozen=True)
class FaultRule:
    """One scheduled fault: *where*, *what*, and *when*.

    ``site`` names the injection point; ``action`` is one of
    ``"error"`` (raise :class:`OSError` with the errno named by
    ``error`` — ``"io"`` or ``"enospc"``), ``"reset"`` (raise
    :class:`ConnectionResetError`), ``"stall"`` (sleep ``delay``
    seconds verbatim, then continue), ``"delay"`` (sleep ``delay``
    scaled by a deterministic per-hit jitter factor in [0.5, 1.5) —
    latency spread for tail-latency studies, reproducible per plan),
    or ``"crash"`` (SIGKILL the process).
    ``at`` holds 1-based ordinals over the rule's *matching* hits —
    ``at=(3,)`` injects on the third matching call.  ``match`` filters
    hits by context: every ``(key, value)`` pair must equal
    ``str(context[key])``, so ``match=(("shard", "1"), ("attempt",
    "0"))`` targets shard 1's first attempt only.
    """

    site: str
    action: str
    at: Tuple[int, ...] = (1,)
    error: str = "io"
    delay: float = 0.0
    match: Tuple[Tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "at", tuple(int(v) for v in self.at))
        raw = self.match
        if isinstance(raw, Mapping):
            raw = tuple(sorted(raw.items()))
        object.__setattr__(
            self,
            "match",
            tuple((str(k), str(v)) for k, v in raw),
        )
        if self.action not in _ACTIONS:
            raise ReproError(
                f"bad fault action {self.action!r}: expected one of "
                f"{', '.join(_ACTIONS)}"
            )
        if self.action == "error" and self.error not in _ERRNOS:
            raise ReproError(
                f"bad fault error kind {self.error!r}: expected one of "
                f"{', '.join(sorted(_ERRNOS))}"
            )
        if not self.at or any(ordinal < 1 for ordinal in self.at):
            raise ReproError("fault ordinals in `at` are 1-based")
        if not 0 <= self.delay < float("inf"):
            raise ReproError("fault delay must be finite and non-negative")
        if self.action == "delay" and self.delay <= 0:
            raise ReproError(
                "a delay fault needs a positive base delay to jitter"
            )

    def matches(self, site: str, context: Mapping[str, object]) -> bool:
        """Does a hit at ``site`` with ``context`` count for this rule?"""
        if site != self.site:
            return False
        return all(
            str(context.get(key)) == value for key, value in self.match
        )


#: A plan's wire form.  A rule's ``match`` is a list of ``[key,
#: value]`` string pairs.
_RULE_FIELDS = (
    Field("site", str),
    Field("action", str),
    Field("at", many(int), (1,)),
    Field("error", str, "io"),
    Field("delay", float, 0.0),
    Field("match", many(many(str, 2)), ()),
)
_PLAN_FIELDS = (
    Field("kind", const="repro.faults/plan"),
    Field("schema", const=1),
    Field("seed", (int, None), None),
    Field("rules", many(record("fault rule", _RULE_FIELDS, FaultRule)), ()),
)


@dataclass
class FaultPlan:
    """A deterministic schedule of faults, plus its firing record.

    The plan is pure data — rules and an optional provenance seed —
    and serializes to stable JSON (:meth:`to_json`), which is how it
    crosses process boundaries via :data:`PLAN_ENV`.  The runtime
    state (per-rule hit counters, the ``fired`` log) lives on the
    installed instance under a lock; :func:`install_from_env` parses a
    fresh instance, so counters always start at zero in a new worker.
    """

    rules: Tuple[FaultRule, ...] = ()
    seed: Optional[int] = None
    fired: List[dict] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.rules = tuple(self.rules)
        self._lock = threading.Lock()
        self._hits = [0] * len(self.rules)

    def to_json(self) -> str:
        """The plan as one stable JSON line (state excluded)."""
        return json.dumps(
            encode(_PLAN_FIELDS, vars(self)),
            sort_keys=True,
            separators=(",", ":"),
        )

    @classmethod
    def from_json(cls, text: Union[str, bytes]) -> "FaultPlan":
        """Parse a plan produced by :meth:`to_json`."""
        try:
            data = json.loads(text)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ReproError(f"bad fault plan JSON: {exc}") from None
        return cls(**decode("fault plan", _PLAN_FIELDS, data))

    @classmethod
    def generate(
        cls,
        seed: int,
        *,
        shards: int = 2,
        rules: int = 2,
        max_hit: int = 6,
        profile: str = "sharded",
    ) -> "FaultPlan":
        """Derive a plan from ``seed``: same seed, same schedule.

        ``profile="sharded"`` targets ``exper.shard.record`` with
        worker crashes and IO errors pinned to ``attempt=0`` (so
        retries recover and chaos equivalence holds); ``profile=
        "serve"`` targets ``serve.http.request`` with connection
        resets, IO errors, short stalls, and jittered delays.  All
        randomness comes from one injected ``random.Random(seed)``.
        """
        rng = random.Random(seed)
        if profile == "sharded":
            plan_rules = tuple(
                FaultRule(
                    site="exper.shard.record",
                    action=rng.choice(("crash", "error")),
                    at=(rng.randrange(1, max_hit + 1),),
                    error=rng.choice(("io", "enospc")),
                    match=(
                        ("shard", str(rng.randrange(shards))),
                        ("attempt", "0"),
                    ),
                )
                for _ in range(rules)
            )
        elif profile == "serve":
            plan_rules = tuple(
                FaultRule(
                    site="serve.http.request",
                    action=rng.choice(("reset", "error", "stall", "delay")),
                    at=(rng.randrange(1, max_hit + 1),),
                    error=rng.choice(("io", "enospc")),
                    delay=round(rng.uniform(0.005, 0.02), 4),
                )
                for _ in range(rules)
            )
        else:
            raise ReproError(
                f"unknown fault profile {profile!r}: "
                f"expected 'sharded' or 'serve'"
            )
        return cls(rules=plan_rules, seed=seed)

    def decide(
        self, site: str, context: Mapping[str, object]
    ) -> Optional[FaultRule]:
        """Count one hit; the rule scheduled to inject now, if any.

        Every matching rule's counter advances on every hit; the first
        rule whose new count is in its ``at`` schedule wins (and is
        logged).  Called by :func:`fire` — callers rarely need it
        directly.
        """
        decision = self._decide(site, context)
        return None if decision is None else decision[0]

    def delay_for(self, rule: FaultRule, site: str, hit: int) -> float:
        """The concrete sleep one injection of ``rule`` causes.

        ``stall`` sleeps the rule's delay verbatim.  ``delay`` scales
        it by a jitter factor in [0.5, 1.5) hashed from the plan seed,
        the site, and the hit ordinal — so one plan always produces
        the same latency *sequence* (no RNG, no global state), and
        different hits of the same rule land at different points of
        the spread, which is what a tail-latency study needs.
        """
        if rule.action != "delay":
            return rule.delay
        digest = blake2b(
            f"repro.faults.delay/{self.seed}/{site}/{hit}".encode(
                "utf-8"
            ),
            digest_size=8,
        ).digest()
        factor = 0.5 + int.from_bytes(digest, "big") / 2.0 ** 64
        return rule.delay * factor

    def _decide(
        self, site: str, context: Mapping[str, object]
    ) -> Optional[Tuple[FaultRule, int]]:
        """:meth:`decide`, plus the winning rule's hit ordinal."""
        chosen: Optional[Tuple[FaultRule, int]] = None
        with self._lock:
            for index, rule in enumerate(self.rules):
                if not rule.matches(site, context):
                    continue
                self._hits[index] += 1
                if chosen is None and self._hits[index] in rule.at:
                    chosen = (rule, self._hits[index])
            if chosen is None:
                return None
            rule, hit = chosen
            self.fired.append({
                "site": site,
                "action": rule.action,
                "hit": hit,
                "context": {
                    key: str(value)
                    for key, value in sorted(context.items())
                },
            })
        return rule, hit


_INSTALLED: Optional[FaultPlan] = None


def install(plan: FaultPlan) -> FaultPlan:
    """Install ``plan`` as the process's active fault plan."""
    global _INSTALLED
    _INSTALLED = plan
    return plan


def uninstall() -> None:
    """Remove the active fault plan; :func:`fire` goes back to free."""
    global _INSTALLED
    _INSTALLED = None


def active_plan() -> Optional[FaultPlan]:
    """The currently installed plan, or ``None``."""
    return _INSTALLED


def install_from_env(
    environ: Optional[Mapping[str, str]] = None,
) -> Optional[FaultPlan]:
    """Install the :data:`PLAN_ENV` plan, if set; else leave things be.

    Worker entry points call this first: parsing the env JSON yields a
    *fresh* plan instance, so hit counters inherited across ``fork``
    reset and every attempt replays the same deterministic schedule.
    """
    value = (os.environ if environ is None else environ).get(PLAN_ENV)
    if not value:
        return None
    return install(FaultPlan.from_json(value))


def _execute(plan: FaultPlan, rule: FaultRule, site: str, hit: int) -> float:
    """Perform a scheduled injection; returns the sleep to apply (or 0)."""
    get_registry().counter("faults.injected").inc()
    if rule.action == "crash":
        os.kill(os.getpid(), signal.SIGKILL)
    if rule.action == "reset":
        raise ConnectionResetError(
            f"injected fault: connection reset at {site}"
        )
    if rule.action == "error":
        code = _ERRNOS[rule.error]
        raise OSError(
            code, f"injected fault at {site}: {os.strerror(code)}"
        )
    return plan.delay_for(rule, site, hit)


def injected_delay(site: str, **context: object) -> float:
    """An injection point's decision, without the wait.

    Counts the hit; raises the injected error if a rule is due to
    raise (or SIGKILLs the process); otherwise returns the seconds the
    caller must stall — 0.0 unless a ``stall`` or ``delay`` rule is
    due.  :func:`fire` waits by sleeping; a protocol callback, which
    may not block, defers its work instead.
    """
    plan = _INSTALLED
    if plan is None:
        return 0.0
    decision = plan._decide(site, context)
    if decision is None:
        return 0.0
    rule, hit = decision
    return _execute(plan, rule, site, hit)


def fire(site: str, **context: object) -> None:
    """An injection point: no-op unless an installed rule is due.

    The disabled path is one module-global read and a return, so the
    hooks are safe on hot paths (sink writes, per-record loops).
    """
    if _INSTALLED is None:
        return
    delay = injected_delay(site, **context)
    if delay > 0:
        time.sleep(delay)
