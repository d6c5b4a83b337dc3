"""What every ledger workload shares: spans, statistics, timed children.

The ledger measures the program from outside.  End-to-end numbers come
from timing whole commands (``run_cli``) or whole protocol exchanges;
per-layer numbers come from a *traced repetition*, in which the harness
makes one public call per layer, each inside a ``SpanRecorder`` span.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: A percentile is printed only when this many samples lie beyond it.
MIN_BEYOND = 10


class LedgerError(Exception):
    """The benchmark itself could not run (not a wrong program output)."""


def load_catalogue() -> dict:
    """``BENCHMARK.json``: the one declaration of every metric name."""
    return json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------


@dataclass
class Span:
    """One timed call into a layer, taken at the layer's boundary."""

    id: int
    name: str
    parent: Optional[int]
    rep: int
    start: float = 0.0
    end: float = 0.0
    counts: Dict[str, float] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Spans of one run, kept in memory and written with the report.

    Spans nest: a span opened inside another records it as its parent,
    and every span carries the id of the repetition it belongs to.
    Counts attached to a span (records written, bytes, trials) are
    taken at the same boundary as its times.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.rep = 0
        self._open: List[Span] = []

    @contextlib.contextmanager
    def span(self, name: str, **counts: float) -> Iterator[Span]:
        span = Span(
            id=len(self.spans),
            name=name,
            parent=self._open[-1].id if self._open else None,
            rep=self.rep,
            counts=dict(counts),
        )
        self.spans.append(span)
        self._open.append(span)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._open.pop()

    def add(self, name: str, seconds: float, **counts: float) -> Span:
        """A span timed elsewhere (by the helper process), ending now."""
        now = time.perf_counter()
        span = Span(
            id=len(self.spans),
            name=name,
            parent=self._open[-1].id if self._open else None,
            rep=self.rep,
            start=now - seconds,
            end=now,
            counts=dict(counts),
        )
        self.spans.append(span)
        return span

    def durations(self, name: str) -> List[float]:
        return [s.seconds for s in self.spans if s.name == name]

    def busy(self, name: str) -> float:
        """Total seconds spent in spans of this name."""
        return sum(self.durations(name))

    def count(self, name: str, key: str) -> float:
        return sum(s.counts.get(key, 0) for s in self.spans
                   if s.name == name)

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per name: calls, busy seconds, and self seconds (busy minus
        the part covered by child spans)."""
        covered: Dict[int, float] = {}
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] = (
                    covered.get(span.parent, 0.0) + span.seconds
                )
        table: Dict[str, Dict[str, float]] = {}
        for span in self.spans:
            row = table.setdefault(
                span.name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
            )
            row["calls"] += 1
            row["busy_s"] += span.seconds
            row["self_s"] += span.seconds - covered.get(span.id, 0.0)
        return table


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------


def percentile(samples: Sequence[float], q: float) -> Optional[float]:
    """Nearest-rank percentile, or ``None`` when fewer than
    :data:`MIN_BEYOND` samples lie beyond it (too few to mean anything).
    The median is always available."""
    ordered = sorted(samples)
    if not ordered:
        return None
    rank = max(1, math.ceil(q * len(ordered)))
    if q > 0.5 and len(ordered) - rank < MIN_BEYOND:
        return None
    return ordered[rank - 1]


def fastest(seconds: Sequence[float]) -> float:
    """A run's figure for a time: its fastest repetition or slice.

    On the reference box a fixed pure-Python loop runs 1.0–1.7× its
    best time in phases of 5–20 s (host contention), about a third of
    the time.  Such noise only ever adds time, and a phase can cover
    most of one run's window, so the median over a run's repetitions
    moves with the host while the fastest repetition does not.  The
    report keeps median, min and max of every series beside it.
    """
    return min(seconds)


def digest(path: Path) -> str:
    """Identity of a file's bytes, for the byte-identity checks."""
    return hashlib.blake2b(path.read_bytes(), digest_size=16).hexdigest()


# ----------------------------------------------------------------------
# Timed child processes
# ----------------------------------------------------------------------


@dataclass
class Child:
    """One finished command: exec-to-exit wall, peak RSS, exit code."""

    argv: List[str]
    wall_s: float
    rss_mb: float
    returncode: int
    stdout: Path
    stderr: Path

    @property
    def ok(self) -> bool:
        return self.returncode == 0


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def reap(process: subprocess.Popen) -> float:
    """Wait for a child; returns its peak RSS in MiB.  ``ru_maxrss``
    comes from ``wait4`` and so covers the child's own waited-for
    children (shard workers) too."""
    _, status, usage = os.wait4(process.pid, 0)
    process.returncode = os.waitstatus_to_exitcode(status)
    return usage.ru_maxrss / 1024.0  # Linux reports KiB


def run_cli(args: Sequence[str], cwd: Path, tag: str) -> Child:
    """Run ``repro-roa <args>`` as a user would and wait for it.

    stdout and stderr go to files under ``cwd`` (bytes on disk, like a
    shell redirect), so a chatty command can never block on a pipe.
    """
    argv = [sys.executable, "-m", "repro.cli", *args]
    out_path = cwd / f"{tag}.out"
    err_path = cwd / f"{tag}.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        started = time.perf_counter()
        process = subprocess.Popen(
            argv, cwd=cwd, env=child_env(), stdout=out, stderr=err,
            stdin=subprocess.DEVNULL,
        )
        try:
            rss_mb = reap(process)
        except BaseException:  # watchdog or Ctrl-C: leave no orphan
            process.kill()
            reap(process)
            raise
        wall = time.perf_counter() - started
    return Child(
        argv=list(args),
        wall_s=wall,
        rss_mb=rss_mb,
        returncode=process.returncode,
        stdout=out_path,
        stderr=err_path,
    )


# ----------------------------------------------------------------------
# Leaving no process behind
# ----------------------------------------------------------------------

#: How long descendants get to end by themselves before they are killed.
DRAIN_GRACE_SECONDS = 10.0

_PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans() -> None:
    """Make this process the parent of every descendant that outlives
    its own parent, so that :func:`wait_for_descendants` can wait for it.

    A sharded ``repro-roa`` command publishes the topology in shared
    memory, which starts a ``multiprocessing`` resource tracker that
    ends only *after* the command has exited; without this it would be
    handed to pid 1 and still be there when the run's result is printed.
    """
    import ctypes

    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise LedgerError(
            f"prctl(PR_SET_CHILD_SUBREAPER): {os.strerror(ctypes.get_errno())}")


def _children() -> List[int]:
    """Pids whose parent is this process, from ``/proc``."""
    me = str(os.getpid())
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path("/proc", entry, "stat").read_text()
        except OSError:
            continue  # ended while we looked
        # pid (comm) state ppid ...; comm may itself contain ") ".
        if stat.rpartition(")")[2].split()[1] == me:
            found.append(int(entry))
    return found


def wait_for_descendants(grace: float = DRAIN_GRACE_SECONDS) -> int:
    """Wait until every process this run started, directly or not, has
    ended; returns how many had to be killed for that (0 on a clean run).

    This process's own resource tracker (started by the traced
    repetition's in-process sharded runs) ends when its pipe is closed;
    whatever else is still alive after ``grace`` seconds is killed, and
    a killed process's children are adopted and waited for in turn.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        with contextlib.suppress(OSError):
            stop()
    killed = 0
    deadline = time.monotonic() + grace
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return killed
        if pid:
            continue
        if time.monotonic() >= deadline:
            for child in _children():
                with contextlib.suppress(ProcessLookupError):
                    os.kill(child, 9)
                    killed += 1
            deadline = time.monotonic() + 1.0
        time.sleep(0.005)


# ----------------------------------------------------------------------
# What a workload hands back
# ----------------------------------------------------------------------


@dataclass
class Outcome:
    """One run of one workload.

    ``metrics`` holds the values this run produced, by declared name;
    ``details`` is the free-form part of the report (sizes, per-metric
    spreads, refused percentiles).  A failed, refused or wrong-answer
    operation, and every failed output check, counts into ``failed``.
    """

    attempted: int = 0
    failed: int = 0
    metrics: Dict[str, float] = field(default_factory=dict)
    details: Dict[str, object] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)

    def check(self, passed: bool, what: str) -> None:
        """One output check: counted as an operation, failed if not."""
        self.attempted += 1
        if not passed:
            self.failed += 1
            self.problems.append(what)

    def tail(self, name: str, samples: Sequence[float], q: float,
             scale: float) -> None:
        """Set a tail-percentile metric, or 0 with a note if refused."""
        value = percentile(samples, q)
        if value is None:
            self.details.setdefault("refused_percentiles", {})[name] = (
                f"{len(samples)} samples leave fewer than {MIN_BEYOND} "
                f"beyond p{round(q * 100)}"
            )
            self.metrics[name] = 0.0
        else:
            self.metrics[name] = value * scale


def repetitions(repeat, seconds: float, just_one: bool) -> list:
    """Call ``repeat(index)`` until ``seconds`` have passed (always at
    least once; exactly once before a traced repetition)."""
    done = [repeat(0)]
    started = time.perf_counter()
    while not just_one and time.perf_counter() - started < seconds:
        done.append(repeat(len(done)))
    return done
