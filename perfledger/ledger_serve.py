"""Serve-tier workloads: ``rtr_sync``, ``rtr_update``, ``http_query``.

One helper process (``ledger_server.py``) is the program under test;
this module is its load generator: one thread multiplexing ``C``
loopback connections with ``selectors``, each connection a closed loop
(a router or an HTTP client sends its next request only after the
previous reply is complete).  Traffic crosses the host's loopback
interface, not a link.

* ``rtr_sync`` — back-to-back Reset Query full-table syncs, served
  from the per-serial frame cache (every sync after the first is a
  cache hit).
* ``rtr_update`` — the write path: each operation replaces a seeded
  1 % of the VRPs, and ends when the last of the ``C`` routers has been
  notified, has sent Serial Query and has read End of Data for the new
  serial.  Every operation invalidates the frame cache.
* ``http_query`` — keep-alive ``GET /validity`` with a four-verdict mix
  (valid, invalid-length, invalid-origin, not-found).

Load connections do not decode tables: a full-table reply is accepted
by its byte count, Cache Response head and End of Data tail (serial
checked), so that the generator stays cheaper than the server.  Once
per slice a verifying ``repro.rtr.RtrClient`` decodes everything and
compares VRP sets.
"""

from __future__ import annotations

import json
import os
import random
import selectors
import socket
import struct
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional, Sequence, Tuple
from urllib.parse import quote

from repro.data import GeneratorConfig, generate_snapshot, write_vrp_csv
from repro.netbase import Prefix
from repro.netbase.prefix import AF_INET
from repro.rpki.vrp import Vrp
from repro.rtr import (
    ResetQueryPdu,
    RtrClient,
    SerialQueryPdu,
    decode_stream,
    encode_pdu,
    vrp_to_pdu,
)
from repro.serve import QueryService

from ledger_core import (
    HERE,
    LedgerError,
    Outcome,
    SpanRecorder,
    child_env,
    fastest,
    reap,
)

WORKLOADS = ("rtr_sync", "rtr_update", "http_query")

#: The measuring window is cut into slices of this many seconds.  A run
#: reports its best slice (see ``ledger_core.fastest``: the shorter the
#: slice, the likelier one of them falls in a quiet moment of the box);
#: tail percentiles pool every slice's samples.
SLICE_SECONDS = 1.0
#: Share of the table each ``rtr_update`` operation replaces.
CHURN = 0.01
#: Every n-th HTTP verdict is re-checked against an in-process service.
RECHECK_EVERY = 100
#: A reply that takes longer than this counts as a failed operation.
REPLY_TIMEOUT = 10.0
_HEADER = struct.Struct("!BBHI")  # RFC 6810: version, type, session, length


@dataclass(frozen=True)
class Sizes:
    scale: float        # of the 2017 Internet; 0.25 gives ~10.8k VRPs
    connections: int
    setups: int
    query_pool: int


def sizes(toy: bool) -> Sizes:
    if toy:
        return Sizes(scale=0.01, connections=2, setups=1, query_pool=200)
    return Sizes(
        scale=0.25,
        connections=min(os.cpu_count() or 1, 4),
        setups=3,
        query_pool=4000,
    )


# ----------------------------------------------------------------------
# The helper process
# ----------------------------------------------------------------------


class Helper:
    """The serve tier under test, spoken to over its stdin/stdout."""

    def __init__(self, vrp_csv: Path, work: Path) -> None:
        self._stderr = open(work / "helper.err", "wb")
        self.process = subprocess.Popen(
            [sys.executable, str(HERE / "ledger_server.py"), str(vrp_csv)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=self._stderr, env=child_env(), text=True,
        )
        try:
            self.ready = self.read()
        except BaseException:
            self.kill()
            raise

    def send(self, **command: object) -> None:
        assert self.process.stdin is not None
        self.process.stdin.write(json.dumps(command) + "\n")
        self.process.stdin.flush()

    def read(self) -> dict:
        assert self.process.stdout is not None
        line = self.process.stdout.readline()
        if not line:
            raise LedgerError("the serve helper exited unexpectedly")
        return json.loads(line)

    def command(self, **command: object) -> dict:
        self.send(**command)
        return self.read()

    def close(self) -> float:
        """Stop the helper; returns its peak RSS in MiB."""
        self.send(cmd="quit")
        self.read()
        return self._reap()

    def kill(self) -> None:
        if self.process.returncode is None:
            self.process.kill()
            self._reap()

    def _reap(self) -> float:
        for pipe in (self.process.stdin, self.process.stdout):
            if pipe is not None:
                pipe.close()
        rss_mb = reap(self.process)
        self._stderr.close()
        return rss_mb


# ----------------------------------------------------------------------
# Inputs, made from the seed
# ----------------------------------------------------------------------


class Inputs:
    """Everything one serve run feeds the helper: table, churn, queries."""

    def __init__(self, seed: int, size: Sizes) -> None:
        self.seed = seed
        self.size = size
        snapshot = generate_snapshot(
            GeneratorConfig(scale=size.scale, seed=seed)
        )
        self.table = sorted(snapshot.vrps)
        self.present = set(self.table)
        self.churn_rng = random.Random(seed + 1)

    def write(self, path: Path) -> None:
        write_vrp_csv(self.table, path)

    def frame_bytes(self) -> int:
        """Wire size of the full-table reply: Cache Response (8), one
        20-byte IPv4 or 32-byte IPv6 Prefix PDU per VRP, End of Data
        (12) — RFC 6810 §5."""
        v4 = sum(1 for vrp in self.table if vrp.prefix.is_ipv4)
        return 8 + 20 * v4 + 32 * (len(self.table) - v4) + 12

    def next_update(self) -> Tuple[List[int], List[list]]:
        """Replace a seeded 1 % of the table: the chosen VRPs move to a
        fresh private-use origin AS.  Mutates the mirrored table."""
        rng = self.churn_rng
        count = max(1, round(CHURN * len(self.table)))
        drop = sorted(rng.sample(range(len(self.table)), count))
        present = self.present
        added = []
        for index in drop:
            old = self.table[index]
            while True:
                new = Vrp(old.prefix, old.max_length,
                          4_200_000_000 + rng.randrange(90_000_000))
                if new not in present:
                    break
            present.discard(old)
            present.add(new)
            added.append(new)
        dropped = set(drop)
        self.table = sorted(
            [v for i, v in enumerate(self.table) if i not in dropped]
            + added
        )
        return drop, [[str(v.prefix), v.max_length, v.asn] for v in added]

    def queries(self) -> List[Tuple[int, object]]:
        """The four-verdict mix: per pool VRP in turn a valid query, a
        too-long subprefix, a wrong origin, and an uncovered prefix."""
        rng = random.Random(self.seed + 2)
        pool = rng.sample(self.table, min(len(self.table), 2000))
        out = []
        for index in range(self.size.query_pool):
            vrp = pool[index % len(pool)]
            mode = index % 4
            prefix, asn = vrp.prefix, vrp.asn
            if mode == 1 and prefix.length < prefix.max_family_length:
                prefix = next(iter(prefix.subprefixes(min(
                    prefix.max_family_length, vrp.max_length + 2))))
            elif mode == 2:
                asn = 65535
            elif mode == 3:
                prefix = Prefix(
                    AF_INET, (198 << 24) | (index << 8) & 0xFFFFFF00, 24)
            out.append((asn, prefix))
        return out


# ----------------------------------------------------------------------
# Load connections
# ----------------------------------------------------------------------


def _connect(port: int) -> Tuple[socket.socket, float]:
    started = time.perf_counter()
    sock = socket.create_connection(("127.0.0.1", port), timeout=REPLY_TIMEOUT)
    elapsed = time.perf_counter() - started
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock, elapsed


class Router:
    """One load router: an RTR connection that checks, not decodes."""

    def __init__(self, port: int, capacity: int) -> None:
        self.sock, self.connect_s = _connect(port)
        self.buffer = bytearray(capacity)
        self.view = memoryview(self.buffer)
        self.got = 0
        self.t0 = 0.0
        self.session_id = 0
        self.serial = -1
        self.notified_at = 0.0
        self._reset_query = encode_pdu(ResetQueryPdu())
        self._serial_query = b""

    def close(self) -> None:
        self.sock.close()

    # -- full-table sync ------------------------------------------------

    def send_reset(self) -> None:
        self.got = 0
        self.t0 = time.perf_counter()
        self.sock.sendall(self._reset_query)

    def read_table(self, expect_bytes: int, serial: int) -> Optional[bool]:
        """Absorb what arrived; True/False once the reply is complete
        and right/wrong, None while more is due."""
        n = self.sock.recv_into(self.view[self.got:])
        if n == 0:
            return False
        self.got += n
        if self.got < expect_bytes:
            return None
        buf = self.buffer
        _, head_type, session, head_len = _HEADER.unpack_from(buf, 0)
        _, tail_type, _, tail_len = _HEADER.unpack_from(buf, self.got - 12)
        (tail_serial,) = struct.unpack_from("!I", buf, self.got - 4)
        self.session_id, self.serial = session, tail_serial
        return (
            self.got == expect_bytes
            and (head_type, head_len) == (3, 8)
            and (tail_type, tail_len) == (7, 12)
            and tail_serial == serial
        )

    # -- incremental sync after Serial Notify ---------------------------

    def await_notify(self) -> None:
        self.got = 0
        self.notified_at = 0.0
        self._serial_query = encode_pdu(
            SerialQueryPdu(self.session_id, self.serial))

    def read_refresh(self, serial: int, pdus: int) -> Optional[bool]:
        """Serial Notify → Serial Query → data → End of Data.

        Walks PDU headers only.  True/False once End of Data arrived
        with the right/wrong serial and PDU count, None before."""
        n = self.sock.recv_into(self.view[self.got:])
        if n == 0:
            return False
        self.got += n
        buf, pos, seen = self.buffer, 0, 0
        while pos + 8 <= self.got:
            _, kind, _, length = _HEADER.unpack_from(buf, pos)
            if length < 8 or pos + length > self.got:
                break
            if kind == 0:  # Serial Notify
                if not self.notified_at:
                    self.notified_at = time.perf_counter()
                    self.sock.sendall(self._serial_query)
            else:
                seen += 1
                if kind == 7:  # End of Data
                    (got_serial,) = struct.unpack_from("!I", buf, pos + 8)
                    self.serial = got_serial
                    return got_serial == serial and seen == pdus
                if kind in (8, 10):  # Cache Reset, Error Report
                    return False
            pos += length
        return None


class HttpClient:
    """One keep-alive HTTP connection issuing ``GET /validity``."""

    def __init__(self, port: int) -> None:
        self.sock, self.connect_s = _connect(port)
        self.data = b""
        self.t0 = 0.0
        self.query = 0

    def close(self) -> None:
        self.sock.close()

    def send(self, query: int, request: bytes) -> None:
        self.data = b""
        self.query = query
        self.t0 = time.perf_counter()
        self.sock.sendall(request)

    def read(self) -> Optional[Tuple[int, bytes]]:
        """(status, body) once the response is complete, else None."""
        chunk = self.sock.recv(65536)
        if not chunk:
            return 0, b""
        self.data += chunk
        end = self.data.find(b"\r\n\r\n")
        if end < 0:
            return None
        head = self.data[:end]
        mark = head.find(b"Content-Length: ")
        if mark < 0:
            return 0, b""
        stop = head.find(b"\r\n", mark)
        length = int(head[mark + 16: stop if stop >= 0 else len(head)])
        body = self.data[end + 4:]
        if len(body) < length:
            return None
        return int(head[9:12]), body[:length]


def _multiplex(conns: Sequence, seconds: float, begin, absorb) -> Tuple[
    List[float], int, float
]:
    """Drive closed loops on ``conns`` for ``seconds``.

    ``begin(conn)`` issues a connection's next request; ``absorb(conn)``
    consumes what arrived and returns True/False when the reply is
    complete and right/wrong (None before).  Returns the latencies of
    the good replies, the count of bad ones, and the wall time until
    the last in-flight reply ended.
    """
    selector = selectors.DefaultSelector()
    latencies: List[float] = []
    failed = 0
    started = time.perf_counter()
    deadline = started + seconds
    for conn in conns:
        selector.register(conn.sock, selectors.EVENT_READ, conn)
        begin(conn)
    active = len(conns)
    try:
        while active:
            events = selector.select(REPLY_TIMEOUT)
            if not events:
                failed += active  # nothing for 10 s: all in flight lost
                break
            for key, _ in events:
                conn = key.data
                verdict = absorb(conn)
                if verdict is None:
                    continue
                now = time.perf_counter()
                if verdict:
                    latencies.append(now - conn.t0)
                else:
                    failed += 1
                if verdict and now < deadline:
                    begin(conn)
                else:
                    selector.unregister(conn.sock)
                    active -= 1
    finally:
        selector.close()
    return latencies, failed, time.perf_counter() - started


# ----------------------------------------------------------------------
# The three workloads
# ----------------------------------------------------------------------


class _Run:
    """State shared by the serve workloads for one run."""

    def __init__(self, workload: str, seed: int, seconds: float,
                 trace: bool, work: Path, toy: bool) -> None:
        self.workload = workload
        self.seconds = seconds
        self.trace = trace
        self.work = work
        self.size = sizes(toy)
        self.slices = max(3, round(seconds / SLICE_SECONDS))
        self.seed = seed
        self.outcome = Outcome()
        self.spans = SpanRecorder()
        self.expected_serial = 1  # the initial table is serial 1
        self.inputs: Optional[Inputs] = None
        self.helper: Optional[Helper] = None

    def set_up(self) -> None:
        """Snapshot generation, CSV write, helper spawn until its
        initial table is loaded — several times, the median reported."""
        times = []
        for attempt in range(self.size.setups):
            if self.helper is not None:
                self.helper.close()
                self.helper = None
            started = time.perf_counter()
            self.inputs = Inputs(self.seed, self.size)
            csv_path = self.work / "vrps.csv"
            self.inputs.write(csv_path)
            self.helper = Helper(csv_path, self.work)
            times.append(time.perf_counter() - started)
        self.outcome.metrics["setup_s"] = median(times)
        self.outcome.details["setup_s"] = times
        self.outcome.details["sizes"] = {
            "scale": self.size.scale,
            "vrps": len(self.inputs.table),
            "connections": self.size.connections,
            "slices": self.slices,
            "churn": CHURN,
        }

    def verify_table(self, client, what: str) -> None:
        """The verifying router's decoded table equals the installed one."""
        self.outcome.check(
            client.vrps == self.inputs.present
            and client.serial == self.expected_serial,
            f"{what}: verifying client's table or serial differs",
        )

    def finish(self, slices: List[Tuple[List[float], float]]) -> List[float]:
        """Fold the slices — (good reply latencies, wall) each — into
        the two end-to-end figures; returns the pooled latencies."""
        out = self.outcome
        slices = [(lat, wall) for lat, wall in slices if lat]
        if not slices:
            raise LedgerError(f"{self.workload}: no operation completed")
        rates = [len(lat) / wall for lat, wall in slices]
        medians = [median(lat) for lat, _ in slices]
        out.metrics["work_per_s"] = max(rates)
        out.metrics["op_latency_ms"] = fastest(medians) * 1e3
        out.details["slice_work_per_s"] = rates
        out.details["slice_p50_ms"] = [m * 1e3 for m in medians]
        pooled = [x for lat, _ in slices for x in lat]
        out.details["samples"] = len(pooled)
        return pooled

    def counters(self) -> dict:
        return self.helper.command(cmd="metrics")

    def layer_counters(self, before: dict, after: dict, wall: float) -> None:
        """Per-layer numbers read from the tier's own ``ServeMetrics``."""
        m = self.outcome.metrics
        delta = {
            key: after[key] - before[key]
            for key in after
            if isinstance(after[key], (int, float))
        }
        # Frame counters are cumulative since helper start, so that the
        # one encode of the initial table is on the books.
        hits, encodes = after["frame_hits"], after["frame_encodes"]
        m["serve.frames.hits"] = hits
        m["serve.frames.encodes"] = encodes
        m["serve.frames.hit_ratio"] = (
            hits / (hits + encodes) if hits + encodes else 0.0
        )
        m["serve.rtr.bytes_sent"] = delta["bytes_sent"]
        m["serve.rtr.pdus_sent"] = delta["pdus_sent"]
        m["serve.rtr.mb_per_s"] = delta["bytes_sent"] / 1e6 / wall
        m["serve.rtr.clients_evicted"] = after["clients_evicted"]
        m["serve.rtr.requests_shed"] = after["requests_shed"]
        m["serve.http.requests_shed"] = after["requests_shed"]
        m["serve.cpu_share"] = delta["process_time_s"] / wall
        if m["serve.cpu_share"] < 0.7:
            self.outcome.details["generator_bound"] = (
                f"helper CPU share {m['serve.cpu_share']:.2f}: the load "
                f"generator, not the server, limits this run"
            )


def run(workload: str, seed: int, seconds: float, trace: bool,
        work: Path, toy: bool) -> Outcome:
    state = _Run(workload, seed, seconds, trace, work, toy)
    try:
        state.set_up()
        {"rtr_sync": _rtr_sync, "rtr_update": _rtr_update,
         "http_query": _http_query}[workload](state)
        rss = state.helper.close()
        state.helper = None
    finally:
        if state.helper is not None:
            state.helper.kill()
    state.outcome.metrics["peak_rss_mb"] = rss
    state.outcome.details["spans"] = state.spans.summary()
    return state.outcome


def _rtr_sync(state: _Run) -> None:
    out, inputs, size = state.outcome, state.inputs, state.size
    port = state.helper.ready["rtr_port"]
    expect_bytes = inputs.frame_bytes()
    routers = [Router(port, expect_bytes + 4096)
               for _ in range(size.connections)]
    slices: List[Tuple[List[float], float]] = []
    sync_ms: List[float] = []
    try:
        before = state.counters()
        for index in range(state.slices):
            state.spans.rep = index
            with RtrClient("127.0.0.1", port) as client:
                with state.spans.span("rtr.client.sync") as span:
                    pdus = client.sync()
                state.verify_table(client, f"slice {index}")
            sync_ms.append(span.seconds * 1e3)
            out.check(pdus == len(inputs.table) + 2,
                      f"slice {index}: verifying sync saw {pdus} PDUs")
            latencies, failed, wall = _multiplex(
                routers, state.seconds / state.slices,
                Router.send_reset,
                lambda r: r.read_table(expect_bytes, state.expected_serial),
            )
            out.attempted += len(latencies) + failed
            out.failed += failed
            slices.append((latencies, wall))
        after = state.counters()
    finally:
        for router in routers:
            router.close()
    samples = state.finish(slices)
    if not state.trace:
        return
    m = out.metrics
    state.layer_counters(before, after, sum(w for _, w in slices))
    out.tail("rtr.sync_p95_ms", samples, 0.95, 1e3)
    m["serve.rtr.connect_ms"] = median(
        [r.connect_s for r in routers]) * 1e3
    m["rtr.client.sync_ms"] = median(sync_ms)
    # Generator-side codec speed, on the very frame the server sent.
    frame = bytes(routers[0].buffer[:expect_bytes])
    with state.spans.span("rtr.pdu.decode", bytes=len(frame)) as span:
        decoded, rest = decode_stream(frame)
    out.check(len(decoded) == len(inputs.table) + 2 and not rest,
              "captured full-table frame does not decode to the table")
    m["rtr.pdu.decode_mb_per_s"] = len(frame) / 1e6 / span.seconds
    with state.spans.span("rtr.pdu.encode", pdus=len(inputs.table)) as span:
        for vrp in inputs.table:
            encode_pdu(vrp_to_pdu(vrp))
    m["rtr.pdu.encode_pdus_per_s"] = len(inputs.table) / span.seconds


def _rtr_update(state: _Run) -> None:
    out, inputs, size = state.outcome, state.inputs, state.size
    port = state.helper.ready["rtr_port"]
    expect_bytes = inputs.frame_bytes()
    routers = [Router(port, expect_bytes + 4096)
               for _ in range(size.connections)]
    verifier = RtrClient("127.0.0.1", port)
    slices: List[Tuple[List[float], float]] = []
    notify_ms: List[float] = []
    helper_ms: Dict[str, List[float]] = {
        "update_ms": [], "reload_ms": [],
        "diff_encode_ms": [], "full_encode_ms": [],
    }

    def one_update(probe: bool) -> Optional[float]:
        """One refresh, from the update command to the last router's
        End of Data; None if any router failed."""
        drop, add = inputs.next_update()
        state.expected_serial += 1
        serial, pdus = state.expected_serial, 2 + len(drop) + len(add)
        for router in routers:
            router.await_notify()
        started = time.perf_counter()
        state.helper.send(cmd="update", drop=drop, add=add, probe=probe)
        for router in routers:
            router.t0 = started
        latencies, failed, _ = _multiplex(
            routers, 0.0, lambda r: None,
            lambda r: r.read_refresh(serial, pdus),
        )
        answer = state.helper.read()
        good = not failed and answer.get("serial") == serial
        for key, values in helper_ms.items():
            if key in answer:
                values.append(answer[key])
        if not good:
            return None
        notify_ms.append(
            (min(r.notified_at for r in routers) - started) * 1e3)
        return max(latencies)

    try:
        verifier.sync()
        for router in routers:  # routers start in sync at serial 1
            router.send_reset()
            while (ok := router.read_table(expect_bytes, 1)) is None:
                pass
            if not ok:
                raise LedgerError("initial router sync failed")
        before = state.counters()
        for index in range(state.slices):
            state.spans.rep = index
            slice_started = time.perf_counter()
            latencies: List[float] = []
            while (time.perf_counter() - slice_started
                   < state.seconds / state.slices):
                latency = one_update(probe=False)
                out.attempted += 1
                if latency is None:
                    out.failed += 1
                    break
                latencies.append(latency)
            slices.append(
                (latencies, time.perf_counter() - slice_started))
            verifier.sync()
            state.verify_table(verifier, f"slice {index}")
        after = state.counters()
        if state.trace:
            for _ in range(5):
                one_update(probe=True)
    finally:
        verifier.close()
        for router in routers:
            router.close()
    samples = state.finish(slices)
    out.details["vrps_replaced_per_update"] = max(
        1, round(CHURN * len(inputs.table)))
    if not state.trace:
        return
    m = out.metrics
    state.layer_counters(before, after, sum(w for _, w in slices))
    out.tail("rtr.update_to_synced_p90_ms", samples, 0.90, 1e3)
    m["serve.rtr.notify_ms"] = median(notify_ms)
    m["rtr.state.update_ms"] = median(helper_ms["update_ms"])
    m["serve.query.reload_ms"] = median(helper_ms["reload_ms"])
    m["serve.frames.diff_encode_ms"] = median(helper_ms["diff_encode_ms"])
    m["serve.frames.full_table_encode_ms"] = median(
        helper_ms["full_encode_ms"])
    for key, values in helper_ms.items():
        for value in values:
            state.spans.add(f"serve.helper.{key[:-3]}", value / 1e3)


def _http_query(state: _Run) -> None:
    out, inputs, size = state.outcome, state.inputs, state.size
    port = state.helper.ready["http_port"]
    queries = inputs.queries()
    requests = [
        (f"GET /validity?asn={asn}&prefix={quote(str(prefix), safe='')} "
         f"HTTP/1.1\r\nHost: ledger\r\n\r\n").encode("ascii")
        for asn, prefix in queries
    ]
    reference = QueryService(inputs.table)
    expected = [
        (result.state.value, result.reason)
        for result in reference.validity_batch(queries)
    ]
    clients = [HttpClient(port) for _ in range(size.connections)]
    cursor = 0
    non200 = 0
    wrong = 0
    answered = 0

    def begin(client: HttpClient) -> None:
        nonlocal cursor
        client.send(cursor % len(requests), requests[cursor % len(requests)])
        cursor += 1

    def absorb(client: HttpClient) -> Optional[bool]:
        nonlocal non200, wrong, answered
        reply = client.read()
        if reply is None:
            return None
        status, body = reply
        if status != 200:
            non200 += 1
            return False
        answered += 1
        if answered % RECHECK_EVERY == 0:
            verdict = json.loads(body)
            if (verdict["state"], verdict["reason"]) != expected[
                    client.query]:
                wrong += 1
                return False
        return True

    slices: List[Tuple[List[float], float]] = []
    try:
        before = state.counters()
        for index in range(state.slices):
            state.spans.rep = index
            latencies, failed, wall = _multiplex(
                clients, state.seconds / state.slices, begin, absorb)
            out.attempted += len(latencies) + failed
            out.failed += failed
            slices.append((latencies, wall))
        after = state.counters()
    finally:
        for client in clients:
            client.close()
    if wrong:
        out.problems.append(f"{wrong} HTTP verdicts differ from in-process")
    samples = state.finish(slices)
    out.details["verdicts_rechecked"] = answered // RECHECK_EVERY
    if not state.trace:
        return
    m = out.metrics
    state.layer_counters(before, after, sum(w for _, w in slices))
    out.tail("query.http_p99_us", samples, 0.99, 1e6)
    m["serve.http.non200"] = non200
    # The same questions asked in-process: what HTTP adds on top.
    single: List[float] = []
    clock = time.perf_counter
    with state.spans.span("serve.query.validity", queries=len(queries)):
        for asn, prefix in queries:
            started = clock()
            reference.validity(asn, prefix)
            single.append(clock() - started)
    m["serve.query.validity_per_s"] = len(queries) / sum(single)
    with state.spans.span("serve.query.batch", queries=len(queries)) as span:
        reference.validity_batch(queries)
    m["serve.query.batch_per_s"] = len(queries) / span.seconds
    m["serve.http.overhead_us"] = (
        out.metrics["op_latency_ms"] * 1e3 - median(single) * 1e6)
