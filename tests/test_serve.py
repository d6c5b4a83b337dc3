"""Tests for the repro.serve subsystem: async RTR fan-out, frame
caching, the RFC 6811 query service, metrics, and the HTTP front end.

Async paths run under ``asyncio.run`` from synchronous tests (the
environment has no pytest-asyncio); the threaded facade and LocalCache
wiring are exercised with the ordinary synchronous RTR client.
"""

from __future__ import annotations

import asyncio
import gc
import hashlib
import json
import random
import re
import socket
import sys
import threading
import time
import warnings
from pathlib import Path
from urllib.parse import parse_qs, quote

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp import BgpSpeaker, ValidationState, origin_validation
from repro.core import LocalCache
from repro.data import TopologyProfile, generate_topology
from repro.netbase import Prefix
from repro.netbase.errors import ReproError
from repro.rpki import Vrp
from repro.rtr import RtrClient
from repro.rtr.pdu import (
    CacheResetPdu,
    CacheResponsePdu,
    EndOfDataPdu,
    ErrorReportPdu,
    IncompletePdu,
    Ipv4PrefixPdu,
    ResetQueryPdu,
    SerialNotifyPdu,
    SerialQueryPdu,
    decode_pdu,
    decode_stream,
    encode_pdu,
    vrp_to_pdu,
)
from repro.rtr.session import CacheState
from repro.serve import (
    AsyncRtrClient,
    AsyncRtrServer,
    FrameCache,
    LatencyHistogram,
    QueryHttpServer,
    QueryService,
    ServeMetrics,
    ThreadedRtrServer,
    ThreadedShardWorkerServer,
)
from repro.serve.http import (
    HttpRequestError, HttpRequestParser, query_fields,
)
from repro.serve.query import _REBUILD_FRACTION

from segmentation import splits

#: An exception nobody could catch (a handler left pending past its
#: loop, a transport collected unclosed under ``-W error``) fails the
#: test that caused it.
pytestmark = pytest.mark.filterwarnings(
    "error::pytest.PytestUnraisableExceptionWarning")


def p(text: str) -> Prefix:
    return Prefix.parse(text)


V1 = Vrp(p("168.122.0.0/16"), 24, 111)
V2 = Vrp(p("10.0.0.0/8"), 8, 65000)
V3 = Vrp(p("2001:db8::/32"), 48, 7)

#: The paper's §4 running example: AS 31283's prefix with a loose
#: maxLength (87.254.32.0/19-20) plus a sibling minimal ROA.
PAPER_ROAS = [
    Vrp(p("87.254.32.0/19"), 20, 31283),
    Vrp(p("87.254.32.0/21"), 21, 31283),
]


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------


class TestMetrics:
    def test_histogram_quantiles(self):
        histogram = LatencyHistogram()
        for _ in range(90):
            histogram.observe(2e-6)    # 2 us
        for _ in range(10):
            histogram.observe(500e-6)  # 500 us
        snap = histogram.snapshot()
        assert snap["count"] == 100
        assert snap["p50_us"] <= 8
        assert snap["p99_us"] >= 256

    def test_observe_many_matches_repeated_observe(self):
        a, b = LatencyHistogram(), LatencyHistogram()
        for _ in range(1000):
            a.observe(3e-6)
        b.observe_many(3e-6, 1000)
        snap_a, snap_b = a.snapshot(), b.snapshot()
        assert snap_a["count"] == snap_b["count"] == 1000
        assert snap_a["p50_us"] == snap_b["p50_us"]
        assert snap_a["p99_us"] == snap_b["p99_us"]
        assert snap_a["mean_us"] == pytest.approx(snap_b["mean_us"])

    def test_counters_and_snapshot(self):
        metrics = ServeMetrics()
        metrics.increment("pdus_sent", 5)
        metrics.increment("connections_opened")
        assert metrics["pdus_sent"] == 5
        assert metrics.connections_active == 1
        snap = metrics.snapshot()
        assert snap["pdus_sent"] == 5
        assert snap["query_latency"]["count"] == 0


# ----------------------------------------------------------------------
# Frame cache
# ----------------------------------------------------------------------


class TestFrameCache:
    def test_full_table_encoded_once(self):
        metrics = ServeMetrics()
        state = CacheState()
        state.update([V1, V2, V3])
        frames = FrameCache(state, metrics=metrics)
        first, count = frames.full_table()
        for _ in range(99):
            again, _ = frames.full_table()
            assert again is first  # same object, not just equal bytes
        assert count == 3 + 2  # cache response + VRPs + end of data
        assert metrics["frame_encodes"] == 1
        assert metrics["frame_hits"] == 99

    def test_frames_are_in_vrp_order_byte_for_byte(self):
        """The tuple sort key must give the bytes plain ``sorted()`` on
        ``Vrp`` (prefix, maxLength, asn) gave."""
        rng = random.Random(5)
        table = [
            Vrp(Prefix(family, rng.getrandbits(8) << shift, 8 + length),
                8 + length + extra, asn)
            for family, shift in ((4, 24), (6, 120))
            for length in (0, 8) for extra in (0, 3) for asn in (3, 1, 2)
        ]
        rng.shuffle(table)
        state = CacheState()
        state.update(table[:12])
        state.update(table[6:])

        def frame(announced, withdrawn=()):
            pdus = [CacheResponsePdu(state.session_id)]
            pdus += [vrp_to_pdu(vrp, announce=True) for vrp in announced]
            pdus += [vrp_to_pdu(vrp, announce=False) for vrp in withdrawn]
            pdus.append(EndOfDataPdu(state.session_id, state.serial))
            return b"".join(encode_pdu(pdu) for pdu in pdus)

        frames = FrameCache(state)
        assert frames.full_table()[0] == frame(sorted(set(table[6:])))
        assert frames.diff(1)[0] == frame(
            sorted(set(table[12:]) - set(table[:12])),
            sorted(set(table[:6]) - set(table[6:])))
        assert frames.diff(0)[0] == frame(sorted(set(table[6:])))

    def test_new_serial_new_frame(self):
        state = CacheState()
        state.update([V1])
        frames = FrameCache(state)
        old, _ = frames.full_table()
        state.update([V1, V2])
        new, _ = frames.full_table()
        assert new != old

    def test_diff_frame_cached_and_none_past_history(self):
        metrics = ServeMetrics()
        state = CacheState(history_limit=2)
        for vrps in ([V1], [V1, V2], [V2], [V2, V3]):
            state.update(vrps)
        frames = FrameCache(state, metrics=metrics)
        assert frames.diff(1) is None  # beyond history: cache reset
        frame, count = frames.diff(2)
        assert frames.diff(2)[0] is frame
        assert metrics["frame_encodes"] == 1
        # serial 2 held {V1, V2}; now {V2, V3}: announce V3, withdraw V1.
        assert count == 2 + 2

    def test_eviction_keeps_only_current_serial(self):
        state = CacheState(history_limit=2)
        frames = FrameCache(state)
        for index in range(12):
            state.update([V1, Vrp(p("10.0.0.0/8"), 8 + index, 65000)])
            frames.full_table()
            frames.notify()
            frames.diff(state.serial - 1)
        # Lookups only ever hit the current serial, so exactly one
        # full-table frame (the expensive one) may survive.
        assert set(frames._full) == {state.serial}
        assert set(frames._notify) == {state.serial}
        assert all(key[1] == state.serial for key in frames._diff)


# ----------------------------------------------------------------------
# Query service: RFC 6811 validity states (satellite: §4 example ROAs)
# ----------------------------------------------------------------------


class TestQueryServiceRfc6811:
    @pytest.fixture()
    def service(self):
        return QueryService(PAPER_ROAS)

    def test_valid_at_roa_prefix(self, service):
        result = service.validity(31283, p("87.254.32.0/19"))
        assert result.state is ValidationState.VALID
        assert result.reason == "matched"
        assert result.matched == PAPER_ROAS[0]

    def test_valid_within_max_length(self, service):
        # The loose maxLength 20 authorizes both /20 halves.
        for text in ("87.254.32.0/20", "87.254.48.0/20"):
            assert service.validity(31283, p(text)).state is ValidationState.VALID

    def test_invalid_length_beyond_max_length(self, service):
        # /22 is covered by the /19-20 ROA but longer than every
        # matching maxLength: the §4 subprefix-hijack boundary.
        result = service.validity(31283, p("87.254.40.0/22"))
        assert result.state is ValidationState.INVALID
        assert result.reason == "invalid-length"
        assert result.matched is None
        assert PAPER_ROAS[0] in result.covering

    def test_invalid_origin_forged(self, service):
        result = service.validity(666, p("87.254.32.0/20"))
        assert result.state is ValidationState.INVALID
        assert result.reason == "invalid-origin"

    def test_not_found_uncovered(self, service):
        result = service.validity(31283, p("203.0.113.0/24"))
        assert result.state is ValidationState.NOTFOUND
        assert result.reason == "not-found"
        assert result.covering == ()

    def test_sibling_minimal_roa_still_valid(self, service):
        # 87.254.32.0/21 has its own minimal ROA: valid despite being
        # longer than the /19 ROA's maxLength.
        result = service.validity(31283, p("87.254.32.0/21"))
        assert result.state is ValidationState.VALID
        assert result.matched == PAPER_ROAS[1]

    def test_agrees_with_router_side_index(self, service):
        from repro.bgp import VrpIndex

        index = VrpIndex(PAPER_ROAS)
        cases = [
            (31283, "87.254.32.0/19"), (31283, "87.254.32.0/20"),
            (31283, "87.254.40.0/22"), (666, "87.254.32.0/20"),
            (31283, "87.254.32.0/21"), (1, "1.2.3.0/24"),
        ]
        for asn, text in cases:
            assert (service.validity(asn, p(text)).state
                    is index.validate(p(text), asn))

    def test_batch_matches_singles(self, service):
        queries = [(31283, p("87.254.32.0/20")), (666, p("87.254.32.0/20")),
                   (31283, p("203.0.113.0/24"))]
        batch = service.validity_batch(queries)
        singles = [service.validity(asn, prefix) for asn, prefix in queries]
        assert [r.state for r in batch] == [r.state for r in singles]
        assert service.metrics["queries"] == len(queries) * 2
        assert service.metrics["batch_queries"] == 1

    def test_reload_swaps_snapshot(self, service):
        assert service.validity(65000, p("10.1.0.0/16")).state \
            is ValidationState.NOTFOUND
        service.reload([V2], serial=9)
        assert service.serial == 9
        assert len(service) == 1
        assert service.validity(65000, p("10.0.0.0/8")).state \
            is ValidationState.VALID

    def test_to_json_shape(self, service):
        document = service.validity(31283, p("87.254.40.0/22")).to_json()
        assert document["state"] == "invalid"
        assert document["reason"] == "invalid-length"
        assert document["prefix"] == "87.254.40.0/22"
        assert "87.254.32.0/19-20 => AS31283" in document["covering"]

    def test_duplicate_vrps_deduplicated(self):
        service = QueryService(PAPER_ROAS + PAPER_ROAS)
        assert len(service) == len(PAPER_ROAS)
        result = service.validity(31283, p("87.254.40.0/22"))
        assert list(result.covering).count(PAPER_ROAS[0]) == 1

    def test_ipv6_queries(self):
        service = QueryService([V3])
        assert service.validity(7, p("2001:db8:1::/48")).state \
            is ValidationState.VALID
        assert service.validity(7, p("2001:db8::/64")).state \
            is ValidationState.INVALID


# ----------------------------------------------------------------------
# Query service: refreshing the table (delta reload, snapshot contract)
# ----------------------------------------------------------------------

#: Nested and sibling prefixes, several VRPs per prefix, both families.
UNIVERSE = [
    Vrp(p(text), max_length, asn)
    for text, spreads in [
        ("10.0.0.0/8", (0, 8)), ("10.0.0.0/16", (0, 8)),
        ("10.0.0.0/24", (0,)), ("10.0.1.0/24", (0, 4)),
        ("10.128.0.0/9", (0,)), ("192.168.0.0/16", (0, 8)),
        ("2001:db8::/32", (0, 16)), ("2001:db8:1::/48", (0,)),
    ]
    for max_length in [p(text).length + spread for spread in spreads]
    for asn in (3, 1, 2)
]
IPV4 = [vrp for vrp in UNIVERSE if vrp.prefix.is_ipv4]
IPV6 = [vrp for vrp in UNIVERSE if vrp.prefix.is_ipv6]
PROBES = [
    (asn, prefix)
    for prefix in sorted(
        {vrp.prefix for vrp in UNIVERSE}
        | {p("10.0.0.0/28"), p("10.0.1.128/25"), p("10.200.0.0/16"),
           p("192.168.7.0/24"), p("2001:db8:1:2::/64"), p("2001:db9::/32"),
           p("11.0.0.0/8")})
    for asn in (1, 2, 4)
]


def buckets(snapshot, family):
    """The bucket table of one family in a service's (or an index's)
    snapshot: shared between snapshots while the family is untouched."""
    index = getattr(snapshot, "_index", snapshot)
    return index._families[family]


def answers(service):
    return [json.dumps(service.validity(asn, prefix).to_json())
            for asn, prefix in PROBES]


class TestQueryServiceReload:
    @pytest.mark.parametrize("first, second", [
        pytest.param(UNIVERSE, UNIVERSE[1:] + [V2], id="small-delta"),
        pytest.param(UNIVERSE[:20], UNIVERSE[10:], id="above-threshold"),
        pytest.param(UNIVERSE, UNIVERSE[2:] * 2, id="duplicates-in-input"),
        pytest.param(IPV4 + IPV6[:1], IPV4, id="last-ipv6-withdrawn"),
        pytest.param(IPV4, IPV4 + IPV6[:1], id="ipv6-appears"),
        pytest.param(UNIVERSE, [], id="to-empty"),
        pytest.param([], UNIVERSE, id="from-empty"),
        pytest.param([], [], id="empty-to-empty"),
        pytest.param(UNIVERSE, list(reversed(UNIVERSE)), id="no-change"),
    ])
    def test_reloaded_answers_like_freshly_built(self, first, second):
        service = QueryService(first)
        service.reload(second, serial=2)
        fresh = QueryService(second)
        assert answers(service) == answers(fresh)
        assert len(service) == len(fresh) == len(set(second))
        assert service.serial == 2

    @settings(max_examples=120, deadline=None)
    @given(
        st.sets(st.sampled_from(UNIVERSE)),
        st.lists(st.sets(st.sampled_from(UNIVERSE), max_size=6), max_size=4),
        st.randoms(use_true_random=False),
    )
    def test_any_reload_sequence_answers_like_freshly_built(
            self, table, flips, rng):
        """Flipping a few VRPs at a time takes the delta path for large
        tables and the rebuild path for small ones; either way, and in
        whatever order the input lists its rows, the answers are those
        of a service built over the final table."""
        service = QueryService(table)
        for flip in flips:
            table = table ^ flip
            rows = sorted(table) + sorted(flip & table)
            rng.shuffle(rows)
            service.reload(rows)
            assert answers(service) == answers(QueryService(table))
            assert len(service) == len(table)

    def test_small_delta_shares_untouched_trees_large_delta_rebuilds(self):
        service = QueryService(UNIVERSE)
        before = service._index
        service.reload([vrp for vrp in UNIVERSE if vrp != IPV4[0]])
        assert service._index is not before
        assert buckets(service, 6) is buckets(before, 6)
        assert buckets(service, 4) is not buckets(before, 4)
        before = service._index
        service.reload(UNIVERSE[:len(UNIVERSE) // 4] + IPV6)
        assert buckets(service, 6) is not buckets(before, 6)

    @pytest.mark.parametrize("beyond, path", [(0, "delta"), (1, "rebuild")])
    def test_either_side_of_the_rebuild_fraction_answers_alike(
            self, beyond, path):
        """The largest delta the index applies to the one it holds,
        and one VRP more, which builds a fresh index: the same
        /validity JSON as a service started on the new table, either
        way.  The delta withdraws the first w IPv4 VRPs and announces
        a pool of new ones, so only w moves its share of the table."""
        base = [Vrp(Prefix(4, (10 << 24) | (i << 12), 20), 24, 100 + i)
                for i in range(32)] + IPV6
        pool = [Vrp(Prefix(4, (10 << 24) | (i << 10), 22), 22, 7)
                for i in range(8)]
        fits = max(w for w in range(32) if w + len(pool)
                   <= _REBUILD_FRACTION * (len(base) - w + len(pool)))
        table = base[fits + beyond:] + pool
        service = QueryService(base)
        before = service._index
        service.reload(table)
        shared = buckets(service, 6) is buckets(before, 6)
        assert shared == (path == "delta")
        probes = [(asn, vrp.prefix) for vrp in base + pool
                  for asn in (7, 100)]
        probes += [(7, Prefix(4, (10 << 24) | (5 << 10), 26)),
                   (7, p("11.0.0.0/8")), (7, p("2001:db8:1:2::/64"))]
        fresh = QueryService(table)
        for asn, prefix in probes:
            assert (json.dumps(service.validity(asn, prefix).to_json())
                    == json.dumps(fresh.validity(asn, prefix).to_json()))

    def test_batch_in_flight_stays_on_the_snapshot_it_started_with(self):
        old_table = UNIVERSE[:-1]
        new_table = [vrp for vrp in UNIVERSE[3:] if vrp not in IPV6[:2]]
        service = QueryService(old_table)
        expected_old = answers(QueryService(old_table))
        expected_new = answers(QueryService(new_table))
        assert expected_old != expected_new

        class ReloadsMidway(list):
            def __iter__(self):
                rows = super().__iter__()
                yield next(rows)
                service.reload(new_table)
                yield from rows

        batch = service.validity_batch(ReloadsMidway(PROBES))
        assert [json.dumps(r.to_json()) for r in batch] == expected_old
        assert answers(service) == expected_new

    def test_reload_leaves_the_previous_snapshot_unchanged(self):
        service = QueryService(UNIVERSE)
        snapshot = service._index
        before = [list(snapshot.covering(prefix)) for _, prefix in PROBES]
        for keep in (UNIVERSE[1:], UNIVERSE[5:], IPV4[2:], UNIVERSE):
            service.reload(keep)
        assert [list(snapshot.covering(prefix))
                for _, prefix in PROBES] == before
        assert len(snapshot) == len(UNIVERSE)


def ten_thousand_vrps() -> list:
    """A 10 k-VRP table of both families, fixed by its seed."""
    rng = random.Random(10)
    vrps: set = set()
    while len(vrps) < 10_000:
        family, width = (4, 32) if rng.random() < 0.85 else (6, 128)
        length = rng.randint(12, 24) if family == 4 else rng.randint(24, 48)
        vrps.add(Vrp(Prefix(family, rng.getrandbits(width), length),
                     min(width, length + rng.choice((0, 0, 1, 8))),
                     rng.randrange(1, 65_000)))
    return sorted(vrps)


class TestRefreshCostsTheDelta:
    """Counted, not timed: a reload that changes k VRPs of a 10 k table
    hashes at most k new VRPs and builds at most one new bucket per
    changed prefix, whatever the table size.  Both counts come from
    wrapping the hash and the bucket sort here, in the test.

    Not counted: the one O(n) C-level copy of each address family's
    dict that the change touches.  For the ~9.9 k IPv4 prefixes of a
    scale-0.25 table it takes ~70 us (2-core x86-64, CPython 3.11), of
    a ~0.5 ms index update for a 1 % refresh."""

    @pytest.fixture(scope="class")
    def table(self):
        return ten_thousand_vrps()

    @pytest.mark.parametrize("k", [1, 10, 100])
    def test_reload_work_is_proportional_to_the_delta(
            self, table, k, monkeypatch):
        service = QueryService(table)
        rng = random.Random(k)
        replaced = set(rng.sample(range(len(table)), k))
        new_table = [vrp for i, vrp in enumerate(table) if i not in replaced]
        new_table += [Vrp(table[i].prefix, table[i].max_length,
                          4_200_000_000 + i) for i in sorted(replaced)]
        changed_prefixes = {table[i].prefix for i in replaced}

        misses, sorts = [], []
        vrp_hash, sort_vrps = Vrp.__hash__, origin_validation.sort_vrps

        def counting_hash(vrp):
            try:
                vrp._hash
            except AttributeError:
                misses.append(vrp)
            return vrp_hash(vrp)

        def counting_sort(vrps):
            sorts.append(vrps)
            return sort_vrps(vrps)

        monkeypatch.setattr(Vrp, "__hash__", counting_hash)
        monkeypatch.setattr(origin_validation, "sort_vrps", counting_sort)
        service.reload(new_table)
        monkeypatch.undo()

        assert len(misses) <= k
        assert len(sorts) <= len(changed_prefixes)
        fresh = QueryService(new_table)
        for i in sorted(replaced):
            prefix = table[i].prefix
            for asn in (table[i].asn, 4_200_000_000 + i):
                assert (service.validity(asn, prefix).to_json()
                        == fresh.validity(asn, prefix).to_json())


# ----------------------------------------------------------------------
# Async RTR server
# ----------------------------------------------------------------------


def run(coroutine):
    return asyncio.run(coroutine)


class TestAsyncRtrServer:
    def test_fanout_encodes_once(self):
        async def scenario():
            metrics = ServeMetrics()
            async with AsyncRtrServer([V1, V2, V3], metrics=metrics) as server:
                clients = [AsyncRtrClient() for _ in range(32)]
                for client in clients:
                    await client.connect(server.host, server.port)
                await asyncio.gather(*(c.sync() for c in clients))
                try:
                    assert all(c.vrps == {V1, V2, V3} for c in clients)
                    assert metrics["frame_encodes"] == 1
                    assert metrics["frame_hits"] == 31
                    assert metrics["reset_queries"] == 32
                finally:
                    for client in clients:
                        await client.close()

        run(scenario())

    def test_update_broadcasts_notify_and_incremental_sync(self):
        async def scenario():
            async with AsyncRtrServer([V1, V2]) as server:
                a, b = AsyncRtrClient(), AsyncRtrClient()
                await a.connect(server.host, server.port)
                await b.connect(server.host, server.port)
                await a.sync()
                await b.sync()
                diff = await server.update([V1, V3])
                assert set(diff.announced) == {V3}
                await a.wait_for_notify()
                await b.wait_for_notify()
                await a.sync()
                await b.sync()
                assert a.vrps == b.vrps == {V1, V3}
                await a.close()
                await b.close()

        run(scenario())

    def test_noop_update_is_silent(self):
        async def scenario():
            metrics = ServeMetrics()
            async with AsyncRtrServer([V1], metrics=metrics) as server:
                client = AsyncRtrClient()
                await client.connect(server.host, server.port)
                await client.sync()
                before = server.state.serial
                diff = await server.update([V1])
                assert diff.empty
                assert server.state.serial == before
                assert metrics["notifies_sent"] == 0
                with pytest.raises(asyncio.TimeoutError):
                    await client.wait_for_notify(timeout=0.2)
                await client.close()

        run(scenario())

    def test_stale_serial_and_session_mismatch_reset(self):
        async def scenario():
            async with AsyncRtrServer([V1], history_limit=2) as server:
                client = AsyncRtrClient()
                await client.connect(server.host, server.port)
                await client.sync()
                for index in range(5):
                    await server.update(
                        [V1, Vrp(p("10.0.0.0/8"), 9 + index, 65000)])
                await client.sync()  # serial query -> cache reset -> reset
                assert client.vrps == server.state.vrps
                client.session_id = 999
                await client.sync()
                assert client.vrps == server.state.vrps
                await client.close()

        run(scenario())

    def test_unsupported_pdu_gets_error_report(self):
        from repro.rtr import ErrorReportPdu, SerialNotifyPdu, encode_pdu

        async def scenario():
            async with AsyncRtrServer([V1]) as server:
                client = AsyncRtrClient()
                await client.connect(server.host, server.port)
                client._writer.write(encode_pdu(SerialNotifyPdu(1, 1)))
                pdu = await client._recv_pdu()
                assert isinstance(pdu, ErrorReportPdu)
                assert pdu.error_code == ErrorReportPdu.UNSUPPORTED_PDU
                await client.close()

        run(scenario())

    def test_cache_error_report_raises_rtr_client_error(self):
        # Both clients share one PDU loop, so the async client reports
        # a cache's Error Report as the synchronous one does.
        from repro.rtr import ErrorReportPdu, RtrClientError

        async def cache(reader, writer):
            try:
                await reader.read(8)  # the Reset Query
                writer.write(encode_pdu(CacheResponsePdu(1)) + encode_pdu(
                    ErrorReportPdu(ErrorReportPdu.NO_DATA_AVAILABLE,
                                   text="no data")))
                await writer.drain()
                await reader.read()
            finally:
                writer.close()  # also when the test's end cancels us

        async def scenario():
            server = await asyncio.start_server(cache, "127.0.0.1", 0)
            async with server:
                client = AsyncRtrClient()
                await client.connect(*server.sockets[0].getsockname()[:2])
                with pytest.raises(RtrClientError, match="no data"):
                    await client.sync()
                await client.close()

        run(scenario())

    def test_corrupt_bytes_get_error_report(self):
        async def scenario():
            async with AsyncRtrServer([V1]) as server:
                reader, writer = await asyncio.open_connection(
                    server.host, server.port)
                writer.write(b"\x09" + b"\x00" * 7)  # bad version
                data = await reader.read(4096)
                assert data[1] == 10  # Error Report PDU type
                writer.close()

        run(scenario())

    def test_close_with_connected_client_does_not_hang(self):
        # Regression: since Python 3.12.1 Server.wait_closed() waits
        # for connection handlers; close() must kick idle clients first.
        async def scenario():
            server = AsyncRtrServer([V1])
            await server.start()
            client = AsyncRtrClient()
            await client.connect(server.host, server.port)
            await client.sync()  # leave the connection open and idle
            await asyncio.wait_for(server.close(), timeout=5)
            await client.close()

        run(scenario())


    @pytest.mark.parametrize("writes", [1, 2], ids=["one-write", "two-writes"])
    def test_pdus_before_a_malformed_one_are_answered(self, writes):
        """The answer does not depend on how TCP cut the stream: a Reset
        Query is answered in full before the malformed PDU after it
        gets its Error Report (RFC 8210 answers what arrived)."""
        query, malformed = encode_pdu(ResetQueryPdu()), b"\x09" + b"\x00" * 7

        async def scenario():
            async with AsyncRtrServer([V1]) as server:
                reader, writer = await asyncio.open_connection(
                    server.host, server.port)
                data = b""
                if writes == 1:
                    writer.write(query + malformed)
                else:
                    writer.write(query)
                    pending = bytearray()
                    data = await read_rtr_answer(reader, pending)
                    data += bytes(pending)
                    writer.write(malformed)
                data += await asyncio.wait_for(reader.read(), 10)
                writer.close()
                return data

        pdus, rest = decode_stream(run(scenario()))
        assert rest == b""
        assert [type(pdu) for pdu in pdus] == [
            CacheResponsePdu, Ipv4PrefixPdu, EndOfDataPdu, ErrorReportPdu]
        assert pdus[-1].error_code == ErrorReportPdu.CORRUPT_DATA


#: The PDUs that end a cache's answer on the wire.
_RTR_LAST = (EndOfDataPdu, CacheResetPdu, ErrorReportPdu, SerialNotifyPdu)


async def read_rtr_answer(reader, pending: bytearray) -> bytes:
    """The bytes of the cache's next answer: its PDUs up to and
    including one of :data:`_RTR_LAST`.  ``pending`` carries what
    arrived past it to the next call."""
    offset = 0
    while True:
        try:
            pdu, length = decode_pdu(bytes(pending), offset)
        except IncompletePdu:
            chunk = await asyncio.wait_for(reader.read(65536), 10)
            assert chunk, "the cache closed the connection mid-answer"
            pending += chunk
            continue
        offset += length
        if isinstance(pdu, _RTR_LAST):
            answer = bytes(pending[:offset])
            del pending[:offset]
            return answer


async def read_to_eof(reader) -> bytes:
    """What arrives until the cache closes; a reset reads as EOF (the
    cache may close before reading what the router sent)."""
    try:
        return await asyncio.wait_for(reader.read(), 10)
    except ConnectionResetError:
        return b""


RTR_GOLDEN = Path(__file__).with_name("rtr_golden.jsonl")


def rtr_script_exchanges() -> list:
    """One router's session with an ``AsyncRtrServer`` (session 7,
    history 2): every query kind the cache answers, and the Serial
    Notify of each ``update()``; ``[step, answer as hex]`` pairs."""
    async def scenario():
        exchanges = []
        async with AsyncRtrServer(
            [V1, V2], session_id=7, history_limit=2
        ) as server:
            reader, writer = await asyncio.open_connection(
                server.host, server.port)
            pending = bytearray()
            first = server.state.serial

            async def record(step):
                answer = await read_rtr_answer(reader, pending)
                exchanges.append([step, answer.hex()])

            async def ask(step, pdu):
                writer.write(encode_pdu(pdu))
                await record(step)

            await ask("reset query", ResetQueryPdu())
            await server.update([V1, V2, V3])
            await record("update: serial notify")
            current = server.state.serial
            await ask("serial query at the current serial",
                      SerialQueryPdu(7, current))
            await ask("serial query in history", SerialQueryPdu(7, first))
            for length in (9, 10):
                await server.update(
                    [V1, V2, V3, Vrp(p("10.0.0.0/8"), length, 65000)])
                await record(f"update to /{length}: serial notify")
            await ask("serial query past history", SerialQueryPdu(7, first))
            await ask("serial query, wrong session id",
                      SerialQueryPdu(8, server.state.serial))
            await ask("unsupported pdu", SerialNotifyPdu(7, 1))
            assert pending == bytearray()
            writer.close()
        return exchanges

    return run(scenario())


def write_rtr_golden() -> None:
    """Re-record :data:`RTR_GOLDEN`, only for a deliberate change of
    the wire format: from the repository root, ``PYTHONPATH=src:tests
    python -c "import test_serve; test_serve.write_rtr_golden()"``."""
    with open(RTR_GOLDEN, "w", encoding="ascii") as handle:
        for exchange in rtr_script_exchanges():
            handle.write(json.dumps(exchange) + "\n")


class TestRtrResponseBytes:
    def test_script_answers_byte_for_byte_as_recorded(self):
        with open(RTR_GOLDEN, encoding="ascii") as handle:
            golden = [json.loads(line) for line in handle]
        assert rtr_script_exchanges() == golden


class TestRtrFaultSites:
    """``serve.rtr.accept`` and ``serve.rtr.send``: a reset ends that
    router's session unanswered and no other, a stall delays the
    answer without reordering it."""

    def run_under(self, rules, scenario):
        from repro.faults import FaultPlan, install, uninstall

        plan = install(FaultPlan(rules=rules))

        async def wrapper():
            async with AsyncRtrServer([V1, V2, V3], session_id=7) as server:
                await scenario(server)

        try:
            run(wrapper())
        finally:
            uninstall()
        return plan

    def test_send_stall_delays_a_sync_without_reordering(self):
        from repro.faults import FaultRule

        async def scenario(server):
            reader, writer = await asyncio.open_connection(
                server.host, server.port)
            loop = asyncio.get_running_loop()
            started = loop.time()
            writer.write(encode_pdu(ResetQueryPdu())
                         + encode_pdu(SerialQueryPdu(7, server.state.serial)))
            pending = bytearray()
            first = await read_rtr_answer(reader, pending)
            second = await read_rtr_answer(reader, pending)
            assert loop.time() - started >= 0.05
            assert first == server.frames.full_table()[0]
            assert second == server.frames.diff(server.state.serial)[0]
            writer.close()

        plan = self.run_under((FaultRule(
            site="serve.rtr.send", action="stall", delay=0.05),), scenario)
        assert [event["site"] for event in plan.fired] == ["serve.rtr.send"]

    @pytest.mark.parametrize("site", ["serve.rtr.accept", "serve.rtr.send"])
    def test_reset_ends_only_that_routers_session(self, site):
        from repro.faults import FaultRule

        async def scenario(server):
            reader, writer = await asyncio.open_connection(
                server.host, server.port)
            writer.write(encode_pdu(ResetQueryPdu()))
            assert await read_to_eof(reader) == b""
            writer.close()
            router = AsyncRtrClient()
            await router.connect(server.host, server.port)
            await router.sync()
            assert router.vrps == {V1, V2, V3}
            await router.close()

        plan = self.run_under(
            (FaultRule(site=site, action="reset"),), scenario)
        assert [event["site"] for event in plan.fired] == [site]


class TestThreadedFacadeAndPipeline:
    def test_sync_client_against_threaded_server(self):
        with ThreadedRtrServer([V1, V2]) as server:
            with RtrClient(server.host, server.port) as client:
                client.sync()
                assert client.vrps == {V1, V2}
                server.update([V2, V3])
                client.wait_for_notify()
                client.sync()
                assert client.vrps == {V2, V3}

    def test_local_cache_async_backend(self):
        with LocalCache() as cache:
            cache.refresh_from_vrps([V1, V2])
            server = cache.serve()
            assert isinstance(server, ThreadedRtrServer)
            with RtrClient(server.host, server.port) as client:
                client.sync()
                assert client.vrps == {V1, V2}
                cache.refresh_from_vrps([V3])
                client.wait_for_notify()
                client.sync()
                assert client.vrps == {V3}

    def test_failed_start_does_not_poison_later_serves(self):
        blocker = socket.create_server(("127.0.0.1", 0))
        _, taken_port = blocker.getsockname()[:2]
        try:
            with LocalCache() as cache:
                cache.refresh_from_vrps([V1])
                with pytest.raises(OSError):
                    cache.serve(port=taken_port)
                server = cache.serve()  # retry on an ephemeral port
                with RtrClient(server.host, server.port) as client:
                    client.sync()
                    assert client.vrps == {V1}
        finally:
            blocker.close()

    def test_fanout_encode_count_via_threaded_server(self):
        table = [Vrp(Prefix(4, (10 << 24) + (i << 8), 24), 24, 65000 + i % 100)
                 for i in range(500)]
        with ThreadedRtrServer(table) as server:
            clients = [RtrClient(server.host, server.port) for _ in range(8)]
            try:
                for client in clients:
                    client.sync()
                    assert len(client.vrps) == 500
            finally:
                for client in clients:
                    client.close()
            assert server.metrics["frame_encodes"] == 1
            assert server.metrics["frame_hits"] == 7


def _rtr_facade(port: int = 0) -> ThreadedRtrServer:
    return ThreadedRtrServer([V1], port=port)


def _shard_worker_facade(port: int = 0) -> ThreadedShardWorkerServer:
    topology = generate_topology(TopologyProfile(ases=20), random.Random(9))
    return ThreadedShardWorkerServer(topology, port=port)


def _bgp_facade(port: int = 0) -> BgpSpeaker:
    return BgpSpeaker(65000, port=port)


def _threads_since(before: set, name: str) -> list:
    return [
        thread for thread in set(threading.enumerate()) - before
        if thread.name == name
    ]


@pytest.mark.parametrize("make, thread_name", [
    (_rtr_facade, "rtr-async-loop"),
    (_shard_worker_facade, "shard-worker-loop"),
    (_bgp_facade, "bgp-speaker-loop"),
])
class TestLoopThreadFacades:
    """The one loop-in-a-thread helper, through every facade holding it."""

    def test_bind_failure_raises_and_leaks_no_loop_thread(
        self, make, thread_name, tmp_path, monkeypatch
    ):
        # The shard worker's scratch directory would land here.
        monkeypatch.setattr("tempfile.tempdir", str(tmp_path))
        blocker = socket.create_server(("127.0.0.1", 0))
        before = set(threading.enumerate())
        try:
            with pytest.raises(OSError):
                make(port=blocker.getsockname()[1]).start()
        finally:
            blocker.close()
        assert _threads_since(before, thread_name) == []
        assert list(tmp_path.iterdir()) == []

    def test_close_twice_then_start_again(self, make, thread_name):
        before = set(threading.enumerate())
        facade = make()
        facade.close()  # never started: nothing to stop
        facade.start()
        first_port = facade.port
        socket.create_connection((facade.host, first_port), timeout=5).close()
        facade.close()
        facade.close()
        with pytest.raises(OSError):
            socket.create_connection((facade.host, first_port), timeout=5)
        with facade:
            socket.create_connection(
                (facade.host, facade.port), timeout=5).close()
        assert _threads_since(before, thread_name) == []


class TestCloseOwnsEveryConnection:
    """A connection accepted just before ``close()`` is closed by it:
    nothing is left for the collector, and no handler outlives it."""

    @pytest.mark.parametrize(
        "make", [_rtr_facade, _shard_worker_facade, _bgp_facade],
        ids=["rtr", "shard-worker", "bgp"])
    def test_raw_connect_then_close_leaves_no_unclosed_transport(
        self, make, monkeypatch, tmp_path
    ):
        monkeypatch.setattr("tempfile.tempdir", str(tmp_path))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ResourceWarning)
            gc.collect()  # what earlier tests left is theirs
        unraisable = []
        monkeypatch.setattr(
            sys, "unraisablehook",
            lambda hook: unraisable.append(repr(hook.exc_value)))
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            for _ in range(100):
                facade = make().start()
                client = socket.create_connection(
                    (facade.host, facade.port), timeout=5)
                facade.close()
                client.close()
            gc.collect()
        assert unraisable == []

    def test_no_task_outlives_close(self):
        """Three synced routers, a silent connection, an Established BGP
        session and an HTTP request held by a stall: after each
        server's ``close()``, no task it started is pending."""
        from repro.faults import FaultPlan, FaultRule, install, uninstall

        def pending(loop):
            return [task for task in asyncio.all_tasks(loop)
                    if task is not asyncio.current_task(loop)]

        def held(loop):
            return [task for task in pending(loop) if task.get_coro(
                ).__qualname__.startswith("_HttpConnection.")]

        async def scenario():
            rtr = await AsyncRtrServer([V1, V2]).start()
            http = await QueryHttpServer(QueryService(PAPER_ROAS)).start()
            routers = []
            for _ in range(3):
                router = AsyncRtrClient()
                await router.connect(rtr.host, rtr.port)
                await router.sync()
                routers.append(router)
            _, silent = await asyncio.open_connection(rtr.host, rtr.port)
            reader, writer = await asyncio.open_connection(
                http.host, http.port)
            writer.write(VALID_GET)
            loop = asyncio.get_running_loop()
            deadline = loop.time() + 5
            while not held(loop):  # the stalled answer is awaited
                assert loop.time() < deadline
                await asyncio.sleep(0.01)
            await rtr.close()
            assert pending(loop) == held(loop)
            await http.close()
            assert pending(loop) == []
            assert await read_to_eof(reader) == b""
            for router in routers:
                await router.close()
            silent.close()
            writer.close()

        install(FaultPlan(rules=(FaultRule(
            site="serve.http.request", action="stall", delay=30.0),)))
        try:
            with BgpSpeaker(111) as origin, BgpSpeaker(3356) as transit:
                transit.connect_to("127.0.0.1", origin.port, expected_asn=111)
                origin.wait_for_peer(3356)
                loops = [origin._loop._loop, transit._loop._loop]
                run(scenario())
                origin.close()
                assert pending(loops[0]) == []
            assert pending(loops[1]) == []
        finally:
            uninstall()


class TestNoTaskPerConnection:
    """RTR and BGP answer inside their protocol callbacks: a busy
    connection starts no task.  Counted through a task factory, like
    :class:`TestHttpPipelining`."""

    @staticmethod
    def recorder(created):
        """A task factory that records each task's coroutine but the
        event loop's own, which makes an accepted socket's transport."""
        def factory(loop, coro, **kwargs):
            if coro.__qualname__ != "BaseSelectorEventLoop._accept_connection2":
                created.append(coro.__qualname__)
            return asyncio.Task(coro, loop=loop, **kwargs)

        return factory

    def test_rtr_serial_queries_create_no_task(self):
        async def scenario():
            created = []
            loop = asyncio.get_running_loop()
            async with AsyncRtrServer([V1, V2]) as server:
                loop.set_task_factory(self.recorder(created))
                try:
                    router = AsyncRtrClient()
                    await router.connect(server.host, server.port)
                    await router.sync()
                    for _ in range(200):
                        assert await router.sync() == 2  # Cache Response + EoD
                    await router.close()
                finally:
                    loop.set_task_factory(None)
                assert server.metrics["serial_queries"] == 200
            return created

        assert run(scenario()) == []

    def test_an_established_bgp_session_creates_no_task(self):
        created = []
        with BgpSpeaker(111, hold_time=3) as origin, \
                BgpSpeaker(3356, hold_time=3) as transit:
            transit.connect_to("127.0.0.1", origin.port, expected_asn=111)
            origin.wait_for_peer(3356)
            loops = [origin._loop._loop, transit._loop._loop]
            for loop in loops:
                loop.call_soon_threadsafe(
                    loop.set_task_factory, self.recorder(created))
            time.sleep(2.2)  # two keepalives each way, read and answered
            for loop in loops:
                loop.call_soon_threadsafe(loop.set_task_factory, None)
            assert origin.peers() == [3356] and transit.peers() == [111]
        assert created == []


# ----------------------------------------------------------------------
# HTTP front end
# ----------------------------------------------------------------------


async def http_request(host, port, request: bytes) -> tuple[int, dict]:
    reader, writer = await asyncio.open_connection(host, port)
    writer.write(request)
    status, document = await read_response(reader)
    writer.close()
    return status, document


async def read_response(reader) -> tuple[int, dict]:
    status, _, body = await read_raw_response(reader)
    return status, json.loads(body)


async def read_raw_response(reader) -> tuple[int, bytes, bytes]:
    head = await reader.readuntil(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    length = 0
    content_type = b""
    for line in head.split(b"\r\n"):
        if line.lower().startswith(b"content-length:"):
            length = int(line.split(b":")[1])
        elif line.lower().startswith(b"content-type:"):
            content_type = line.split(b":", 1)[1].strip()
    body = await reader.readexactly(length)
    return status, content_type, body


class TestHttpServer:
    def run_with_server(self, scenario):
        async def wrapper():
            service = QueryService(PAPER_ROAS + [V1, V2])
            async with QueryHttpServer(service) as http:
                await scenario(http)

        run(wrapper())

    def test_get_validity_each_state(self):
        cases = [
            ("asn=31283&prefix=87.254.32.0%2F20", "valid", "matched"),
            ("asn=31283&prefix=87.254.40.0%2F22", "invalid", "invalid-length"),
            ("asn=666&prefix=87.254.32.0%2F20", "invalid", "invalid-origin"),
            ("asn=1&prefix=203.0.113.0%2F24", "notfound", "not-found"),
        ]

        async def scenario(http):
            for query, state, reason in cases:
                status, document = await http_request(
                    http.host, http.port,
                    f"GET /validity?{query} HTTP/1.1\r\n"
                    f"Connection: close\r\n\r\n".encode())
                assert status == 200
                assert document["state"] == state
                assert document["reason"] == reason

        self.run_with_server(scenario)

    def test_post_batch(self):
        async def scenario(http):
            body = json.dumps({"queries": [
                {"asn": 31283, "prefix": "87.254.32.0/20"},
                {"asn": "AS666", "prefix": "87.254.32.0/20"},
            ]}).encode()
            request = (
                b"POST /validity HTTP/1.1\r\n"
                + f"Content-Length: {len(body)}\r\n".encode()
                + b"Connection: close\r\n\r\n" + body)
            status, document = await http_request(http.host, http.port, request)
            assert status == 200
            states = [r["state"] for r in document["results"]]
            assert states == ["valid", "invalid"]

        self.run_with_server(scenario)

    def test_keep_alive_pipeline_and_metrics(self):
        async def scenario(http):
            reader, writer = await asyncio.open_connection(http.host, http.port)
            writer.write(b"GET /validity?asn=111&prefix=168.122.0.0%2F16 "
                         b"HTTP/1.1\r\n\r\n")
            status, document = await read_response(reader)
            assert status == 200 and document["state"] == "valid"
            writer.write(b"GET /metrics HTTP/1.1\r\nConnection: close\r\n\r\n")
            status, metrics = await read_response(reader)
            assert status == 200
            assert metrics["http_requests"] == 2
            assert metrics["queries"] == 1
            writer.close()

        self.run_with_server(scenario)

    def test_metrics_prometheus_format(self):
        async def scenario(http):
            reader, writer = await asyncio.open_connection(http.host, http.port)
            writer.write(b"GET /validity?asn=111&prefix=168.122.0.0%2F16 "
                         b"HTTP/1.1\r\n\r\n")
            await read_response(reader)
            writer.write(b"GET /metrics?format=prometheus HTTP/1.1\r\n"
                         b"Connection: close\r\n\r\n")
            status, content_type, body = await read_raw_response(reader)
            writer.close()
            assert status == 200
            assert content_type.startswith(b"text/plain")
            assert b"version=0.0.4" in content_type
            text = body.decode("utf-8")
            values = {}
            for line in text.splitlines():
                if line.startswith("# TYPE "):
                    continue
                series, value = line.rsplit(" ", 1)
                values[series] = float(value)
            assert values["serve_queries"] == 1
            assert values["serve_http_requests"] == 2
            # The derived gauge is always exposed (HTTP connections are
            # not counted in connections_opened — only RTR sessions are).
            assert "serve_connections_active" in values
            assert "# TYPE serve_query_latency histogram" in text
            assert values["serve_query_latency_count"] == 1

        self.run_with_server(scenario)

    def test_metrics_unknown_format_is_400(self):
        async def scenario(http):
            status, document = await http_request(
                http.host, http.port,
                b"GET /metrics?format=xml HTTP/1.1\r\n"
                b"Connection: close\r\n\r\n")
            assert status == 400
            assert "error" in document

        self.run_with_server(scenario)

    def test_status_endpoint(self):
        async def scenario(http):
            status, document = await http_request(
                http.host, http.port,
                b"GET /status HTTP/1.1\r\nConnection: close\r\n\r\n")
            assert status == 200
            assert document["vrps"] == len(PAPER_ROAS) + 2

        self.run_with_server(scenario)

    def test_bad_requests(self):
        async def scenario(http):
            for request, expected in [
                (b"GET /validity?asn=xyz&prefix=10.0.0.0%2F8 HTTP/1.1"
                 b"\r\nConnection: close\r\n\r\n", 400),
                (b"GET /validity?asn=1 HTTP/1.1\r\nConnection: close\r\n\r\n",
                 400),
                (b"GET /nope HTTP/1.1\r\nConnection: close\r\n\r\n", 404),
                (b"DELETE /validity HTTP/1.1\r\nConnection: close\r\n\r\n",
                 405),
            ]:
                status, document = await http_request(
                    http.host, http.port, request)
                assert status == expected
                assert "error" in document

        self.run_with_server(scenario)

    BAD_ASNS = ["-5", "AS-1", "1_000", "4294967296", "+7", "\u0663",
                "\u00b2", "1.65536", "AS"]

    def test_asn_that_is_not_an_as_number_gets_400(self):
        async def scenario(http):
            for asn in self.BAD_ASNS:
                status, document = await http_request(
                    http.host, http.port,
                    f"GET /validity?asn={quote(asn)}&prefix=10.0.0.0%2F8 "
                    f"HTTP/1.1\r\nConnection: close\r\n\r\n".encode())
                assert status == 400, asn
                assert "bad ASN" in document["error"]
            for asn in self.BAD_ASNS + [-5, 4294967296, 7.0, True, [7]]:
                body = json.dumps({"queries": [
                    {"asn": 31283, "prefix": "87.254.32.0/20"},
                    {"asn": asn, "prefix": "87.254.32.0/20"},
                ]}).encode()
                status, document = await http_request(
                    http.host, http.port,
                    b"POST /validity HTTP/1.1\r\n"
                    + f"Content-Length: {len(body)}\r\n".encode()
                    + b"Connection: close\r\n\r\n" + body)
                assert status == 400, asn
                assert "bad ASN" in document["error"]

        self.run_with_server(scenario)

    # Other scripts' digits, a superscript length (int() refuses it
    # with a bare ValueError) and a fullwidth IPv6 digit.
    BAD_PREFIXES = ["1.2.3.0/²", "١.2.3.4/24", "1.2.3.0/٢٤",
                    "::１/128", "::-1/128", "1.2.3.0/" + "9" * 5000]

    def test_prefix_that_is_not_ascii_gets_400(self):
        async def scenario(http):
            for prefix in self.BAD_PREFIXES:
                status, document = await http_request(
                    http.host, http.port,
                    f"GET /validity?asn=100&prefix={quote(prefix)} "
                    f"HTTP/1.1\r\nConnection: close\r\n\r\n".encode())
                assert status == 400, prefix
                assert "bad prefix" in document["error"]
                body = json.dumps({"queries": [
                    {"asn": 100, "prefix": prefix}]}).encode()
                status, document = await http_request(
                    http.host, http.port,
                    b"POST /validity HTTP/1.1\r\n"
                    + f"Content-Length: {len(body)}\r\n".encode()
                    + b"Connection: close\r\n\r\n" + body)
                assert status == 400, prefix
                assert "bad prefix" in document["error"]

        self.run_with_server(scenario)

    def test_every_as_number_spelling_parse_asn_takes_gets_200(self):
        async def scenario(http):
            for asn in ["31283", "AS31283", "as31283", "0.31283"]:
                status, document = await http_request(
                    http.host, http.port,
                    f"GET /validity?asn={asn}&prefix=87.254.32.0%2F20 "
                    f"HTTP/1.1\r\nConnection: close\r\n\r\n".encode())
                assert status == 200, asn
                assert document["asn"] == 31283
                assert document["state"] == "valid"

        self.run_with_server(scenario)

    def test_malformed_request_line_gets_400(self):
        async def scenario(http):
            status, document = await http_request(
                http.host, http.port, b"garbage\r\n\r\n")
            assert status == 400
            assert "malformed request line" in document["error"]

        self.run_with_server(scenario)

    def test_bad_content_length_gets_400(self):
        async def scenario(http):
            for value in (b"abc", b"-5", b"+5", b"1_0", b"",
                          b"5\r\nContent-Length: 6"):
                status, document = await http_request(
                    http.host, http.port,
                    b"POST /validity HTTP/1.1\r\nContent-Length: " + value
                    + b"\r\n\r\n")
                assert status == 400
                assert "Content-Length" in document["error"]

        self.run_with_server(scenario)

    def test_large_batch_offloaded_to_executor(self):
        # Above the executor threshold the loop stays free; results
        # must be identical either way.
        async def scenario(http):
            queries = [{"asn": 31283, "prefix": "87.254.32.0/20"}] * 600
            body = json.dumps({"queries": queries}).encode()
            request = (
                b"POST /validity HTTP/1.1\r\n"
                + f"Content-Length: {len(body)}\r\n".encode()
                + b"Connection: close\r\n\r\n" + body)
            status, document = await http_request(http.host, http.port, request)
            assert status == 200
            assert len(document["results"]) == 600
            assert all(r["state"] == "valid" for r in document["results"])

        self.run_with_server(scenario)

    def test_oversized_batch_rejected(self):
        from repro.serve import http as http_module

        async def scenario(http):
            queries = [{"asn": 1, "prefix": "10.0.0.0/8"}] * (
                http_module._MAX_BATCH_QUERIES + 1)
            body = json.dumps({"queries": queries}).encode()
            request = (
                b"POST /validity HTTP/1.1\r\n"
                + f"Content-Length: {len(body)}\r\n".encode()
                + b"Connection: close\r\n\r\n" + body)
            status, document = await http_request(http.host, http.port, request)
            # Either the body-size cap or the batch cap may fire first
            # depending on JSON size; both must be a clean 400.
            assert status == 400
            assert "error" in document

        self.run_with_server(scenario)

    def test_oversized_head_gets_400(self):
        async def scenario(http):
            request = (b"GET /status HTTP/1.1\r\nX-Pad: "
                       + b"a" * 80000 + b"\r\n\r\n")
            status, document = await http_request(http.host, http.port, request)
            assert status == 400
            assert "too large" in document["error"]

        self.run_with_server(scenario)

    def test_connection_close_is_case_insensitive(self):
        async def scenario(http):
            reader, writer = await asyncio.open_connection(http.host, http.port)
            writer.write(b"GET /status HTTP/1.1\r\nConnection: Close\r\n\r\n")
            raw = await asyncio.wait_for(reader.read(), timeout=5)  # to EOF
            assert raw.startswith(b"HTTP/1.1 200")
            assert b"Connection: close" in raw
            writer.close()

        self.run_with_server(scenario)

    def test_http_10_defaults_to_close(self):
        async def scenario(http):
            reader, writer = await asyncio.open_connection(http.host, http.port)
            writer.write(b"GET /status HTTP/1.0\r\n\r\n")
            raw = await asyncio.wait_for(reader.read(), timeout=5)  # to EOF
            assert raw.startswith(b"HTTP/1.1 200")
            assert b"Connection: close" in raw
            writer.close()

        self.run_with_server(scenario)

    def test_close_with_idle_keep_alive_client_does_not_hang(self):
        # Regression twin of the RTR close fix: an idle keep-alive
        # connection must not stall wait_closed() on Python 3.12.1+.
        async def scenario():
            service = QueryService(PAPER_ROAS)
            http = QueryHttpServer(service)
            await http.start()
            reader, writer = await asyncio.open_connection(http.host, http.port)
            writer.write(b"GET /status HTTP/1.1\r\n\r\n")
            await read_response(reader)  # handler now idles in readuntil
            await asyncio.wait_for(http.close(), timeout=5)
            writer.close()

        run(scenario())


#: The raw responses to :data:`HTTP_SCRIPT`, recorded from the
#: stream-based server the one-Protocol front end replaced.
HTTP_GOLDEN = Path(__file__).with_name("http_golden.jsonl")


def _post_validity(queries: list, connection: str = "") -> bytes:
    body = json.dumps({"queries": queries}).encode()
    return (b"POST /validity HTTP/1.1\r\n"
            + f"Content-Length: {len(body)}\r\n{connection}\r\n".encode()
            + body)


#: ``(connection, request)`` in send order; one request is answered
#: before the next is sent.  Connection 0 is an HTTP/1.1 keep-alive
#: stream over every route, 1 an HTTP/1.0 keep-alive, 2 a malformed
#: request line.
HTTP_SCRIPT = tuple(
    [(0, f"GET /validity?{query} HTTP/1.1\r\nHost: golden\r\n\r\n".encode())
     for query in (
         "asn=31283&prefix=87.254.32.0%2F20",
         "asn=31283&prefix=87.254.40.0%2F22",
         "asn=666&prefix=87.254.32.0%2F20",
         "asn=1&prefix=203.0.113.0%2F24",
         "asn=7&prefix=2001%3Adb8%3A%3A%2F40",
         "asn=AS65000&prefix=10.1.0.0/16&asn=1",
         "asn=xyz&prefix=10.0.0.0%2F8",
     )]
    + [(0, request) for request in (
        b"GET /nope HTTP/1.1\r\n\r\n",
        b"DELETE /validity HTTP/1.1\r\n\r\n",
        _post_validity([{"asn": 31283, "prefix": "87.254.32.0/20"},
                        {"asn": "AS666", "prefix": "87.254.32.0/20"}]),
        _post_validity(
            [{"asn": 31283, "prefix": "87.254.32.0/20"},
             {"asn": 111, "prefix": "168.122.7.0/24"}] * 300),
        b"GET /status HTTP/1.1\r\n\r\n",
        b"GET /healthz HTTP/1.1\r\n\r\n",
        b"GET /readyz HTTP/1.1\r\n\r\n",
        b"GET /metrics HTTP/1.1\r\n\r\n",
        b"GET /metrics?format=prometheus HTTP/1.1\r\n\r\n",
        b"GET /experiments HTTP/1.1\r\n\r\n",
        b"GET /experiments/golden HTTP/1.1\r\n\r\n",
        b"GET /experiments/golden/ci HTTP/1.1\r\n\r\n",
        b"GET /diff?a=golden&b=golden HTTP/1.1\r\n\r\n",
        b"GET /experiments/none HTTP/1.1\r\n\r\n",
        b"POST /experiments HTTP/1.1\r\nContent-Length: 0\r\n\r\n",
        b"GET /validity?asn=111&prefix=168.122.0.0%2F16 HTTP/1.1\r\n"
        b"Connection: close\r\n\r\n",
    )]
    + [
        (1, b"GET /status HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"),
        (1, b"GET /validity?asn=65000&prefix=10.0.0.0%2F8 HTTP/1.0\r\n\r\n"),
        (2, b"garbage\r\n\r\n"),
    ]
)

_NUMBER = re.compile(rb"\d+(?:\.\d+)?(?:e[-+]?\d+)?")
_LENGTH = re.compile(rb"Content-Length: \d+")


def _recorded_form(request: bytes, response: bytes) -> str:
    """The response as the golden file holds it.  Metrics values
    (counts and latencies) move from run to run, so every number of a
    ``/metrics`` body, and its length, is masked; a body past 4 KiB is
    held as its SHA-256."""
    head, _, body = response.partition(b"\r\n\r\n")
    if request.startswith(b"GET /metrics"):
        head = _LENGTH.sub(b"Content-Length: #", head)
        body = _NUMBER.sub(b"#", body)
    if len(body) > 4096:
        body = b"sha256:" + hashlib.sha256(body).hexdigest().encode()
    return (head + b"\r\n\r\n" + body).decode("latin-1")


async def _read_one_response(reader) -> bytes:
    head = await reader.readuntil(b"\r\n\r\n")
    length = next(
        int(line.split(b":", 1)[1])
        for line in head.split(b"\r\n")
        if line.lower().startswith(b"content-length:")
    )
    return head + await reader.readexactly(length)


def http_script_exchanges(store_dir) -> list:
    """Run :data:`HTTP_SCRIPT` against a ``QueryHttpServer`` over the
    paper's ROAs and a one-run store; ``[request line, recorded form
    of the response]`` pairs as text."""
    from repro.exper import (
        ExperimentRunner, ExperimentSpec, MaxLengthLooseRoa, MinimalRoa,
        ScenarioCell,
    )
    from repro.results import ResultsStore

    store = ResultsStore(store_dir)
    sink = store.sink("golden")
    ExperimentRunner(
        generate_topology(TopologyProfile(ases=150), random.Random(9)),
        ExperimentSpec(
            cells=(
                ScenarioCell("forged-origin-subprefix", MinimalRoa()),
                ScenarioCell("forged-origin-subprefix", MaxLengthLooseRoa()),
            ),
            trials=6, seed=4, fractions=(None, 0.5),
        ),
        sink=sink,
    ).run()
    sink.close()

    async def scenario():
        service = QueryService(PAPER_ROAS + [V1, V2, V3])
        exchanges = []
        async with QueryHttpServer(service, store=store) as http:
            streams = {}
            for connection, request in HTTP_SCRIPT:
                if connection not in streams:
                    streams[connection] = await asyncio.open_connection(
                        http.host, http.port)
                reader, writer = streams[connection]
                writer.write(request)
                response = await asyncio.wait_for(
                    _read_one_response(reader), timeout=10)
                exchanges.append([
                    request.partition(b"\r\n")[0].decode("latin-1"),
                    _recorded_form(request, response),
                ])
            for reader, writer in streams.values():
                # Every connection the script ends is closed by the
                # server: nothing more arrives.
                assert await asyncio.wait_for(reader.read(), 10) == b""
                writer.close()
        return exchanges

    return run(scenario())


def write_http_golden(store_dir) -> None:
    """Re-record :data:`HTTP_GOLDEN`, only for a deliberate change of
    the wire format: from the repository root, ``PYTHONPATH=src:tests
    python -c "import tempfile, test_serve;
    test_serve.write_http_golden(tempfile.mkdtemp())"``."""
    with open(HTTP_GOLDEN, "w", encoding="ascii") as handle:
        for exchange in http_script_exchanges(store_dir):
            handle.write(json.dumps(exchange) + "\n")


class TestHttpResponseBytes:
    def test_script_answers_byte_for_byte_as_recorded(self, tmp_path):
        with open(HTTP_GOLDEN, encoding="ascii") as handle:
            golden = [json.loads(line) for line in handle]
        assert http_script_exchanges(tmp_path) == golden


VALID_GET = (b"GET /validity?asn=31283&prefix=87.254.32.0%2F20 "
             b"HTTP/1.1\r\n\r\n")


class TestHttpPipelining:
    """Requests on one connection are answered in order, whether their
    route answers at once or leaves the event loop."""

    def run_with_server(self, scenario, **kwargs):
        async def wrapper():
            service = QueryService(PAPER_ROAS + [V1, V2])
            async with QueryHttpServer(service, **kwargs) as http:
                reader, writer = await asyncio.open_connection(
                    http.host, http.port)
                await scenario(http, reader, writer)
                writer.close()

        run(wrapper())

    def test_two_gets_in_one_segment_get_two_responses_in_order(self):
        async def scenario(http, reader, writer):
            writer.write(
                VALID_GET
                + b"GET /validity?asn=1&prefix=203.0.113.0%2F24 HTTP/1.1"
                b"\r\nConnection: close\r\n\r\n")
            first = await read_response(reader)
            second = await read_response(reader)
            assert first[0] == second[0] == 200
            assert first[1]["state"] == "valid"
            assert second[1]["state"] == "notfound"
            assert await asyncio.wait_for(reader.read(), 5) == b""

        self.run_with_server(scenario)

    def test_off_loop_batch_then_pipelined_get_answer_in_order(self):
        async def scenario(http, reader, writer):
            body = json.dumps({"queries": [
                {"asn": 1, "prefix": "203.0.113.0/24"}] * 512}).encode()
            writer.write(
                b"POST /validity HTTP/1.1\r\n"
                + f"Content-Length: {len(body)}\r\n\r\n".encode() + body
                + VALID_GET)
            status, batch = await read_response(reader)
            assert status == 200
            assert [r["state"] for r in batch["results"]] == (
                ["notfound"] * 512)
            status, single = await read_response(reader)
            assert status == 200 and single["state"] == "valid"

        self.run_with_server(scenario)

    def test_keep_alive_gets_create_no_task(self):
        """Answered inside the protocol's callbacks: 200 requests on one
        keep-alive connection, with the idle timer armed, start no
        task."""
        async def scenario(http, reader, writer):
            writer.write(VALID_GET)
            await read_response(reader)  # the connection is made
            loop = asyncio.get_running_loop()
            created = []

            def factory(loop, coro, **kwargs):
                created.append(coro.__qualname__)
                return asyncio.Task(coro, loop=loop, **kwargs)

            loop.set_task_factory(factory)
            try:
                for _ in range(200):
                    writer.write(VALID_GET)
                    status, document = await read_response(reader)
                    assert status == 200 and document["state"] == "valid"
            finally:
                loop.set_task_factory(None)
            assert created == []

        self.run_with_server(scenario, idle_timeout=60.0)


class TestHttpFaultSites:
    """``serve.http.accept`` and ``serve.http.request`` inject as they
    did on streams: an error or reset ends the connection unanswered,
    a stall delays the answer without reordering the pipeline."""

    def run_under(self, rules, scenario):
        from repro.faults import FaultPlan, install, uninstall

        plan = install(FaultPlan(rules=rules))

        async def wrapper():
            async with QueryHttpServer(QueryService(PAPER_ROAS)) as http:
                await scenario(http)

        try:
            run(wrapper())
        finally:
            uninstall()
        return plan

    def test_request_stall_delays_without_reordering(self):
        from repro.faults import FaultRule

        async def scenario(http):
            reader, writer = await asyncio.open_connection(
                http.host, http.port)
            loop = asyncio.get_running_loop()
            started = loop.time()
            writer.write(VALID_GET + b"GET /status HTTP/1.1\r\n\r\n")
            status, document = await read_response(reader)
            assert status == 200 and document["state"] == "valid"
            assert loop.time() - started >= 0.05
            status, document = await read_response(reader)
            assert status == 200 and document["vrps"] == 2
            writer.close()

        plan = self.run_under((FaultRule(
            site="serve.http.request", action="stall", delay=0.05),),
            scenario)
        assert [event["context"] for event in plan.fired] == [
            {"path": "/validity"}]

    @pytest.mark.parametrize("site", ["serve.http.accept",
                                      "serve.http.request"])
    def test_reset_ends_the_connection_unanswered(self, site):
        from repro.faults import FaultRule

        async def scenario(http):
            reader, writer = await asyncio.open_connection(
                http.host, http.port)
            writer.write(VALID_GET)
            assert await asyncio.wait_for(reader.read(), 5) == b""
            writer.close()
            status, document = await http_request(
                http.host, http.port, VALID_GET)
            assert status == 200 and document["state"] == "valid"

        plan = self.run_under(
            (FaultRule(site=site, action="reset"),), scenario)
        assert len(plan.fired) == 1

    def test_accept_stall_defers_reading(self):
        from repro.faults import FaultRule

        async def scenario(http):
            loop = asyncio.get_running_loop()
            started = loop.time()
            status, _ = await http_request(http.host, http.port, VALID_GET)
            assert status == 200
            assert loop.time() - started >= 0.05

        self.run_under((FaultRule(
            site="serve.http.accept", action="stall", delay=0.05),),
            scenario)


_QUERY_PIECES = st.sampled_from([
    "%", "+", "&", "=", "a", "b", "asn", "prefix", "%41", "%2F", "%zz",
    "%e2%82%ac", "%ff", "a=", "=b", "a=1", "a=2", " ", "\u00e9",
])


class TestQueryFields:
    @settings(max_examples=500, deadline=None)
    @given(st.lists(_QUERY_PIECES, max_size=24).map("".join))
    def test_first_value_of_each_field_as_parse_qs_reads_it(self, query):
        assert query_fields(query) == {
            name: values[0] for name, values in parse_qs(query).items()}


class TestHttpRequestSegmentation:
    """``HttpRequestParser`` under the shared segmentation property
    (``tests/segmentation.py``): a request cut anywhere reads as the
    whole request; hostile bytes raise ``HttpRequestError`` however
    they are cut, and nothing waits past EOF."""

    BODY = b'{"queries": [{"asn": 1, "prefix": "10.0.0.0/8"}]}'
    POST = (
        b"POST /validity HTTP/1.1\r\nHost: example\r\n"
        + b"Content-Length: %d\r\nContent-Length: %d\r\n\r\n"
        % (len(BODY), len(BODY))
        + BODY
    )

    @staticmethod
    def read(chunks):
        """Every request the chunks hold, then end of stream."""
        parser = HttpRequestParser()
        requests = []
        for chunk in chunks:
            parser.feed(chunk)
            while (request := parser.next_request()) is not None:
                requests.append(request)
        parser.feed_eof()
        return requests

    @pytest.mark.parametrize("stream", [
        POST,
        b"GET /status HTTP/1.0\r\nConnection: keep-alive\r\n\r\n",
    ], ids=["post", "get"])
    def test_any_split_reads_the_whole_request(self, stream):
        (whole,) = self.read([stream])
        assert whole[0] in ("POST", "GET")
        for chunks in splits(stream):
            assert self.read(chunks) == [whole]
        if whole[0] == "POST":
            # Repeated Content-Length headers that agree are one.
            assert whole[3]["content-length"] == str(len(self.BODY))
            assert whole[4] == self.BODY

    @pytest.mark.parametrize("stream, error", [
        (b"POST / HTTP/1.1\r\nContent-Length: 1_0\r\n\r\n0123456789",
         "bad Content-Length"),
        (b"POST / HTTP/1.1\r\nContent-Length: +5\r\n\r\n01234",
         "bad Content-Length"),
        (b"POST / HTTP/1.1\r\nContent-Length: \xb2\r\n\r\n01",
         "bad Content-Length"),
        (b"POST / HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 6\r\n"
         b"\r\n012345", "conflicting Content-Length"),
        (b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\n0123",
         "shorter than Content-Length"),
        (b"GET /status HTTP/1.1\r\nHost: exa", "head truncated"),
    ], ids=["underscore", "plus", "non-ascii-digit", "conflicting",
            "short-body", "short-head"])
    def test_hostile_bytes_raise_a_typed_error(self, stream, error):
        for chunks in splits(stream):
            with pytest.raises(HttpRequestError, match=error):
                self.read(chunks)

    @pytest.mark.parametrize("pad", [20_000, 80_000])
    def test_oversized_head_raises_a_typed_error(self, pad):
        """Past the 16 KiB head cap, whether the blank line has come
        or not: the same answer."""
        stream = b"GET / HTTP/1.1\r\nX-Pad: " + b"a" * pad + b"\r\n\r\n"
        for cut in (0, 1, 17, len(stream) // 2, len(stream) - 1):
            chunks = [c for c in (stream[:cut], stream[cut:]) if c]
            with pytest.raises(HttpRequestError, match="too large"):
                self.read(chunks)


# ----------------------------------------------------------------------
# Production hardening: load shedding, health, drain, eviction
# ----------------------------------------------------------------------


class TestHttpHardening:
    def test_bad_hardening_knobs_rejected(self):
        service = QueryService(PAPER_ROAS)
        for kwargs in ({"max_clients": 0}, {"idle_timeout": 0.0},
                       {"drain_timeout": -1.0}):
            with pytest.raises(ReproError):
                QueryHttpServer(service, **kwargs)

    def test_healthz_and_readyz(self):
        async def scenario():
            service = QueryService(PAPER_ROAS)
            async with QueryHttpServer(service) as http:
                status, document = await http_request(
                    http.host, http.port,
                    b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n")
                assert status == 200 and document["status"] == "ok"
                status, document = await http_request(
                    http.host, http.port,
                    b"GET /readyz HTTP/1.1\r\nConnection: close\r\n\r\n")
                assert status == 200 and document["status"] == "ready"
                status, document = await http_request(
                    http.host, http.port,
                    b"POST /healthz HTTP/1.1\r\nConnection: close\r\n\r\n")
                assert status == 405

        run(scenario())

    def test_max_clients_sheds_extra_connection_with_503(self):
        async def scenario():
            service = QueryService(PAPER_ROAS)
            async with QueryHttpServer(service, max_clients=1) as http:
                # Client 1 occupies the only slot with a keep-alive
                # request, so its handler idles with the writer live.
                reader, writer = await asyncio.open_connection(
                    http.host, http.port)
                writer.write(b"GET /status HTTP/1.1\r\n\r\n")
                status, _ = await read_response(reader)
                assert status == 200
                # Client 2 must get an immediate 503, not a hang.
                status, document = await http_request(
                    http.host, http.port,
                    b"GET /status HTTP/1.1\r\nConnection: close\r\n\r\n")
                assert status == 503
                assert "capacity" in document["error"]
                assert http.metrics["requests_shed"] == 1
                writer.close()

        run(scenario())

    def test_readyz_saturated_at_connection_cap(self):
        async def scenario():
            service = QueryService(PAPER_ROAS)
            async with QueryHttpServer(service, max_clients=1) as http:
                # The probing connection itself fills the cap, so ask
                # over the same keep-alive stream: liveness stays 200
                # while readiness reports saturation.
                reader, writer = await asyncio.open_connection(
                    http.host, http.port)
                writer.write(b"GET /healthz HTTP/1.1\r\n\r\n")
                status, document = await read_response(reader)
                assert status == 200 and document["status"] == "ok"
                writer.write(b"GET /readyz HTTP/1.1\r\n"
                             b"Connection: close\r\n\r\n")
                status, document = await read_response(reader)
                assert status == 503 and document["status"] == "saturated"
                writer.close()

        run(scenario())

    def test_drain_flips_health_and_sheds_requests(self):
        async def scenario():
            service = QueryService(PAPER_ROAS)
            async with QueryHttpServer(service, drain_timeout=5.0) as http:
                status, document = await http_request(
                    http.host, http.port,
                    b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n")
                assert status == 200
                elapsed = await http.drain()
                assert http.draining
                assert elapsed >= 0.0
                # Listener stays open so probes observe the flip.
                status, document = await http_request(
                    http.host, http.port,
                    b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n")
                assert status == 503 and document["status"] == "draining"
                status, document = await http_request(
                    http.host, http.port,
                    b"GET /validity?asn=31283&prefix=87.254.32.0%2F20 "
                    b"HTTP/1.1\r\nConnection: close\r\n\r\n")
                assert status == 503
                assert "draining" in document["error"]
                snapshot = http.metrics.snapshot()
                assert snapshot["requests_shed"] >= 1
                assert snapshot["drain_seconds"] == pytest.approx(
                    elapsed, abs=1e-6)

        run(scenario())

    def test_idle_timeout_reaps_keep_alive_connection(self):
        async def scenario():
            service = QueryService(PAPER_ROAS)
            async with QueryHttpServer(service, idle_timeout=0.05) as http:
                reader, writer = await asyncio.open_connection(
                    http.host, http.port)
                writer.write(b"GET /status HTTP/1.1\r\n\r\n")
                status, _ = await read_response(reader)
                assert status == 200
                # Send nothing more: the server must hang up on us.
                tail = await asyncio.wait_for(reader.read(), timeout=5)
                assert tail == b""
                writer.close()

        run(scenario())

    def test_prometheus_exposition_includes_hardening_series(self):
        metrics = ServeMetrics()
        metrics.increment("requests_shed", 3)
        metrics.increment("clients_evicted", 2)
        metrics.drain_seconds.set(0.25)
        text = metrics.render_prometheus()
        values = {}
        for line in text.splitlines():
            if line.startswith("#"):
                continue
            series, value = line.rsplit(" ", 1)
            values[series] = float(value)
        assert values["serve_requests_shed"] == 3
        assert values["serve_clients_evicted"] == 2
        assert values["serve_drain_seconds"] == 0.25


class TestRtrHardening:
    def test_bad_hardening_knobs_rejected(self):
        for kwargs in ({"max_clients": 0}, {"client_deadline": 0.0}):
            with pytest.raises(ReproError):
                AsyncRtrServer([V1], **kwargs)

    def test_max_clients_closes_extra_router(self):
        async def scenario():
            metrics = ServeMetrics()
            async with AsyncRtrServer(
                [V1, V2], metrics=metrics, max_clients=1
            ) as server:
                first = AsyncRtrClient()
                await first.connect(server.host, server.port)
                await first.sync()
                assert len(first.vrps) == 2
                # RTR has no status line to send; the surplus router
                # is simply closed before it costs any server state.
                reader, writer = await asyncio.open_connection(
                    server.host, server.port)
                tail = await asyncio.wait_for(reader.read(), timeout=5)
                assert tail == b""
                writer.close()
                assert metrics["requests_shed"] == 1
                # The first session keeps working after the shed.
                await first.sync()
                await first.close()

        run(scenario())

    def test_slow_client_evicted_on_write_deadline(self):
        # A consumer that floods Reset Queries and never reads makes
        # the server's drain() block on a full socket; the deadline
        # must evict it instead of letting buffers grow unboundedly.
        table = [Vrp(p(f"10.{i >> 8 & 255}.{i & 255}.0/24"), 24, 64512 + i)
                 for i in range(3000)]

        async def scenario():
            metrics = ServeMetrics()
            async with AsyncRtrServer(
                table, metrics=metrics, client_deadline=0.1
            ) as server:
                # Connect/sync/close churn first: the server must come
                # out of it, and out of the eviction, still serving.
                for _ in range(25):
                    router = AsyncRtrClient()
                    await router.connect(server.host, server.port)
                    await router.sync()
                    await router.close()
                reader, writer = await asyncio.open_connection(
                    server.host, server.port)
                writer.write(encode_pdu(ResetQueryPdu()) * 128)
                await writer.drain()
                deadline = asyncio.get_running_loop().time() + 10
                while metrics["clients_evicted"] < 1:
                    assert asyncio.get_running_loop().time() < deadline, (
                        "slow client was never evicted")
                    await asyncio.sleep(0.02)
                assert metrics["clients_evicted"] >= 1
                # The memory claim: once evicted, the unread frames do
                # not stay queued in the server's write buffers.
                outstanding = sum(
                    router.get_write_buffer_size()
                    for router in server._listener.transports
                    if not router.is_closing()
                )
                assert outstanding < 1 << 20
                writer.close()
                # The server still answers a well-behaved router.
                probe = AsyncRtrClient()
                await probe.connect(server.host, server.port)
                await probe.sync()
                assert len(probe.vrps) == 3000
                await probe.close()

        run(scenario())
