"""Live RTR cache/client tests over real localhost TCP sockets."""

from __future__ import annotations

import pytest

from repro.netbase import Prefix
from repro.rpki import Vrp
from repro.rtr import RtrClient
from repro.rtr.session import CacheState, VrpDiff
from repro.serve import ThreadedRtrServer


def p(text: str) -> Prefix:
    return Prefix.parse(text)


V1 = Vrp(p("168.122.0.0/16"), 24, 111)
V2 = Vrp(p("10.0.0.0/8"), 8, 65000)
V3 = Vrp(p("2001:db8::/32"), 48, 7)


class TestCacheState:
    def test_update_produces_diff(self):
        state = CacheState()
        diff = state.update([V1, V2])
        assert set(diff.announced) == {V1, V2}
        assert not diff.withdrawn
        assert state.serial == 1

    def test_incremental_diffs(self):
        state = CacheState()
        state.update([V1])
        state.update([V1, V2])
        state.update([V2])
        diffs = state.diff_since(1)
        assert diffs is not None and len(diffs) == 2
        net = state.flatten_diffs(diffs)
        assert set(net.announced) == {V2}
        assert set(net.withdrawn) == {V1}

    def test_flatten_cancels_bounce(self):
        state = CacheState()
        bounce = [
            VrpDiff(announced=(V1,), withdrawn=()),
            VrpDiff(announced=(), withdrawn=(V1,)),
        ]
        net = state.flatten_diffs(bounce)
        assert net.empty

    def test_history_limit_forces_reset(self):
        state = CacheState(history_limit=2)
        for vrps in ([V1], [V2], [V1, V2], [V3], [V1, V3]):
            state.update(vrps)
        assert state.serial == 5
        assert state.diff_since(1) is None
        assert state.diff_since(state.serial) == []

    def test_future_serial_is_unknown(self):
        state = CacheState()
        state.update([V1])
        assert state.diff_since(99) is None

    def test_noop_update_coalesced(self):
        state = CacheState()
        state.update([V1, V2])
        diff = state.update([V2, V1])  # same set, different order
        assert diff.empty
        assert state.serial == 1
        # No empty diff polluting the history either.
        assert state.diff_since(0) is not None
        assert all(not d.empty for d in state.diff_since(0))

    def test_noop_updates_do_not_flush_history(self):
        state = CacheState(history_limit=2)
        state.update([V1])
        state.update([V1, V2])
        for _ in range(10):
            state.update([V1, V2])  # idle refreshes
        assert state.diff_since(1) is not None  # history survived


@pytest.fixture()
def server():
    with ThreadedRtrServer([V1, V2]) as running:
        yield running


class TestLiveProtocol:
    def test_reset_query_full_table(self, server):
        with RtrClient(server.host, server.port) as client:
            client.sync()
            assert client.vrps == {V1, V2}
            assert client.serial == server.state.serial

    def test_incremental_update(self, server):
        with RtrClient(server.host, server.port) as client:
            client.sync()
            server.update([V1, V3])  # add V3, drop V2
            client.wait_for_notify()
            client.sync()
            assert client.vrps == {V1, V3}

    def test_noop_update_sends_no_notify(self, server):
        with RtrClient(server.host, server.port) as client:
            client.sync()
            before = server.state.serial
            server.update([V1, V2])  # identical set: coalesced
            assert server.state.serial == before
            # A fresh sync still works and converges to the same set.
            client.sync()
            assert client.vrps == {V1, V2}

    def test_two_clients_both_notified(self, server):
        with RtrClient(server.host, server.port) as a, RtrClient(
            server.host, server.port
        ) as b:
            a.sync()
            b.sync()
            server.update([V3])
            a.wait_for_notify()
            b.wait_for_notify()
            a.sync()
            b.sync()
            assert a.vrps == b.vrps == {V3}

    def test_stale_serial_triggers_cache_reset_path(self, server):
        with RtrClient(server.host, server.port) as client:
            client.sync()
            # Push the cache far beyond its diff history.
            for index in range(20):
                server.update([V1, Vrp(p("10.0.0.0/8"), 8 + index % 3 + 8, 65000)])
            client.sync()  # serial query -> cache reset -> reset query
            assert client.vrps == server.state.vrps

    def test_session_mismatch_resets(self, server):
        with RtrClient(server.host, server.port) as client:
            client.sync()
            client.session_id = 999  # pretend we spoke to another cache
            client.sync()
            assert client.vrps == {V1, V2}

    def test_large_table_transfer(self):
        many = [
            Vrp(Prefix(4, (10 << 24) + (i << 8), 24), 24, 65000 + (i % 100))
            for i in range(3000)
        ]
        with ThreadedRtrServer(many) as big_server:
            with RtrClient(big_server.host, big_server.port) as client:
                processed = client.sync()
                assert len(client.vrps) == 3000
                assert processed == 3000 + 2  # cache response + end of data
