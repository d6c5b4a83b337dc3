"""Tests for Gao–Rexford route propagation."""

from __future__ import annotations

import random

import pytest

from repro.bgp import (
    AsTopology,
    Route,
    RouteClass,
    Seed,
    SimulationError,
    ValidationState,
    VrpIndex,
    propagate_prefix,
    tie_rank,
    tie_winner,
)
from repro.netbase import Prefix
from repro.rpki import Vrp


def p(text: str) -> Prefix:
    return Prefix.parse(text)


PFX = p("168.122.0.0/16")


class TestSinglePrefix:
    def test_origin_adopts_own_route(self, chain_topology):
        routes = propagate_prefix(chain_topology, PFX, [Seed.origin(111)])
        assert routes[111].route_class is RouteClass.ORIGIN
        assert routes[111].path == (111,)

    def test_everyone_reachable(self, chain_topology):
        routes = propagate_prefix(chain_topology, PFX, [Seed.origin(111)])
        assert set(routes) == chain_topology.ases

    def test_path_classes(self, chain_topology):
        routes = propagate_prefix(chain_topology, PFX, [Seed.origin(111)])
        assert routes[10].route_class is RouteClass.CUSTOMER
        assert routes[1].route_class is RouteClass.CUSTOMER
        assert routes[2].route_class is RouteClass.PEER
        assert routes[30].route_class is RouteClass.PROVIDER
        assert routes[40].route_class is RouteClass.PROVIDER

    def test_paths_are_consistent(self, chain_topology):
        routes = propagate_prefix(chain_topology, PFX, [Seed.origin(111)])
        assert routes[1].path == (10, 111)
        assert routes[2].path == (1, 10, 111)
        assert routes[40].path == (30, 2, 1, 10, 111)

    def test_unknown_seed_rejected(self, chain_topology):
        with pytest.raises(SimulationError):
            propagate_prefix(chain_topology, PFX, [Seed.origin(31337)])

    def test_duplicate_seed_rejected(self, chain_topology):
        with pytest.raises(SimulationError):
            propagate_prefix(
                chain_topology, PFX, [Seed.origin(111), Seed.origin(111)]
            )


class TestValleyFree:
    """No produced path may violate export rules (no valleys)."""

    def _check_valley_free(self, topology, routes):
        for asn, route in routes.items():
            if route.route_class is RouteClass.ORIGIN:
                continue
            full_path = (asn,) + route.path
            # walk from the origin up: once the path direction turns
            # "down" (provider->customer) or crosses a peer edge, it
            # must never go "up" (customer->provider) or cross another
            # peering again.
            descending = False
            peer_crossings = 0
            for later, earlier in zip(full_path, full_path[1:]):
                # traffic flows later <- earlier; the announcement went
                # earlier -> later.
                if earlier in topology.customers_of(later):
                    descending = True  # announcement climbed c->p: fine early
                elif earlier in topology.peers_of(later):
                    peer_crossings += 1
                    descending = True
                else:
                    # earlier is a provider of later: announcement
                    # descended p->c; all subsequent hops (toward this
                    # AS) must also descend.
                    assert descending or earlier in topology.providers_of(later)
            assert peer_crossings <= 1

    def test_chain_topology_valley_free(self, chain_topology):
        routes = propagate_prefix(chain_topology, PFX, [Seed.origin(111)])
        self._check_valley_free(chain_topology, routes)

    def test_random_topology_valley_free(self, small_topology):
        rng = random.Random(0)
        stubs = sorted(small_topology.stub_ases())
        for tie_seed in range(5):
            origin = rng.choice(stubs)
            routes = propagate_prefix(
                small_topology, PFX, [Seed.origin(origin)],
                tie_seed=tie_seed,
            )
            self._check_valley_free(small_topology, routes)

    def test_no_loops_in_paths(self, small_topology):
        routes = propagate_prefix(
            small_topology, PFX, [Seed.origin(max(small_topology.ases))]
        )
        for asn, route in routes.items():
            if route.route_class is RouteClass.ORIGIN:
                full_path = route.path
            else:
                full_path = (asn,) + route.path
            assert len(set(full_path)) == len(full_path)


class TestPreferences:
    def test_customer_beats_shorter_peer_and_provider(self):
        """An AS with any customer route ignores peer/provider routes."""
        topo = AsTopology()
        # Origin 9 is multi-homed: a long customer chain reaches 1
        # (9 -> 3 -> 2 -> 1), while 1 also peers with 9's other
        # provider 4, offering a much shorter peer route.
        topo.add_customer_provider(9, 3)
        topo.add_customer_provider(3, 2)
        topo.add_customer_provider(2, 1)
        topo.add_customer_provider(9, 4)
        topo.add_peering(1, 4)
        routes = propagate_prefix(topo, PFX, [Seed.origin(9)])
        assert routes[1].route_class is RouteClass.CUSTOMER
        assert routes[1].path == (2, 3, 9)

    def test_shorter_path_wins_within_class(self, chain_topology):
        routes = propagate_prefix(
            chain_topology, PFX, [Seed.origin(111), Seed.origin(40)]
        )
        # AS 30 hears 40 as a direct customer: prefers it over any
        # longer customer path.
        assert routes[30].seed == 40
        assert routes[30].path == (40,)

    def test_deterministic_tie_break_lowest_neighbor(self):
        topo = AsTopology()
        topo.add_customer_provider(5, 9)
        topo.add_customer_provider(6, 9)
        topo.add_customer_provider(1, 5)
        topo.add_customer_provider(1, 6)
        # 1 announces; 9 hears two equal-length customer routes via 5, 6.
        routes = propagate_prefix(topo, PFX, [Seed.origin(1)])
        assert routes[9].path == (5, 1)

    def test_seeded_tie_break_independent_of_edge_order(self):
        """Regression: the seeded tie-break once depended on neighbor-set
        iteration order, i.e. on the order edges were inserted.  Building
        the same topology from shuffled edge lists must give identical
        seeded outcomes."""
        from repro.data.asgraph import TopologyProfile, generate_topology

        base = generate_topology(TopologyProfile(ases=80), random.Random(3))
        edges = [(a, b, kind.value == "customer" and "c2p" or "p2p")
                 for a, b, kind in base.edges()]
        origin = min(base.stub_ases())
        reference = propagate_prefix(
            base, PFX, [Seed.origin(origin)], tie_seed=7
        )
        for shuffle_seed in range(5):
            shuffled = list(edges)
            random.Random(shuffle_seed).shuffle(shuffled)
            rebuilt = AsTopology.from_edges(shuffled)
            routes = propagate_prefix(
                rebuilt, PFX, [Seed.origin(origin)], tie_seed=7
            )
            assert routes == reference

    def test_seeded_tie_break_draws_from_sorted_candidates(self):
        """Regression: candidate offers once accumulated in adoption
        order, so the seeded pick depended on *when* each neighbor's
        route arrived, not just on which neighbors tied.  AS 7 hears two
        equal-length phase-3 offers — one placed up front by AS 9 (an
        early customer-route adopter), one chained in later by AS 2 —
        and the winner is the lower tie rank of the two, whatever the
        arrival order."""
        topo = AsTopology()
        topo.add_customer_provider(1, 8)   # origin 1 below X=8
        topo.add_customer_provider(8, 9)   # X below 9: 9 adopts early
        topo.add_customer_provider(2, 8)   # 2 adopts from X in phase 3
        topo.add_customer_provider(7, 9)   # 7 buys from both 9 and 2
        topo.add_customer_provider(7, 2)
        seen = set()
        for tie_seed in range(12):
            routes = propagate_prefix(
                topo, PFX, [Seed.origin(1)], tie_seed=tie_seed
            )
            winner = min((2, 9), key=lambda n: tie_rank(tie_seed, 7, n))
            assert routes[7].path[0] == winner
            seen.add(winner)
        assert seen == {2, 9}

    def test_seeded_tie_break_varies_with_the_tie_seed(self):
        topo = AsTopology()
        topo.add_customer_provider(5, 9)
        topo.add_customer_provider(6, 9)
        topo.add_customer_provider(1, 5)
        topo.add_customer_provider(1, 6)
        seen = set()
        for tie_seed in range(20):
            routes = propagate_prefix(
                topo, PFX, [Seed.origin(1)], tie_seed=tie_seed
            )
            seen.add(routes[9].path[0])
        assert seen == {5, 6}


class TestTieBreakRule:
    """The one tie-break both engines call: a keyed hash, not a draw."""

    def test_tie_rank_golden(self):
        """The encoding is a contract, like ``spec_hash``: a different
        digest moves every same-prefix record."""
        assert tie_rank(2017, 111, 666) == 0x5FF5EE2E533D1027

    def test_winner_is_order_free(self):
        neighbors = [30, 10, 20, 40, 50]
        for tie_seed in range(30):
            winner = tie_winner(tie_seed, 7, neighbors)
            assert winner == tie_winner(tie_seed, 7, reversed(neighbors))
            assert winner == min(
                neighbors, key=lambda n: tie_rank(tie_seed, 7, n)
            )

    def test_every_neighbor_equally_likely(self):
        wins = {n: 0 for n in (10, 20, 30)}
        for tie_seed in range(3000):
            wins[tie_winner(tie_seed, 7, wins)] += 1
        assert all(900 < count < 1100 for count in wins.values())

    def test_no_tie_seed_prefers_the_lowest_asn(self):
        assert tie_winner(None, 7, [30, 10, 20]) == 10


class TestForgedOriginSeeds:
    def test_forged_path_one_hop_longer(self, chain_topology):
        routes = propagate_prefix(
            chain_topology, PFX, [Seed.forged_origin(666, 111)]
        )
        assert routes[666].path == (666, 111)
        assert routes[20].path == (666, 111)
        assert routes[20].seed == 666

    def test_seed_attribute_tracks_attacker_not_claimed_origin(
        self, chain_topology
    ):
        routes = propagate_prefix(
            chain_topology, PFX, [Seed.forged_origin(666, 111)]
        )
        for route in routes.values():
            assert route.seed == 666
            assert route.claimed_origin == 111


class TestValidationFiltering:
    def test_invalid_announcement_dropped_everywhere(self, chain_topology):
        index = VrpIndex([Vrp(PFX, 16, 111)])
        hijack_prefix = p("168.122.0.0/24")
        assert index.validate(hijack_prefix, 666) is ValidationState.INVALID
        routes = propagate_prefix(
            chain_topology, hijack_prefix, [Seed.origin(666)], vrp_index=index
        )
        assert routes == {}

    def test_partial_validation_only_filters_validators(self, chain_topology):
        index = VrpIndex([Vrp(PFX, 16, 111)])
        hijack_prefix = p("168.122.0.0/24")
        validators = frozenset({1, 10})  # only these drop invalids
        routes = propagate_prefix(
            chain_topology, hijack_prefix, [Seed.origin(666)],
            vrp_index=index, validating_ases=validators,
        )
        assert 1 not in routes and 10 not in routes
        assert 666 in routes and 20 in routes
        # 2 still hears it via 1? no - 1 dropped it, so 2 must hear
        # nothing (1 was its only path to 666's announcement) ... but 2
        # peers with 1 only; 666 -> 20 -> 1 (dropped). So 2 is clean.
        assert 2 not in routes

    def test_valid_announcement_passes_validators(self, chain_topology):
        index = VrpIndex([Vrp(PFX, 24, 111)])
        routes = propagate_prefix(
            chain_topology, p("168.122.0.0/24"),
            [Seed.forged_origin(666, 111)], vrp_index=index,
        )
        # Everyone hears the (RPKI-valid) forged route except the
        # victim itself, which drops the path naming its own ASN.
        assert set(routes) == chain_topology.ases - {111}
