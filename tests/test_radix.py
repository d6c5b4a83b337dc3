"""Tests for the Patricia radix tree (repro.netbase.radix)."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netbase import AF_INET, AF_INET6, Prefix
from repro.netbase.errors import TrieError
from repro.netbase.radix import RadixTree


def p(text: str) -> Prefix:
    return Prefix.parse(text)


class TestBasics:
    def test_empty(self):
        tree = RadixTree[int](AF_INET)
        assert len(tree) == 0
        assert tree.get(p("10.0.0.0/8")) is None
        assert tree.longest_match(p("10.0.0.0/8")) is None

    def test_insert_and_get(self):
        tree = RadixTree[int](AF_INET)
        tree.insert(p("10.0.0.0/8"), 1)
        assert tree.get(p("10.0.0.0/8")) == 1
        assert p("10.0.0.0/8") in tree
        assert len(tree) == 1

    def test_overwrite_same_key(self):
        tree = RadixTree[int](AF_INET)
        tree.insert(p("10.0.0.0/8"), 1)
        tree.insert(p("10.0.0.0/8"), 2)
        assert tree.get(p("10.0.0.0/8")) == 2
        assert len(tree) == 1

    def test_insert_ancestor_after_descendant(self):
        tree = RadixTree[int](AF_INET)
        tree.insert(p("10.1.0.0/16"), 16)
        tree.insert(p("10.0.0.0/8"), 8)
        assert tree.get(p("10.0.0.0/8")) == 8
        assert tree.get(p("10.1.0.0/16")) == 16

    def test_diverging_keys_create_glue(self):
        tree = RadixTree[int](AF_INET)
        tree.insert(p("10.0.0.0/24"), 1)
        tree.insert(p("10.0.1.0/24"), 2)
        # the glue node (10.0.0.0/23) must not appear as a value
        assert tree.get(p("10.0.0.0/23")) is None
        assert sorted(str(k) for k in tree.keys()) == [
            "10.0.0.0/24",
            "10.0.1.0/24",
        ]

    def test_family_check(self):
        tree = RadixTree[int](AF_INET)
        with pytest.raises(TrieError):
            tree.insert(p("::/0"), 1)

    def test_ipv6_keys(self):
        tree = RadixTree[int](AF_INET6)
        tree.insert(p("2001:db8::/32"), 1)
        tree.insert(p("2001:db8:1::/48"), 2)
        assert tree.longest_match(p("2001:db8:1::1/128"))[1] == 2
        assert tree.longest_match(p("2001:db8:f::1/128"))[1] == 1


class TestRemoval:
    def test_remove_leaf(self):
        tree = RadixTree[int](AF_INET)
        tree.insert(p("10.0.0.0/24"), 1)
        assert tree.remove(p("10.0.0.0/24"))
        assert len(tree) == 0
        assert tree.get(p("10.0.0.0/24")) is None

    def test_remove_missing_returns_false(self):
        tree = RadixTree[int](AF_INET)
        tree.insert(p("10.0.0.0/24"), 1)
        assert not tree.remove(p("10.0.1.0/24"))
        assert not tree.remove(p("10.0.0.0/16"))

    def test_remove_interior_value_keeps_descendants(self):
        tree = RadixTree[int](AF_INET)
        tree.insert(p("10.0.0.0/8"), 8)
        tree.insert(p("10.0.0.0/24"), 24)
        tree.insert(p("10.0.1.0/24"), 24)
        assert tree.remove(p("10.0.0.0/8"))
        assert tree.get(p("10.0.0.0/24")) == 24
        assert tree.get(p("10.0.1.0/24")) == 24
        assert len(tree) == 2

    def test_remove_then_reinsert(self):
        tree = RadixTree[int](AF_INET)
        tree.insert(p("10.0.0.0/16"), 1)
        tree.remove(p("10.0.0.0/16"))
        tree.insert(p("10.0.0.0/16"), 2)
        assert tree.get(p("10.0.0.0/16")) == 2

    def test_remove_drops_the_stranded_glue(self):
        tree = RadixTree[int](AF_INET)
        tree.insert(p("10.0.0.0/8"), 0)
        tree.insert(p("10.0.0.0/24"), 1)
        tree.insert(p("10.0.1.0/24"), 2)   # glue 10.0.0.0/23 under the /8
        assert tree.remove(p("10.0.0.0/24"))
        assert shape(tree) == [(0, p("10.0.0.0/8"), True, 0),
                               (1, p("10.0.1.0/24"), True, 2)]
        assert tree.remove(p("10.0.1.0/24"))   # parent holds a value: stays
        assert shape(tree) == [(0, p("10.0.0.0/8"), True, 0)]

    operations = st.lists(
        st.tuples(
            st.booleans(),
            # few distinct addresses and lengths, so that removes hit
            # and keys nest
            st.sampled_from([0x0A000000, 0x0A000100, 0x0A010000,
                             0x0A800000, 0xC0A80000, 0xC0A80080]),
            st.sampled_from([8, 9, 16, 23, 24, 25, 32]),
        ),
        max_size=40,
    )

    @settings(max_examples=150, deadline=None)
    @given(operations, st.integers(min_value=0, max_value=2**32 - 1))
    def test_any_interleaving_equals_a_rebuild(self, operations, probe_value):
        """Inserts and removes in any order leave, node for node, the
        tree that inserting the final keys in order makes."""
        tree = RadixTree[int](AF_INET)
        model: dict[Prefix, int] = {}
        for step, (insert, value, length) in enumerate(operations):
            prefix = Prefix(AF_INET, value, length)
            if insert:
                tree.insert(prefix, step)
                model[prefix] = step
            else:
                assert tree.remove(prefix) == (prefix in model)
                model.pop(prefix, None)
        rebuilt = built(AF_INET, sorted(model.items()))
        assert shape(tree) == shape(rebuilt)
        assert len(tree) == len(model)
        probes = [Prefix(AF_INET, probe_value, 32)] + [
            Prefix(AF_INET, value | 1, 32) for _, value, _ in operations]
        for probe in probes:
            assert list(tree.covering(probe)) == list(rebuilt.covering(probe))
            assert tree.longest_match(probe) == rebuilt.longest_match(probe)


class TestCoveringQueries:
    def test_covering_shortest_first(self):
        tree = RadixTree[int](AF_INET)
        tree.insert(p("10.0.0.0/8"), 8)
        tree.insert(p("10.0.0.0/16"), 16)
        tree.insert(p("10.0.0.0/24"), 24)
        covering = [v for _k, v in tree.covering(p("10.0.0.0/32"))]
        assert covering == [8, 16, 24]

    def test_covering_includes_exact(self):
        tree = RadixTree[int](AF_INET)
        tree.insert(p("10.0.0.0/24"), 24)
        assert [v for _k, v in tree.covering(p("10.0.0.0/24"))] == [24]

    def test_covered_enumeration(self):
        tree = RadixTree[int](AF_INET)
        for text in ["10.0.0.0/16", "10.0.1.0/24", "10.1.0.0/16", "11.0.0.0/8"]:
            tree.insert(p(text), 0)
        covered = {str(k) for k, _v in tree.covered(p("10.0.0.0/8"))}
        assert covered == {"10.0.0.0/16", "10.0.1.0/24", "10.1.0.0/16"}

    def test_covered_of_exact_leaf(self):
        tree = RadixTree[int](AF_INET)
        tree.insert(p("10.0.0.0/24"), 1)
        assert [k for k, _ in tree.covered(p("10.0.0.0/24"))] == [p("10.0.0.0/24")]


class TestAgainstBruteForce:
    entries = st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=2**32 - 1),
            st.integers(min_value=4, max_value=32),
        ),
        min_size=1,
        max_size=60,
        )

    @settings(max_examples=40, deadline=None)
    @given(entries, st.integers(min_value=0, max_value=2**32 - 1))
    def test_longest_match(self, items, probe_value):
        tree = RadixTree[int](AF_INET)
        model: set[Prefix] = set()
        for value, length in items:
            prefix = Prefix(AF_INET, value, length)
            tree.insert(prefix, length)
            model.add(prefix)
        probe = Prefix(AF_INET, probe_value, 32)
        expected = max(
            (m for m in model if m.covers(probe)),
            key=lambda m: m.length,
            default=None,
        )
        got = tree.longest_match(probe)
        assert (got[0] if got else None) == expected

    @settings(max_examples=40, deadline=None)
    @given(entries)
    def test_items_complete_and_sorted(self, items):
        tree = RadixTree[int](AF_INET)
        model: set[Prefix] = set()
        for value, length in items:
            prefix = Prefix(AF_INET, value, length)
            tree.insert(prefix, 0)
            model.add(prefix)
        listed = list(tree.keys())
        assert listed == sorted(model)
        assert len(tree) == len(model)

    @settings(max_examples=40, deadline=None)
    @given(entries)
    def test_covered_matches_bruteforce(self, items):
        tree = RadixTree[int](AF_INET)
        model: set[Prefix] = set()
        for value, length in items:
            prefix = Prefix(AF_INET, value, length)
            tree.insert(prefix, 0)
            model.add(prefix)
        query = p("128.0.0.0/2")
        got = {k for k, _ in tree.covered(query)}
        assert got == {m for m in model if query.covers(m)}

    @settings(max_examples=40, deadline=None)
    @given(entries)
    def test_random_removals_consistent(self, items):
        tree = RadixTree[int](AF_INET)
        model: dict[Prefix, int] = {}
        for value, length in items:
            prefix = Prefix(AF_INET, value, length)
            tree.insert(prefix, length)
            model[prefix] = length
        rng = random.Random(3)
        victims = rng.sample(sorted(model), k=len(model) // 2)
        for victim in victims:
            assert tree.remove(victim)
            del model[victim]
        assert sorted(tree.keys()) == sorted(model)
        for key, value in model.items():
            assert tree.get(key) == value


def shape(tree: RadixTree) -> list:
    """Every node of ``tree``, glue included, in preorder."""
    out = []
    stack = [(tree._root, 0)]
    while stack:
        node, depth = stack.pop()
        if node is not None:
            out.append((depth, node.prefix, node.has_value, node.value))
            stack += [(node.right, depth + 1), (node.left, depth + 1)]
    return out


def built(family: int, items) -> RadixTree:
    """The tree of ``items``, inserted one by one in the order given."""
    tree = RadixTree(family)
    for key, value in items:
        tree.insert(key, value)
    return tree


class TestInsertOrder:
    @staticmethod
    def key_sets(family):
        """Distinct keys that nest and branch: a few addresses differing
        in high and low bits, cut at lengths from /0 to the host length."""
        width = 32 if family == AF_INET else 128
        addresses = st.builds(
            lambda high, low: (high << (width - 8)) | low,
            st.sampled_from([0, 10, 11, 128, 255]),
            st.integers(min_value=0, max_value=7),
        )
        lengths = st.sampled_from(
            [0, 1, 7, 8, 9, 16, width - 3, width - 2, width - 1, width])
        return st.sets(
            st.builds(lambda value, length: Prefix(family, value, length),
                      addresses, lengths),
            max_size=40,
        )

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from([AF_INET, AF_INET6]), st.data())
    def test_any_order_builds_one_tree(self, family, data):
        keys = data.draw(self.key_sets(family))
        shuffled = data.draw(st.permutations(sorted(keys)))
        in_order = built(family, [(key, str(key)) for key in sorted(keys)])
        one_by_one = RadixTree[str](family)
        for key in shuffled:
            one_by_one.insert(key, str(key))
        assert shape(in_order) == shape(one_by_one)
        assert len(in_order) == len(one_by_one) == len(keys)
        assert list(in_order.items()) == [
            (key, str(key)) for key in sorted(keys)]
        width = 32 if family == AF_INET else 128
        for probe in list(keys) + [Prefix(family, 10 << (width - 8), width)]:
            assert list(in_order.covering(probe)) == list(
                one_by_one.covering(probe))
            assert list(in_order.covered(probe)) == list(
                one_by_one.covered(probe))

        # Removing a key in place leaves the tree a build of the rest.
        if shuffled:
            assert one_by_one.remove(shuffled[0])
            rest = sorted(keys - {shuffled[0]})
            assert shape(one_by_one) == shape(built(
                family, [(key, str(key)) for key in rest]))


class TestIntWalkEdges:
    """The exact-match walk compares ints per level; these are the keys
    where a shift or a bound can go wrong, for it and for the in-place
    insert and remove beside it."""

    @pytest.mark.parametrize("family", [AF_INET, AF_INET6])
    def test_default_route_and_host_keys(self, family):
        width = 32 if family == AF_INET else 128
        root = Prefix(family, 0, 0)
        lowest = Prefix(family, 0, width)
        highest = Prefix(family, (1 << width) - 1, width)
        for keys in ([root], [root, lowest], [root, lowest, highest],
                     [lowest, highest], [lowest], [highest]):
            def build():
                return built(
                    family, [(k, str(k)) for k in keys])
            tree = build()
            for key in (root, lowest, highest):
                assert tree.get(key) == (str(key) if key in keys else None)
                assert (key in tree) == (key in keys)
                grown = build()
                grown.insert(key, "new")
                assert shape(grown) == shape(built(
                    family,
                    sorted({**{k: str(k) for k in keys}, key: "new"}.items()),
                ))
                shrunk = build()
                assert shrunk.remove(key) == (key in keys)
                assert shape(shrunk) == shape(built(
                    family, [(k, str(k)) for k in keys if k != key]))

    @pytest.mark.parametrize("family", [AF_INET, AF_INET6])
    def test_a_stored_root_with_two_subtrees(self, family):
        width = 32 if family == AF_INET else 128
        root = Prefix(family, 0, 0)
        left = Prefix(family, 0, 1)
        right = Prefix(family, 1 << (width - 1), 1)
        leaf = Prefix(family, 3 << (width - 2), width)
        keys = [root, left, right, leaf]
        tree = built(family, [(k, 0) for k in keys])
        assert tree._root.prefix == root and tree._root.has_value
        before = shape(tree)
        halves = tree._root.left, tree._root.right
        assert tree.remove(root)
        # The root stays as valueless glue over both halves.
        assert tree._root.prefix == root
        assert not tree._root.has_value
        assert (tree._root.left, tree._root.right) == halves
        assert root not in tree and len(tree) == 3
        tree.insert(root, 0)
        assert shape(tree) == before

    @pytest.mark.parametrize("family", [AF_INET, AF_INET6])
    def test_absent_keys_diverging_at_every_depth(self, family):
        """A chain of stored keys down one address; every probe that
        leaves it at some depth, and every key below its leaf, is
        absent — for get, ``in``, ``remove`` and ``insert``."""
        width = 32 if family == AF_INET else 128
        address = int("10" * (width // 2), 2)
        lengths = [0, 1, width // 4, width // 2, width - 8, width - 1, width]
        chain = [Prefix(family, address, n) for n in lengths]
        stored = {key: key.length for key in chain}
        tree = built(family, sorted(stored.items()))
        before = shape(tree)
        probes = []
        for depth in range(width):
            flipped = address ^ (1 << (width - depth - 1))
            probes += [Prefix(family, flipped, length)
                       for length in (depth + 1, width)]
        leafless = chain[:-1]  # without the host key, a /width-1 leaf
        short = built(
            family, sorted((key, key.length) for key in leafless))
        below_leaf = [Prefix(family, address ^ 1, width),
                      Prefix(family, address, width)]
        for probe in probes:
            assert probe not in stored
            assert tree.get(probe, "absent") == "absent"
            assert probe not in tree
            assert not tree.remove(probe)
            grown = built(family, sorted(stored.items()))
            grown.insert(probe, -1)
            assert grown.get(probe) == -1 and len(grown) == len(tree) + 1
        assert shape(tree) == before
        for probe in below_leaf:
            assert short.get(probe) is None and probe not in short
            assert not short.remove(probe)
        for key, value in stored.items():
            assert tree.get(key) == value and key in tree
