"""Tests for the binary prefix trie (repro.netbase.trie)."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netbase import AF_INET, Prefix
from repro.netbase.errors import TrieError
from repro.netbase.trie import PrefixTrie


def p(text: str) -> Prefix:
    return Prefix.parse(text)


class TestBasics:
    def test_empty(self):
        trie = PrefixTrie[int](AF_INET)
        assert len(trie) == 0
        assert p("10.0.0.0/8") not in trie
        assert trie.get(p("10.0.0.0/8")) is None

    def test_insert_get(self):
        trie = PrefixTrie[int](AF_INET)
        trie.insert(p("10.0.0.0/8"), 42)
        assert p("10.0.0.0/8") in trie
        assert trie.get(p("10.0.0.0/8")) == 42
        assert len(trie) == 1

    def test_insert_overwrites(self):
        trie = PrefixTrie[int](AF_INET)
        trie.insert(p("10.0.0.0/8"), 1)
        trie.insert(p("10.0.0.0/8"), 2)
        assert trie.get(p("10.0.0.0/8")) == 2
        assert len(trie) == 1

    def test_interior_nodes_are_not_values(self):
        trie = PrefixTrie[int](AF_INET)
        trie.insert(p("10.0.0.0/16"), 1)
        assert p("10.0.0.0/8") not in trie
        assert trie.get(p("10.0.0.0/8")) is None

    def test_root_can_hold_value(self):
        trie = PrefixTrie[int](AF_INET)
        trie.insert(p("0.0.0.0/0"), 9)
        assert trie.get(p("0.0.0.0/0")) == 9

    def test_update_combines(self):
        trie = PrefixTrie[int](AF_INET)
        combine = lambda old: 24 if old is None else max(old, 24)
        trie.update(p("10.0.0.0/8"), combine)
        trie.update(p("10.0.0.0/8"), lambda old: max(old or 0, 16))
        assert trie.get(p("10.0.0.0/8")) == 24

    def test_family_mismatch_raises(self):
        trie = PrefixTrie[int](AF_INET)
        with pytest.raises(TrieError):
            trie.insert(p("::/0"), 1)

    def test_remove(self):
        trie = PrefixTrie[int](AF_INET)
        trie.insert(p("10.0.0.0/24"), 1)
        assert trie.remove(p("10.0.0.0/24"))
        assert len(trie) == 0
        assert not trie.remove(p("10.0.0.0/24"))

    def test_remove_prunes_unvalued_chain(self):
        trie = PrefixTrie[int](AF_INET)
        trie.insert(p("10.0.0.0/24"), 1)
        trie.remove(p("10.0.0.0/24"))
        # only the root remains materialized
        assert trie.node_count() == 1

    def test_remove_keeps_shared_path(self):
        trie = PrefixTrie[int](AF_INET)
        trie.insert(p("10.0.0.0/24"), 1)
        trie.insert(p("10.0.0.0/16"), 2)
        trie.remove(p("10.0.0.0/24"))
        assert trie.get(p("10.0.0.0/16")) == 2

    def test_unmark_keeps_structure(self):
        trie = PrefixTrie[int](AF_INET)
        node = trie.insert(p("10.0.0.0/16"), 1)
        trie.insert(p("10.0.0.0/24"), 2)
        trie.unmark(node)
        assert len(trie) == 1
        assert trie.get(p("10.0.0.0/16")) is None
        assert trie.get(p("10.0.0.0/24")) == 2


class TestLookups:
    def test_longest_match(self):
        trie = PrefixTrie[str](AF_INET)
        trie.insert(p("10.0.0.0/8"), "eight")
        trie.insert(p("10.1.0.0/16"), "sixteen")
        assert trie.longest_match(p("10.1.2.3/32")).value == "sixteen"
        assert trie.longest_match(p("10.9.0.0/16")).value == "eight"
        assert trie.longest_match(p("11.0.0.0/8")) is None

    def test_covering_nodes_order(self):
        trie = PrefixTrie[int](AF_INET)
        trie.insert(p("10.0.0.0/8"), 8)
        trie.insert(p("10.0.0.0/16"), 16)
        covering = [n.value for n in trie.covering_nodes(p("10.0.0.0/24"))]
        assert covering == [8, 16]

    def test_covered_nodes(self):
        trie = PrefixTrie[int](AF_INET)
        for text in ["10.0.0.0/16", "10.0.1.0/24", "10.1.0.0/16", "11.0.0.0/8"]:
            trie.insert(p(text), 0)
        covered = {str(n.prefix) for n in trie.covered_nodes(p("10.0.0.0/15"))}
        assert covered == {"10.0.0.0/16", "10.0.1.0/24", "10.1.0.0/16"}

    def test_items_sorted(self):
        trie = PrefixTrie[int](AF_INET)
        inputs = ["10.1.0.0/16", "10.0.0.0/8", "9.0.0.0/8"]
        for text in inputs:
            trie.insert(p(text), 0)
        assert [str(k) for k in trie.keys()] == sorted(inputs, key=lambda t: p(t))


class TestDirectChildren:
    def test_both_immediate(self):
        trie = PrefixTrie[int](AF_INET)
        parent = trie.insert(p("10.0.0.0/16"), 16)
        trie.insert(p("10.0.0.0/17"), 17)
        trie.insert(p("10.0.128.0/17"), 17)
        left, right = parent.direct_children()
        assert left.prefix == p("10.0.0.0/17")
        assert right.prefix == p("10.0.128.0/17")

    def test_skips_interior_nodes(self):
        trie = PrefixTrie[int](AF_INET)
        parent = trie.insert(p("10.0.0.0/16"), 16)
        trie.insert(p("10.0.0.0/19"), 19)  # left side, three levels down
        left, right = parent.direct_children()
        assert left is not None and left.prefix == p("10.0.0.0/19")
        assert right is None

    def test_valued_node_bars_descent(self):
        trie = PrefixTrie[int](AF_INET)
        parent = trie.insert(p("10.0.0.0/16"), 16)
        trie.insert(p("10.0.0.0/17"), 17)
        trie.insert(p("10.0.0.0/18"), 18)  # below the /17, must not surface
        left, _right = parent.direct_children()
        assert left.prefix == p("10.0.0.0/17")


class TestTraversal:
    def test_postorder_children_before_parents(self):
        trie = PrefixTrie[int](AF_INET)
        for text in ["10.0.0.0/8", "10.0.0.0/9", "10.128.0.0/9"]:
            trie.insert(p(text), 0)
        order = [n.prefix for n in trie.postorder_nodes() if n.has_value]
        assert order.index(p("10.0.0.0/9")) < order.index(p("10.0.0.0/8"))
        assert order.index(p("10.128.0.0/9")) < order.index(p("10.0.0.0/8"))

    def test_postorder_covers_all_materialized(self):
        trie = PrefixTrie[int](AF_INET)
        trie.insert(p("10.0.0.0/10"), 0)
        assert sum(1 for _ in trie.postorder_nodes()) == trie.node_count() == 11


class TestAgainstDict:
    """The trie must agree with a plain dict model under random ops."""

    small_prefixes = st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=255),
            st.integers(min_value=24, max_value=32),
        ),
        min_size=1,
        max_size=40,
    )

    @settings(max_examples=40, deadline=None)
    @given(small_prefixes)
    def test_insert_then_lookup(self, entries):
        base = p("10.20.30.0/24")
        trie = PrefixTrie[int](AF_INET)
        model: dict[Prefix, int] = {}
        for offset, length in entries:
            step = 1 << (32 - length)
            candidate = Prefix(
                AF_INET, base.value + (offset % (1 << (length - 24))) * step, length
            )
            trie.insert(candidate, length)
            model[candidate] = length
        assert len(trie) == len(model)
        for key, value in model.items():
            assert trie.get(key) == value
        assert sorted(trie.keys()) == sorted(model)

    @settings(max_examples=40, deadline=None)
    @given(small_prefixes)
    def test_longest_match_matches_bruteforce(self, entries):
        base = p("10.20.30.0/24")
        trie = PrefixTrie[int](AF_INET)
        model: set[Prefix] = set()
        for offset, length in entries:
            step = 1 << (32 - length)
            candidate = Prefix(
                AF_INET, base.value + (offset % (1 << (length - 24))) * step, length
            )
            trie.insert(candidate, 0)
            model.add(candidate)
        rng = random.Random(1)
        for _ in range(20):
            probe = Prefix(AF_INET, base.value + rng.randrange(256), 32)
            expected = max(
                (m for m in model if m.covers(probe)),
                key=lambda m: m.length,
                default=None,
            )
            got = trie.longest_match(probe)
            assert (got.prefix if got else None) == expected
