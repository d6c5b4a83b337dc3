"""A binary prefix trie keyed by IP prefixes.

This is the data structure the paper describes ``compress_roas`` on
(§7.1): one trie per (AS, address family), where each node corresponds
to a prefix and carries an optional value (for compression, the ROA
maxLength).  No product code uses it: Algorithm 1 runs on integer keys
(:func:`repro.core.compress.compress_group`), and the trie serves only
the test oracles (``tests/optimal_compression.py``) and the benchmark's
``netbase.trie.insert_per_s`` row.  This module is deleted once the
ledger drops that row (ROADMAP item 1(c)); the oracles then carry their
own trie.

The trie is *path-preserving*: inserting ``10.0.0.0/16`` materializes the
sixteen interior nodes on the way down, but only nodes explicitly inserted
carry a value (``has_value`` is True).  The paper's notion of "direct
children" of a valued node — the nearest valued descendants on the 0-side
and 1-side — is provided by :meth:`TrieNode.direct_children`.

The structure is generic over the value type; the oracles store integers
(maxLength) and booleans, and tests store sentinel objects.
"""

from __future__ import annotations

from typing import Callable, Generic, Iterator, Optional, TypeVar

from .errors import TrieError
from .prefix import Prefix

__all__ = ["PrefixTrie", "TrieNode"]

V = TypeVar("V")


class TrieNode(Generic[V]):
    """A node of :class:`PrefixTrie`.

    Attributes:
        prefix: the prefix this node represents.
        value: the stored value (meaningful only when ``has_value``).
        has_value: whether this node was explicitly inserted.
        left: child on the 0 bit, if materialized.
        right: child on the 1 bit, if materialized.
    """

    __slots__ = ("prefix", "value", "has_value", "left", "right", "parent")

    def __init__(self, prefix: Prefix, parent: Optional["TrieNode[V]"]) -> None:
        self.prefix = prefix
        self.value: Optional[V] = None
        self.has_value = False
        self.left: Optional[TrieNode[V]] = None
        self.right: Optional[TrieNode[V]] = None
        self.parent = parent

    def direct_children(
        self,
    ) -> tuple[Optional["TrieNode[V]"], Optional["TrieNode[V]"]]:
        """The nearest *valued* descendants on each side.

        Following §7.1 of the paper: for a node with key ``$k``, the left
        (right) direct child is the shortest-keyed valued node whose key
        extends ``$k || 0`` (``$k || 1``).  Interior unvalued nodes are
        skipped transparently, but a valued node bars the search from
        descending past it.
        """

        def nearest_valued(start: Optional[TrieNode[V]]) -> Optional[TrieNode[V]]:
            # BFS so that "shortest-keyed" wins; in practice the branching
            # is tiny because unvalued chains are linear.
            queue = [start] if start is not None else []
            best: Optional[TrieNode[V]] = None
            while queue:
                node = queue.pop(0)
                if node.has_value:
                    if best is None or node.prefix.length < best.prefix.length:
                        best = node
                    continue  # do not descend past a valued node
                if best is not None and node.prefix.length >= best.prefix.length:
                    continue
                if node.left is not None:
                    queue.append(node.left)
                if node.right is not None:
                    queue.append(node.right)
            return best

        return nearest_valued(self.left), nearest_valued(self.right)

    def __repr__(self) -> str:
        marker = f"={self.value!r}" if self.has_value else ""
        return f"<TrieNode {self.prefix}{marker}>"


class PrefixTrie(Generic[V]):
    """A binary trie mapping :class:`Prefix` keys to values.

    All prefixes in one trie must share an address family; mixing raises
    :class:`TrieError` (the paper builds one IPv4 trie and one IPv6 trie
    per AS, and so do we).
    """

    def __init__(self, family: int) -> None:
        self._family = family
        self._root = TrieNode[V](Prefix(family, 0, 0), None)
        self._size = 0

    @property
    def family(self) -> int:
        return self._family

    @property
    def root(self) -> TrieNode[V]:
        return self._root

    def __len__(self) -> int:
        """Number of valued nodes."""
        return self._size

    def __contains__(self, prefix: Prefix) -> bool:
        node = self._find(prefix)
        return node is not None and node.has_value

    def _check_family(self, prefix: Prefix) -> None:
        if prefix.family != self._family:
            raise TrieError(
                f"prefix {prefix} (IPv{prefix.family}) inserted into "
                f"IPv{self._family} trie"
            )

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def insert(self, prefix: Prefix, value: V) -> TrieNode[V]:
        """Insert or overwrite ``prefix`` with ``value``; returns the node."""
        self._check_family(prefix)
        node = self._root
        for bit in prefix.bits():
            if bit == "0":
                if node.left is None:
                    node.left = TrieNode(node.prefix.left_child(), node)
                node = node.left
            else:
                if node.right is None:
                    node.right = TrieNode(node.prefix.right_child(), node)
                node = node.right
        if not node.has_value:
            self._size += 1
        node.value = value
        node.has_value = True
        return node

    def update(
        self, prefix: Prefix, combine: Callable[[Optional[V]], V]
    ) -> TrieNode[V]:
        """Insert ``prefix`` with ``combine(old_value)``.

        ``combine`` receives the existing value (or None when absent) and
        returns the new one; useful for max-merging maxLengths.
        """
        node = self._find(prefix, create=True)
        assert node is not None
        old = node.value if node.has_value else None
        if not node.has_value:
            self._size += 1
        node.value = combine(old)
        node.has_value = True
        return node

    def remove(self, prefix: Prefix) -> bool:
        """Remove the value at ``prefix``; returns True if it existed.

        Unvalued leaf chains left behind are pruned so that memory usage
        tracks the valued set.
        """
        node = self._find(prefix)
        if node is None or not node.has_value:
            return False
        node.has_value = False
        node.value = None
        self._size -= 1
        self._prune(node)
        return True

    def unmark(self, node: TrieNode[V]) -> None:
        """Clear a node's value without pruning its subtree.

        Used by the compression algorithm, which deletes entries while a
        DFS is in flight and therefore must not restructure the trie.
        """
        if node.has_value:
            node.has_value = False
            node.value = None
            self._size -= 1

    def _prune(self, node: TrieNode[V]) -> None:
        while (
            node.parent is not None
            and not node.has_value
            and node.left is None
            and node.right is None
        ):
            parent = node.parent
            if parent.left is node:
                parent.left = None
            elif parent.right is node:
                parent.right = None
            node = parent

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def _find(self, prefix: Prefix, create: bool = False) -> Optional[TrieNode[V]]:
        self._check_family(prefix)
        node = self._root
        for bit in prefix.bits():
            child = node.left if bit == "0" else node.right
            if child is None:
                if not create:
                    return None
                child = TrieNode(
                    node.prefix.left_child() if bit == "0" else node.prefix.right_child(),
                    node,
                )
                if bit == "0":
                    node.left = child
                else:
                    node.right = child
            node = child
        return node

    def get(self, prefix: Prefix, default: Optional[V] = None) -> Optional[V]:
        """The value stored exactly at ``prefix``, or ``default``."""
        node = self._find(prefix)
        if node is None or not node.has_value:
            return default
        return node.value

    def node_at(self, prefix: Prefix) -> Optional[TrieNode[V]]:
        """The valued node exactly at ``prefix``, or None."""
        node = self._find(prefix)
        if node is not None and node.has_value:
            return node
        return None

    def longest_match(self, prefix: Prefix) -> Optional[TrieNode[V]]:
        """The deepest valued node whose prefix covers ``prefix``."""
        self._check_family(prefix)
        node = self._root
        best: Optional[TrieNode[V]] = None
        if node.has_value:
            best = node
        for bit in prefix.bits():
            child = node.left if bit == "0" else node.right
            if child is None:
                break
            node = child
            if node.has_value:
                best = node
        return best

    def covering_nodes(self, prefix: Prefix) -> Iterator[TrieNode[V]]:
        """All valued nodes whose prefixes cover ``prefix``, shortest first."""
        self._check_family(prefix)
        node = self._root
        if node.has_value:
            yield node
        for bit in prefix.bits():
            child = node.left if bit == "0" else node.right
            if child is None:
                return
            node = child
            if node.has_value:
                yield node

    def covered_nodes(self, prefix: Prefix) -> Iterator[TrieNode[V]]:
        """All valued nodes covered by ``prefix`` (including at it)."""
        start = self._find(prefix)
        if start is None:
            return
        stack = [start]
        while stack:
            node = stack.pop()
            if node.has_value:
                yield node
            if node.right is not None:
                stack.append(node.right)
            if node.left is not None:
                stack.append(node.left)

    # ------------------------------------------------------------------
    # Iteration
    # ------------------------------------------------------------------

    def items(self) -> Iterator[tuple[Prefix, V]]:
        """(prefix, value) pairs in DFS (sorted prefix) order."""
        for node in self.valued_nodes():
            assert node.value is not None or node.has_value
            yield node.prefix, node.value  # type: ignore[misc]

    def keys(self) -> Iterator[Prefix]:
        for prefix, _ in self.items():
            yield prefix

    def valued_nodes(self) -> Iterator[TrieNode[V]]:
        """All valued nodes, left-to-right DFS preorder."""
        stack = [self._root]
        while stack:
            node = stack.pop()
            if node.has_value:
                yield node
            if node.right is not None:
                stack.append(node.right)
            if node.left is not None:
                stack.append(node.left)

    def postorder_nodes(self) -> Iterator[TrieNode[V]]:
        """All materialized nodes in postorder (children before parents).

        This is the traversal order required by Algorithm 1 of the paper:
        the compression function runs "as the DFS backtracks".
        """
        stack: list[tuple[TrieNode[V], bool]] = [(self._root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                yield node
                continue
            stack.append((node, True))
            if node.right is not None:
                stack.append((node.right, False))
            if node.left is not None:
                stack.append((node.left, False))

    def node_count(self) -> int:
        """Total number of materialized nodes (valued + interior)."""
        count = 0
        stack = [self._root]
        while stack:
            node = stack.pop()
            count += 1
            if node.left is not None:
                stack.append(node.left)
            if node.right is not None:
                stack.append(node.right)
        return count
