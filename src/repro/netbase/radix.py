"""A path-compressed (Patricia) radix tree over IP prefixes.

No product code uses this module: every prefix lookup under
``src/repro`` runs on :class:`repro.netbase.prefixtable.PrefixTable` or
on the sorted integer keys of :func:`repro.core.minimal.build_origin_index`.
Only the benchmark's ``paper_pipeline`` workload still times it
(``netbase.radix.insert_per_s`` / ``.lookup_per_s``); this module is
deleted once the ledger drops those rows (ROADMAP item 1(c)).

Unlike :class:`repro.netbase.trie.PrefixTrie`, which materializes one
node per bit, the radix tree compresses single-child chains, so depth
is bounded by the number of *stored* prefixes along a path rather than
by 32/128.  Values are arbitrary; one key maps to one value.
:meth:`RadixTree.insert` and :meth:`~RadixTree.remove` change a tree in
place, one key at a time in any order, and the same keys build the
same tree, node for node, whatever the order.

The exact-match walk (:meth:`~RadixTree.get` / ``in``) compares the
key with each node as ints, one XOR and shift per level, reading
:class:`Prefix`'s slots directly rather than calling its methods.
"""

from __future__ import annotations

from typing import Generic, Iterator, Optional, TypeVar

from .errors import TrieError
from .prefix import Prefix

__all__ = ["RadixTree"]

V = TypeVar("V")


class _RadixNode(Generic[V]):
    __slots__ = ("prefix", "value", "has_value", "left", "right")

    def __init__(
        self,
        prefix: Prefix,
        value: Optional[V] = None,
        has_value: bool = False,
        left: Optional["_RadixNode[V]"] = None,
        right: Optional["_RadixNode[V]"] = None,
    ) -> None:
        self.prefix = prefix
        self.value = value
        self.has_value = has_value
        self.left = left
        self.right = right

    def branch_bit(self, key: Prefix) -> int:
        """The first bit of ``key`` after this node's length (0 or 1)."""
        shift = key.max_family_length - self.prefix.length - 1
        return (key.value >> shift) & 1

    def child(self, bit: int) -> Optional["_RadixNode[V]"]:
        return self.right if bit else self.left

    def set_child(self, bit: int, node: Optional["_RadixNode[V]"]) -> None:
        if bit:
            self.right = node
        else:
            self.left = node


def _common_prefix(a: Prefix, b: Prefix) -> Prefix:
    """The longest prefix covering both ``a`` and ``b`` (same family)."""
    width = a.max_family_length
    max_len = min(a.length, b.length)
    diff = (a.value ^ b.value) >> (width - max_len) if max_len else 0
    common = max_len - diff.bit_length()
    return Prefix(a.family, a.value, common)


class RadixTree(Generic[V]):
    """Patricia tree mapping :class:`Prefix` keys to values.

    Supports exact lookup, longest-prefix match, covering and covered
    enumeration, insertion, and deletion.  All keys must share the
    address family given at construction.
    """

    def __init__(self, family: int) -> None:
        self._family = family
        self._root: Optional[_RadixNode[V]] = None
        self._size = 0

    @property
    def family(self) -> int:
        return self._family

    def __len__(self) -> int:
        return self._size

    def __contains__(self, prefix: Prefix) -> bool:
        node = self._lookup_exact(prefix)
        return node is not None and node.has_value

    def _check(self, prefix: Prefix) -> None:
        if prefix.family != self._family:
            raise TrieError(
                f"IPv{prefix.family} key {prefix} used with IPv{self._family} tree"
            )

    # ------------------------------------------------------------------
    # Insertion
    # ------------------------------------------------------------------

    def insert(self, prefix: Prefix, value: V) -> None:
        """Map ``prefix`` to ``value`` (overwrites an existing mapping)."""
        self._check(prefix)
        new_node = _RadixNode[V](prefix)
        new_node.value = value
        new_node.has_value = True

        if self._root is None:
            self._root = new_node
            self._size += 1
            return

        parent: Optional[_RadixNode[V]] = None
        parent_bit = 0
        node = self._root
        while True:
            if node.prefix == prefix:
                if not node.has_value:
                    self._size += 1
                node.value = value
                node.has_value = True
                return
            if node.prefix.covers(prefix):
                bit = node.branch_bit(prefix)
                child = node.child(bit)
                if child is None:
                    node.set_child(bit, new_node)
                    self._size += 1
                    return
                parent, parent_bit, node = node, bit, child
                continue
            # Diverged: split with a glue node at the common prefix.
            glue_prefix = _common_prefix(node.prefix, prefix)
            if glue_prefix == prefix:
                # New key is an ancestor of the existing node.
                new_node.set_child(new_node.branch_bit(node.prefix), node)
                self._replace(parent, parent_bit, new_node)
                self._size += 1
                return
            glue = _RadixNode[V](glue_prefix)
            glue.set_child(glue.branch_bit(node.prefix), node)
            glue.set_child(glue.branch_bit(prefix), new_node)
            self._replace(parent, parent_bit, glue)
            self._size += 1
            return

    def _replace(
        self,
        parent: Optional[_RadixNode[V]],
        bit: int,
        node: Optional[_RadixNode[V]],
    ) -> None:
        if parent is None:
            self._root = node
        else:
            parent.set_child(bit, node)

    # ------------------------------------------------------------------
    # Deletion
    # ------------------------------------------------------------------

    def remove(self, prefix: Prefix) -> bool:
        """Delete the mapping for ``prefix``; returns True if present.

        Leaves the shape of a tree built from the remaining keys alone.
        """
        self._check(prefix)
        grand: Optional[_RadixNode[V]] = None
        grand_bit = 0
        parent: Optional[_RadixNode[V]] = None
        parent_bit = 0
        node = self._root
        while node is not None and node.prefix != prefix:
            if not node.prefix.covers(prefix):
                return False
            bit = node.branch_bit(prefix)
            grand, grand_bit = parent, parent_bit
            parent, parent_bit, node = node, bit, node.child(bit)
        if node is None or not node.has_value:
            return False
        node.has_value = False
        node.value = None
        self._size -= 1
        # Collapse: a valueless node with < 2 children is structural noise.
        if node.left is None or node.right is None:
            survivor = node.left if node.left is not None else node.right
            if survivor is None and parent is not None and not parent.has_value:
                # Removing a leaf strands its glue parent: the sibling
                # takes the glue's place.
                self._replace(grand, grand_bit, parent.child(1 - parent_bit))
            else:
                self._replace(parent, parent_bit, survivor)
        return True

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def _lookup_exact(self, prefix: Prefix) -> Optional[_RadixNode[V]]:
        self._check(prefix)
        width = prefix.max_family_length
        key_value, key_length = prefix._value, prefix._length
        node = self._root
        while node is not None:
            node_prefix = node.prefix
            length = node_prefix._length
            if length > key_length or (
                (node_prefix._value ^ key_value) >> (width - length)
            ):
                return None
            if length == key_length:
                return node
            if (key_value >> (width - length - 1)) & 1:
                node = node.right
            else:
                node = node.left
        return None

    def get(self, prefix: Prefix, default: Optional[V] = None) -> Optional[V]:
        """The value stored exactly at ``prefix``, or ``default``."""
        node = self._lookup_exact(prefix)
        if node is None or not node.has_value:
            return default
        return node.value

    def longest_match(self, prefix: Prefix) -> Optional[tuple[Prefix, V]]:
        """The most-specific stored entry covering ``prefix``."""
        self._check(prefix)
        best: Optional[_RadixNode[V]] = None
        node = self._root
        while node is not None and node.prefix.covers(prefix):
            if node.has_value:
                best = node
            if node.prefix.length >= prefix.length:
                break
            node = node.child(node.branch_bit(prefix))
        if best is None:
            return None
        return best.prefix, best.value  # type: ignore[return-value]

    def covering(self, prefix: Prefix) -> Iterator[tuple[Prefix, V]]:
        """All stored entries whose prefix covers ``prefix``, shortest first."""
        self._check(prefix)
        node = self._root
        while node is not None and node.prefix.covers(prefix):
            if node.has_value:
                yield node.prefix, node.value  # type: ignore[misc]
            if node.prefix.length >= prefix.length:
                return
            node = node.child(node.branch_bit(prefix))

    def covered(self, prefix: Prefix) -> Iterator[tuple[Prefix, V]]:
        """All stored entries covered by ``prefix`` (inclusive), sorted."""
        self._check(prefix)
        # Descend past strict ancestors of `prefix`, then DFS the subtree.
        node = self._root
        while node is not None and node.prefix.covers_properly(prefix):
            node = node.child(node.branch_bit(prefix))
        stack = [node] if node is not None else []
        while stack:
            current = stack.pop()
            if prefix.covers(current.prefix) and current.has_value:
                yield current.prefix, current.value  # type: ignore[misc]
            if current.right is not None and prefix.overlaps(current.right.prefix):
                stack.append(current.right)
            if current.left is not None and prefix.overlaps(current.left.prefix):
                stack.append(current.left)

    def items(self) -> Iterator[tuple[Prefix, V]]:
        """All (prefix, value) pairs in sorted (DFS preorder) order."""
        stack = [self._root] if self._root is not None else []
        while stack:
            node = stack.pop()
            if node.has_value:
                yield node.prefix, node.value  # type: ignore[misc]
            if node.right is not None:
                stack.append(node.right)
            if node.left is not None:
                stack.append(node.left)

    def keys(self) -> Iterator[Prefix]:
        for prefix, _ in self.items():
            yield prefix
