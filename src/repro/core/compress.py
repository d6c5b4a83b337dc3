"""``compress_roas`` — lossless PDU compression (paper §7, Algorithm 1).

The paper's contribution: a drop-in post-processor for ``scan_roas``
output that *reintroduces* the maxLength attribute without reintroducing
its vulnerability.  Given a list of (prefix, maxLength, origin AS)
tuples, it merges sibling authorizations into their parent whenever the
merge authorizes **exactly** the same set of routes — never more.

The algorithm (§7.1): build one binary prefix trie per (origin AS,
address family), where each valued node carries its tuple's maxLength
(for tuples without maxLength, the prefix length itself).  Then run a
DFS; as it backtracks, each valued node with two valued direct children
absorbs them when their maxLengths allow::

    procedure compress(node):
        if node has both direct children:
            minChildVal = min(lChild.value, rChild.value)
            if minChildVal > node.value:
                node.value = minChildVal          # cover the children
            if lChild.value <= node.value: delete lChild
            if rChild.value <= node.value: delete rChild

:func:`compress_group` is that procedure without the trie.  A group is
a dict from ``(length, network bits)`` to its tuple, which is all the
trie was used for: "as the DFS backtracks" means *children before
parents*, i.e. keys in descending length, and the two direct children
of the node at ``(length, value)`` that may merge are the keys
``(length + 1, value)`` and ``(length + 1, value | next bit)`` — two
dict probes.  The loop body is the pseudocode line for line.

Worked example (Figure 2 of the paper)::

    >>> from repro.netbase import Prefix
    >>> from repro.rpki import Vrp
    >>> tuples = [Vrp(Prefix.parse(p), l, 31283) for p, l in [
    ...     ("87.254.32.0/19", 19), ("87.254.32.0/20", 20),
    ...     ("87.254.48.0/20", 20), ("87.254.32.0/21", 21)]]
    >>> [str(v) for v in compress_vrps(tuples)]
    ['87.254.32.0/19-20 => AS31283', '87.254.32.0/21 => AS31283']

Why this is safe (and plain maxLength is not): the parent absorbs its
children only when *both* halves at every absorbed length were already
authorized, so the set of (prefix, origin) pairs that validate is
unchanged — compression preserves minimality (§7: "This 'compressed'
ROA is still minimal").

This module also provides :func:`compress_vrps_optimal`, an extension
beyond the paper: a provably minimum-size lossless representation, used
by ``tests/test_paper_claims.py`` to measure how close Algorithm 1 gets.
"""

from __future__ import annotations

from typing import Iterable

from ..netbase.errors import PrefixLengthError
from ..netbase.prefix import Prefix
from ..netbase.trie import PrefixTrie
from ..rpki.vrp import Vrp, sort_vrps

__all__ = [
    "build_tries",
    "compress_group",
    "compress_vrps",
    "compress_vrps_optimal",
    "CompressionStats",
]


def build_tries(vrps: Iterable[Vrp]) -> dict[tuple[int, int], PrefixTrie[int]]:
    """Group VRPs into per-(origin AS, family) tries keyed by prefix.

    Duplicate prefixes for the same AS keep the larger maxLength (the
    union of what the duplicates authorize).  Only the optimal
    extension below, which needs a bit-level trie of the *expanded*
    authorization set, works on tries; Algorithm 1 does not.
    """
    tries: dict[tuple[int, int], PrefixTrie[int]] = {}
    for vrp in vrps:
        key = (vrp.asn, vrp.prefix.family)
        trie = tries.get(key)
        if trie is None:
            trie = PrefixTrie[int](vrp.prefix.family)
            tries[key] = trie
        trie.update(
            vrp.prefix,
            lambda old, new=vrp.max_length: new if old is None else max(old, new),
        )
    return tries


def compress_group(group: dict[tuple[int, int], Vrp], width: int) -> None:
    """Run Algorithm 1 in place on one (origin AS, family) group.

    ``group`` maps ``(prefix length, network bits)`` to the tuple at
    that prefix; ``width`` is the family's address width.  Children
    here are the *direct children* of §7.1, and a merge happens only
    when both sit exactly one bit below the parent: a tuple strictly
    deeper covers only part of its half, so absorbing it would
    authorize prefixes the input did not (the forged-origin subprefix
    surface the whole exercise is meant to avoid).
    """
    for key in sorted(group, reverse=True):  # children before parents
        length, value = key
        if length == width:
            continue  # a host prefix has no children
        left = (length + 1, value)
        right = (length + 1, value | 1 << (width - length - 1))
        if left not in group or right not in group:
            continue
        node, l_child, r_child = group[key], group[left], group[right]
        min_child = min(l_child.max_length, r_child.max_length)
        if min_child > node.max_length:
            node = group[key] = Vrp(node.prefix, min_child, node.asn)
        if l_child.max_length <= node.max_length:
            del group[left]
        if r_child.max_length <= node.max_length:
            del group[right]


def compress_vrps(vrps: Iterable[Vrp]) -> list[Vrp]:
    """The ``compress_roas`` entry point: tuples in, fewer tuples out.

    The output authorizes exactly the same (prefix, origin) pairs as the
    input — see ``tests/test_compress.py`` for the property-based proof
    harness — and is sorted deterministically.

    Tuples are grouped per (origin AS, family); duplicate prefixes for
    the same AS keep the larger maxLength (the union of what the
    duplicates authorize).  A group of fewer than three tuples has
    nothing to merge.
    """
    groups: dict[tuple[int, int], dict[tuple[int, int], Vrp]] = {}
    for vrp in vrps:
        prefix = vrp.prefix
        group = groups.get((vrp.asn, prefix.family))
        if group is None:
            group = groups[(vrp.asn, prefix.family)] = {}
        key = (prefix.length, prefix.value)
        held = group.get(key)
        if held is None or held.max_length < vrp.max_length:
            group[key] = vrp

    output: list[Vrp] = []
    for group in groups.values():
        if len(group) >= 3:
            width = next(iter(group.values())).prefix.max_family_length
            compress_group(group, width)
        output.extend(group.values())
    return sort_vrps(output)


class CompressionStats:
    """Before/after sizes for reporting (§7.2 quotes both and the %)."""

    def __init__(self, before: int, after: int) -> None:
        self.before = before
        self.after = after

    @property
    def saved(self) -> int:
        return self.before - self.after

    @property
    def ratio(self) -> float:
        """Fraction of tuples eliminated, e.g. 0.159 for Table 1 row 2."""
        if self.before == 0:
            return 0.0
        return self.saved / self.before

    def __str__(self) -> str:
        return (
            f"{self.before} -> {self.after} tuples "
            f"({100 * self.ratio:.2f}% compression)"
        )


# ----------------------------------------------------------------------
# Extension: optimal lossless compression (ablation A2)
# ----------------------------------------------------------------------


def _optimal_for_trie(
    trie: PrefixTrie[int], asn: int, max_spread: int
) -> list[Vrp]:
    """Minimum tuple set authorizing exactly the trie's coverage.

    Works on the *expanded* authorization set: every (prefix, length)
    the input authorizes becomes a marked node; the task is then a
    minimum cover of the marked set by "full pyramids" (a pyramid
    rooted at p with maxLength m covers all subprefixes of p up to
    length m, and is usable only when that whole set is marked).

    Solved by dynamic programming over the trie.  Define

    * ``F(v)`` — the deepest m such that every subprefix of v up to m
      is marked (``F(v) = min(F(left), F(right))`` when both children
      are marked, else ``len(v)``); an emitted pyramid at v always uses
      m = F(v), since ancestor coverage is monotone in m.
    * ``cost(v, m)`` — fewest pyramids inside v's subtree covering all
      its marked nodes, given ancestors already cover lengths <= m.
      At each marked v the choice is emit/skip; emitting is forced when
      ``len(v) > m``.

    Expansion doubles per maxLength step, so inputs with a spread larger
    than ``max_spread`` are rejected rather than silently exploding.
    """
    family = trie.family
    expanded = PrefixTrie[bool](family)
    for prefix, max_length in trie.items():
        if max_length - prefix.length > max_spread:
            raise PrefixLengthError(
                f"optimal compression would expand {prefix}-{max_length}: "
                f"spread exceeds {max_spread}"
            )
        for length in range(prefix.length, max_length + 1):
            for subprefix in prefix.subprefixes(length):
                expanded.insert(subprefix, True)

    # F values, computed bottom-up (postorder).
    reach: dict[Prefix, int] = {}
    for node in expanded.postorder_nodes():
        if not node.has_value:
            continue
        left, right = node.left, node.right
        if (
            left is not None
            and right is not None
            and left.has_value
            and right.has_value
        ):
            reach[node.prefix] = min(reach[left.prefix], reach[right.prefix])
        else:
            reach[node.prefix] = node.prefix.length

    # cost(v, m) with memoization; m ranges over -1 and ancestor F
    # values, all within [-1, family width], so the table stays small.
    # emit(v, m) is True when the optimum emits a pyramid at v.
    cost_memo: dict[tuple[int, int], int] = {}
    emit_memo: dict[tuple[int, int], bool] = {}

    def cost(node, m: int) -> int:  # noqa: ANN001 - internal trie node
        key = (id(node), m)
        if key in cost_memo:
            return cost_memo[key]
        children = [c for c in (node.left, node.right) if c is not None]
        skip_cost: int | None = None
        if not node.has_value or node.prefix.length <= m:
            skip_cost = sum(cost(child, m) for child in children)
        emit_cost: int | None = None
        if node.has_value:
            covered_to = max(m, reach[node.prefix])
            emit_cost = 1 + sum(cost(child, covered_to) for child in children)
        if skip_cost is None:
            best, chose_emit = emit_cost, True  # type: ignore[assignment]
        elif emit_cost is None or skip_cost <= emit_cost:
            best, chose_emit = skip_cost, False
        else:
            best, chose_emit = emit_cost, True
        cost_memo[key] = best  # type: ignore[assignment]
        emit_memo[key] = chose_emit
        return best  # type: ignore[return-value]

    root = expanded.root
    cost(root, -1)

    # Reconstruct the chosen pyramids by replaying decisions.
    output: list[Vrp] = []
    stack: list[tuple[object, int]] = [(root, -1)]
    while stack:
        node, m = stack.pop()  # type: ignore[assignment]
        covered_to = m
        if emit_memo[(id(node), m)]:
            prefix = node.prefix  # type: ignore[union-attr]
            output.append(Vrp(prefix, reach[prefix], asn))
            covered_to = max(m, reach[prefix])
        for child in (node.left, node.right):  # type: ignore[union-attr]
            if child is not None:
                stack.append((child, covered_to))
    return output


def compress_vrps_optimal(
    vrps: Iterable[Vrp], *, max_spread: int = 12
) -> list[Vrp]:
    """Optimal lossless compression (extension; see module docstring).

    Raises:
        PrefixLengthError: if a tuple's maxLength spread exceeds
            ``max_spread`` (the expansion is exponential in the spread).
    """
    tries = build_tries(vrps)
    output: list[Vrp] = []
    for (asn, _family), trie in tries.items():
        output.extend(_optimal_for_trie(trie, asn, max_spread))
    return sort_vrps(output)
