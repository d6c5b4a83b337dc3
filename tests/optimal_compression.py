"""Optimal lossless VRP compression: the oracle Algorithm 1 is measured
against.

:func:`compress_vrps_optimal` returns a provably minimum-size tuple set
authorizing exactly what its input does (an extension beyond the
paper).  ``test_paper_claims.py`` measures how close Algorithm 1
(:func:`repro.core.compress.compress_vrps`) gets to it, and
``test_compress.py`` transcribes §7.1's pseudocode onto the same
one-node-per-bit tries (:func:`build_tries`) as Algorithm 1's oracle.
Both work on :class:`~repro.netbase.trie.PrefixTrie`, which no product
code uses.
"""

from __future__ import annotations

from typing import Iterable

from repro.netbase.errors import PrefixLengthError
from repro.netbase.prefix import Prefix
from repro.netbase.trie import PrefixTrie
from repro.rpki.vrp import Vrp, sort_vrps

__all__ = ["build_tries", "compress_vrps_optimal"]


def build_tries(vrps: Iterable[Vrp]) -> dict[tuple[int, int], PrefixTrie[int]]:
    """Group VRPs into per-(origin AS, family) tries keyed by prefix.

    Duplicate prefixes for the same AS keep the larger maxLength (the
    union of what the duplicates authorize).
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
