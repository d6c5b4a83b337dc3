"""Dependency rules: the stdlib-only contract and the layering DAG.

* **DEP001** — every absolute import in the library must resolve to
  the standard library or to ``repro`` itself.  The reproduction's
  portability claim is "stdlib-only"; optional accelerators must be
  gated or stubbed, never imported unconditionally.

* **DEP002** — cross-package imports must respect the layer order
  (low to high)::

      obs / _lazy                           (leaves: import no repro)
      netbase / asn1 / crypto / faults
      rpki / bgp / data / rtr
      exper / results
      serve
      jobs
      core / analysis / lint
      cli  (and the repro package root)

  A module may import its own layer or any lower one; ``repro.obs``
  is importable from everywhere but must itself import nothing from
  ``repro`` except ``repro._lazy``, the helper every package
  ``__init__`` builds its exports with.  On top of the layer check,
  DEP002 detects import cycles at module granularity over *runtime
  module-level* imports — edges inside ``if TYPE_CHECKING:`` blocks
  or function bodies are lazy by construction and excluded from the
  cycle graph (they still count for layering).

* **DEP003** — what a change retired stays out of its scope.  One
  table, :data:`BANS`, holds a row per retirement: the scope (a
  dotted package), the banned modules, the banned names and the
  reason.  A module is banned as an import target (any resolved edge,
  lazy or not) and as a key of a ``lazy_exports(__name__, {...})``
  table, read as the submodule ``<package>.<key>``.  A name is banned
  as a whole word anywhere in the module text: code, strings and
  comments.  A retirement is one new row.
"""

from __future__ import annotations

import ast
import re
import sys
from dataclasses import dataclass
from typing import (
    Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Set,
    Tuple,
)

from ..model import Finding, SourceModule
from .base import Rule, register

__all__ = [
    "BANS",
    "Ban",
    "BannedInScopeRule",
    "ImportEdge",
    "LayeringRule",
    "StdlibOnlyRule",
    "module_edges",
]

_LAYERS: Tuple[Tuple[str, ...], ...] = (
    ("_lazy", "obs"),
    ("netbase", "asn1", "crypto", "faults"),
    ("rpki", "bgp", "data", "rtr"),
    ("exper", "results"),
    ("serve",),
    ("jobs",),
    ("core", "analysis", "lint"),
    ("cli", ""),  # "" is the repro package root (repro/__init__.py)
)
_RANK: Dict[str, int] = {
    package: rank
    for rank, layer in enumerate(_LAYERS)
    for package in layer
}


@dataclass(frozen=True)
class ImportEdge:
    """One import statement, resolved to a dotted target module name.

    ``runtime_toplevel`` is False for imports inside function bodies
    or ``if TYPE_CHECKING:`` blocks — those are lazy and do not
    participate in cycle detection.
    """

    target: str
    line: int
    col: int
    runtime_toplevel: bool


def _is_type_checking(test: ast.AST) -> bool:
    if isinstance(test, ast.Name):
        return test.id == "TYPE_CHECKING"
    if isinstance(test, ast.Attribute):
        return test.attr == "TYPE_CHECKING"
    return False


def _relative_anchor(src: SourceModule, level: int) -> List[str]:
    parts = src.module.split(".")
    if not src.is_package:
        parts = parts[:-1]
    if level > 1:
        parts = parts[: len(parts) - (level - 1)]
    return parts


def module_edges(src: SourceModule) -> List[ImportEdge]:
    """Every import in ``src`` as a resolved :class:`ImportEdge`.

    ``from P import name`` yields an edge to ``P.name`` — the engine
    later snaps it back to ``P`` when no module ``P.name`` exists, so
    symbol imports land on the defining package and submodule imports
    land on the submodule.  The tree is walked once per module; later
    calls return the kept list.
    """
    if src.import_edges is None:
        src.import_edges = _walk_edges(src)
    return src.import_edges


def _walk_edges(src: SourceModule) -> List[ImportEdge]:
    edges: List[ImportEdge] = []

    def visit(node: ast.AST, runtime: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.If) and _is_type_checking(child.test):
                for stmt in child.body:
                    visit_stmt(stmt, False)
                for stmt in child.orelse:
                    visit_stmt(stmt, runtime)
                continue
            visit_stmt(child, runtime)

    def visit_stmt(child: ast.AST, runtime: bool) -> None:
        nested_runtime = runtime and not isinstance(
            child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        )
        if isinstance(child, ast.Import):
            for alias in child.names:
                edges.append(ImportEdge(
                    alias.name, child.lineno, child.col_offset + 1, runtime,
                ))
        elif isinstance(child, ast.ImportFrom):
            if child.level == 0:
                base = (child.module or "").split(".")
            else:
                anchor = _relative_anchor(src, child.level)
                base = anchor + (
                    child.module.split(".") if child.module else []
                )
            for alias in child.names:
                edges.append(ImportEdge(
                    ".".join(base + [alias.name]),
                    child.lineno, child.col_offset + 1, runtime,
                ))
        visit(child, nested_runtime)

    visit(src.tree, True)
    return edges


def _package_of(module: str) -> str:
    parts = module.split(".")
    if len(parts) == 1:
        return ""
    name = parts[1]
    if name.startswith("__") and name.endswith("__"):
        # `from . import __version__`: a dunder of the package root.
        return ""
    return name


@register
class StdlibOnlyRule(Rule):
    """DEP001: the library imports only the stdlib and itself."""

    rule_id = "DEP001"
    summary = (
        "stdlib-only: every absolute import must resolve to the "
        "standard library or to repro itself (gate or stub optional "
        "dependencies)"
    )

    def check_module(self, src: SourceModule) -> Iterable[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(src.tree):
            names: List[Tuple[str, int, int]] = []
            if isinstance(node, ast.Import):
                names = [
                    (alias.name, node.lineno, node.col_offset + 1)
                    for alias in node.names
                ]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [(node.module or "", node.lineno,
                          node.col_offset + 1)]
            for name, line, col in names:
                top = name.split(".")[0]
                if top == "repro" or top in sys.stdlib_module_names:
                    continue
                findings.append(Finding(
                    src.path, line, col, self.rule_id,
                    f"non-stdlib import `{name}`: the library is "
                    f"stdlib-only; gate or stub optional dependencies",
                ))
        return findings


@register
class LayeringRule(Rule):
    """DEP002: cross-package imports follow the layer DAG, no cycles."""

    rule_id = "DEP002"
    summary = (
        "import layering: netbase/asn1/crypto/faults -> "
        "rpki/bgp/data/rtr -> "
        "exper/results -> serve -> jobs -> core/analysis/lint -> "
        "cli, with "
        "repro.obs a leaf importable by all; no module-level import "
        "cycles"
    )

    def check_module(self, src: SourceModule) -> Iterable[Finding]:
        findings: List[Finding] = []
        source_package = _package_of(src.module)
        for edge in module_edges(src):
            if edge.target != "repro" and not edge.target.startswith(
                "repro."
            ):
                continue
            target_package = _package_of(edge.target)
            if target_package == source_package:
                continue
            if source_package == "obs" and target_package != "_lazy":
                findings.append(Finding(
                    src.path, edge.line, edge.col, self.rule_id,
                    f"repro.obs is a leaf: it is importable from every "
                    f"layer and must import nothing from repro, but "
                    f"imports `{edge.target}`",
                ))
                continue
            for package in (source_package, target_package):
                if package not in _RANK:
                    findings.append(Finding(
                        src.path, edge.line, edge.col, self.rule_id,
                        f"package `repro.{package}` is not in the "
                        f"layering map; add it to a layer in "
                        f"repro.lint.rules.deps._LAYERS (see "
                        f"docs/linting.md)",
                    ))
                    break
            else:
                if _RANK[target_package] > _RANK[source_package]:
                    source_name = (
                        f"repro.{source_package}"
                        if source_package else "repro"
                    )
                    findings.append(Finding(
                        src.path, edge.line, edge.col, self.rule_id,
                        f"layering violation: {source_name} (layer "
                        f"{_RANK[source_package]}) may not import "
                        f"`repro.{target_package}` (layer "
                        f"{_RANK[target_package]})",
                    ))
        return findings

    def check_project(
        self, sources: Sequence[SourceModule]
    ) -> Iterable[Finding]:
        known = {src.module: src for src in sources if src.module}
        graph: Dict[str, List[Tuple[str, int]]] = {}
        for src in sources:
            targets: List[Tuple[str, int]] = []
            for edge in module_edges(src):
                if not edge.runtime_toplevel:
                    continue
                target = edge.target
                if target not in known:
                    # `from P import symbol`: snap to the package P.
                    target = target.rpartition(".")[0]
                if target in known and target != src.module:
                    targets.append((target, edge.line))
            graph[src.module] = targets
        findings: List[Finding] = []
        for cycle in _import_cycles(graph):
            anchor = min(cycle)
            start = cycle.index(anchor)
            ordered = cycle[start:] + cycle[:start]
            line = next(
                (
                    line
                    for target, line in graph[anchor]
                    if target == ordered[1 % len(ordered)]
                ),
                1,
            )
            findings.append(Finding(
                known[anchor].path, line, 1, self.rule_id,
                "module-level import cycle: "
                + " -> ".join(ordered + [anchor])
                + " (break it with a function-local or TYPE_CHECKING "
                "import)",
            ))
        return findings


class Ban(NamedTuple):
    """One DEP003 row: what stays out of ``scope``, and why.

    ``scope`` is a dotted package (``repro`` is the whole library);
    ``modules`` are dotted module names, each banned with everything
    under it; ``names`` are identifiers banned as whole words; modules
    in ``exempt`` are not judged by this row.
    """

    scope: str
    modules: Tuple[str, ...]
    names: Tuple[str, ...]
    reason: str
    exempt: Tuple[str, ...] = ()


#: DEP003's table.  This module is exempt from every row: it is where
#: the banned names are written down.
BANS: Tuple[Ban, ...] = (
    Ban(
        "repro",
        ("repro.results.live",),
        ("RunRegistry", "ServePublisher", "TeeSink"),
        "a run's state is its file: /experiments reads the results "
        "store, and no in-memory copy of a run is kept beside it",
    ),
    Ban(
        "repro",
        (),
        ("json_int", "_json_number", "_JSON_KEYS"),
        "one record codec (repro.netbase.codec) decodes every stored "
        "and posted record; no hand-written reader returns",
    ),
    Ban(
        "repro",
        ("repro.netbase.prefixset", "repro.netbase.radix",
         "repro.netbase.trie"),
        ("PrefixSet", "PrefixTrie", "RadixTree", "TrieNode"),
        "one prefix index (repro.netbase.prefixtable and the sorted "
        "origin keys of repro.core.minimal); the two tree modules "
        "stay only for the benchmark's ledger",
        exempt=("repro.netbase.radix", "repro.netbase.trie"),
    ),
    Ban(
        "repro.bgp",
        ("random",),
        ("getrandbits", "rng"),
        "propagation reads no RNG: ties are a keyed hash "
        "(repro.bgp.simulation.tie_rank)",
    ),
    Ban(
        "repro",
        (),
        ("MetricsView", "_RunnerMetrics", "_ShardMetrics", "_JobsMetrics",
         "_WorkspaceMetrics"),
        "instruments are taken from the metrics registry by their full "
        "dotted name; no subsystem wraps it in a private class",
    ),
    Ban(
        "repro.bgp", ("socket", "threading"), (),
        "the BGP speaker is asyncio on repro.netbase.loopthread",
    ),
    Ban(
        "repro", ("repro.serve._loopthread",),
        ("new_event_loop", "run_forever", "run_coroutine_threadsafe"),
        "one way to run a loop in a thread: repro.netbase.loopthread",
        exempt=("repro.netbase.loopthread",),
    ),
)

_WORD = re.compile(r"\w+")


def _lazy_export_keys(src: SourceModule) -> Iterator[Tuple[int, int, str]]:
    """``(line, col, submodule)`` per key of a ``lazy_exports`` table."""
    if "lazy_exports" not in src.source:
        return
    for node in ast.walk(src.tree):
        if not (
            isinstance(node, ast.Call)
            and getattr(node.func, "id", None) == "lazy_exports"
            and len(node.args) == 2
            and isinstance(node.args[1], ast.Dict)
        ):
            continue
        for key in node.args[1].keys:
            if isinstance(key, ast.Constant) and isinstance(key.value, str):
                yield (
                    key.lineno, key.col_offset + 1,
                    f"{src.module}.{key.value}",
                )


@register
class BannedInScopeRule(Rule):
    """DEP003: a retired module or name stays out of its scope."""

    rule_id = "DEP003"
    summary = (
        "banned in scope: a retired module (imported, or a lazy "
        "export key) or name (whole word, code or text) stays out of "
        "the scope its DEP003 table row names"
    )

    def check_module(self, src: SourceModule) -> Iterable[Finding]:
        if src.module == __name__:
            return ()
        # A banned module is named by its last component and a banned
        # name by itself, so a module whose words include neither is
        # clean for the row without a walk or a positioned scan.
        words = set(_WORD.findall(src.source))
        targets: Optional[List[Tuple[int, int, str]]] = None
        hits: Dict[Tuple[int, int], Finding] = {}
        for row, ban in enumerate(BANS):
            if src.module in ban.exempt or not (
                src.module == ban.scope
                or src.module.startswith(ban.scope + ".")
            ):
                continue
            found: List[Tuple[int, int, str]] = []
            if any(m.rpartition(".")[2] in words for m in ban.modules):
                if targets is None:
                    targets = [
                        (edge.line, edge.col, edge.target)
                        for edge in module_edges(src)
                    ] + list(_lazy_export_keys(src))
                found += [
                    (line, col, f"module `{module}`")
                    for line, col, target in targets
                    for module in ban.modules
                    if target == module or target.startswith(module + ".")
                ]
            names = sorted(words.intersection(ban.names))
            if names:
                pattern = re.compile(r"\b(?:" + "|".join(names) + r")\b")
                for match in pattern.finditer(src.source):
                    start = src.source.rfind("\n", 0, match.start()) + 1
                    found.append((
                        src.source.count("\n", 0, start) + 1,
                        match.start() - start + 1,
                        f"name `{match.group()}`",
                    ))
            for line, col, what in sorted(found):
                hits.setdefault((row, line), Finding(
                    src.path, line, col, self.rule_id,
                    f"{what} is banned in {ban.scope}: {ban.reason}",
                ))
        return list(hits.values())


def _import_cycles(
    graph: Dict[str, List[Tuple[str, int]]]
) -> Iterator[List[str]]:
    """Strongly connected components with more than one member.

    Iterative Tarjan; yields each cycle as a list of module names in
    discovery order (deterministic for a given graph).
    """
    index: Dict[str, int] = {}
    lowlink: Dict[str, int] = {}
    on_stack: Set[str] = set()
    stack: List[str] = []
    counter = [0]

    def strongconnect(root: str) -> Iterator[List[str]]:
        work: List[Tuple[str, int]] = [(root, 0)]
        while work:
            node, child_index = work.pop()
            if child_index == 0:
                index[node] = lowlink[node] = counter[0]
                counter[0] += 1
                stack.append(node)
                on_stack.add(node)
            recurse = False
            children = [target for target, _ in graph.get(node, ())]
            for position in range(child_index, len(children)):
                child = children[position]
                if child not in index:
                    work.append((node, position + 1))
                    work.append((child, 0))
                    recurse = True
                    break
                if child in on_stack:
                    lowlink[node] = min(lowlink[node], index[child])
            if recurse:
                continue
            if lowlink[node] == index[node]:
                component: List[str] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                if len(component) > 1:
                    yield list(reversed(component))
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])

    for node in sorted(graph):
        if node not in index:
            yield from strongconnect(node)
