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
"""

from __future__ import annotations

import ast
import sys
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Sequence, Set, Tuple

from ..model import Finding, SourceModule
from .base import Rule, register

__all__ = ["ImportEdge", "LayeringRule", "StdlibOnlyRule", "module_edges"]

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
    land on the submodule.
    """
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
