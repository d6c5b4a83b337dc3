"""Core data types shared by the :mod:`repro.lint` framework.

Kept free of engine and rule imports so that every other module in the
package (engine, reporters, rules) can depend on it without cycles —
the linter has to pass its own DEP002 rule.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Mapping, Optional

__all__ = [
    "Finding",
    "LintUsageError",
    "SourceModule",
    "SuppressionSite",
]


class LintUsageError(Exception):
    """The linter was invoked incorrectly (unknown rule, missing path).

    Maps to exit code 2 in the CLI, distinct from exit code 1 which
    means "the code has findings".
    """


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location.

    Orders by (path, line, col, rule) so reports are deterministic
    regardless of rule execution order.
    """

    path: str
    line: int
    col: int
    rule: str
    message: str

    def render(self) -> str:
        """The text-reporter line: ``path:line:col: RULE message``."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


@dataclass(frozen=True)
class SuppressionSite:
    """One ``# repro-lint: disable=RULE`` comment found in a file.

    Distinct from the per-line suppression *effect* (a standalone
    comment also covers the following line): tests that audit the
    suppression inventory — e.g. "RNG001 is disabled exactly once in
    the library" — count sites, not covered lines.
    """

    path: str
    line: int
    rules: frozenset[str]


@dataclass
class SourceModule:
    """A parsed source file plus the context rules need to judge it.

    ``module`` is the dotted module name inferred from the package
    layout (``repro.exper.runner``); rules use it for scoping, so
    fixture snippets in tests pass an explicit name to opt into a
    rule's jurisdiction.  ``suppressions`` maps a line number to the
    set of rule ids disabled on that line.
    """

    path: str
    module: str
    source: str
    tree: ast.Module
    suppressions: Mapping[int, frozenset] = field(default_factory=dict)
    is_package: bool = False
    #: The resolved import edges, kept by the first rule that walks
    #: them (:func:`repro.lint.rules.deps.module_edges`), so one walk a
    #: lint run serves DEP002's two passes and DEP003.
    import_edges: Optional[list] = field(
        default=None, init=False, repr=False, compare=False
    )
