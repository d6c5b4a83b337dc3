"""``repro.lint`` — the repo's invariants as a static-analysis pass.

The reproduction's scientific claims rest on properties the test
suite can only check *dynamically* and expensively: byte-identical
results across executors and against the reference engine,
stdlib-only portability, and the determinism of seeded trials that
makes resume and sharding possible.  This package checks the classes of regression that break
those properties at **parse time**, before any golden test has to
fail:

* :mod:`rules <repro.lint.rules>` — the catalog: RNG discipline
  (RNG001/RNG002), the stdlib-only contract, import layering and
  retired modules and names (DEP001/DEP002/DEP003), async safety in
  the serve tier (ASY001), and the public-docstring policy (DOC001);
* :mod:`engine <repro.lint.engine>` — discovery, parsing, module-name
  inference, and the driver;
* :mod:`suppress <repro.lint.suppress>` — per-line
  ``# repro-lint: disable=RULE`` suppressions;
* :mod:`report <repro.lint.report>` — text/JSON reporters and exit
  codes.

CLI: ``repro-roa lint [--json] [--rule RULE] [paths]`` (defaults to
the installed ``repro`` package); the CI ``lint`` job gates every
push on a clean tree.  See ``docs/linting.md`` for the rule catalog
and suppression syntax.  The package is stdlib-only and imports
nothing else from ``repro`` (bar the lazy-export helper every package
``__init__`` uses) — it has to pass its own layering rule.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "engine": (
        "PARSE_RULE", "discover_files", "iter_suppressions", "lint_paths",
        "lint_source", "lint_sources", "module_name_for",
    ),
    "model": ("Finding", "LintUsageError", "SourceModule", "SuppressionSite"),
    "report": (
        "EXIT_CLEAN", "EXIT_FINDINGS", "EXIT_USAGE", "render_text", "to_json",
    ),
    "rules": ("Rule", "make_rules", "register", "rule_catalog"),
})
