"""The rule catalog for :mod:`repro.lint`.

Importing this package populates the registry: each rule module
registers its rules at import time via the ``@register`` decorator in
:mod:`repro.lint.rules.base`.  The shipped catalog:

==========  ==========================================================
RNG001      no process-global ``random`` use (inject ``random.Random``)
RNG002      no unsorted set iteration in result-affecting paths
DEP001      stdlib-only imports
DEP002      import-layering DAG + module-level cycle detection
DEP003      retired modules and names stay out of their scope (a table)
ASY001      no blocking calls inside async bodies in the serve tier
DOC001      public docstring policy
==========  ==========================================================
"""

from __future__ import annotations

from .base import Rule, make_rules, register, rule_catalog
from . import asyncsafe, deps, docs, rng

#: Importing a rule module registers its rules; this tuple both keeps
#: the imports visibly load-bearing and documents the shipped set.
RULE_MODULES = (asyncsafe, deps, docs, rng)

__all__ = ["Rule", "RULE_MODULES", "make_rules", "register", "rule_catalog"]
