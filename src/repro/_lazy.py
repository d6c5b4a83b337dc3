"""Lazy package exports (PEP 562) — the one helper every ``__init__`` uses.

A package ``__init__`` declares *which submodule defines each public
name* and resolves the name on first access, so importing a package —
or one name from it — loads only the submodules that name really needs
instead of the package's whole closure::

    from .._lazy import lazy_exports

    __all__, __getattr__, __dir__ = lazy_exports(__name__, {
        "prefix": ("AF_INET", "AF_INET6", "Prefix"),
        "trie": ("PrefixTrie", "TrieNode"),
    })

Table keys are the package's *own* submodules (one path component, so
an ``__init__`` cannot re-export across packages behind the layering
rule's back).  A resolved name is stored in the package's ``__dict__``:
the second access never reaches ``__getattr__``.
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Callable, Dict, List, Mapping, Sequence, Tuple

__all__ = ["lazy_exports"]


def lazy_exports(
    package: str, table: Mapping[str, Sequence[str]]
) -> Tuple[List[str], Callable[[str], object], Callable[[], List[str]]]:
    """``(__all__, __getattr__, __dir__)`` for the package ``package``.

    ``table`` maps each submodule of ``package`` to the public names
    it defines.  Raises ``ValueError`` at package import time for a
    key that is not a direct submodule — the layering rule (DEP002)
    cannot follow a table, so a table must not reach across packages.
    """
    for submodule in table:
        if "." in submodule:
            raise ValueError(
                f"{package}: lazy export table key {submodule!r} is not "
                f"one of the package's own submodules"
            )
    origin: Dict[str, str] = {
        name: submodule
        for submodule, names in table.items()
        for name in names
    }

    def __getattr__(name: str) -> object:
        submodule = origin.get(name)
        if submodule is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        value = getattr(import_module(f"{package}.{submodule}"), name)
        # Racing first accesses import under the import lock and store
        # the same object, so the unguarded write is idempotent.
        sys.modules[package].__dict__[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(sys.modules[package].__dict__) | origin.keys())

    return sorted(origin), __getattr__, __dir__
