"""The public surface behind the lazy package exports.

Every package ``__init__`` builds ``__all__``/``__getattr__``/
``__dir__`` with :func:`repro._lazy.lazy_exports`; these tests pin
that laziness changed *when* names load and nothing else: same
objects, same ``dir()``, same star-import, same pickle paths.
"""

from __future__ import annotations

import ast
import importlib
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from repro._lazy import lazy_exports

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"

#: Every library package.  ``repro.cli`` is not one: its ``__init__``
#: is the command dispatcher and defines what it exports
#: (``tests/test_import_budget.py`` holds its import budget).
PACKAGES = ["repro"] + sorted(
    f"repro.{init.parent.name}"
    for init in (SRC / "repro").glob("*/__init__.py")
    if init.parent.name != "cli"
)


def _export_table(package: str) -> dict[str, tuple[str, ...]]:
    """The ``{submodule: names}`` literal ``package`` hands the helper."""
    init = SRC.joinpath(*package.split("."), "__init__.py")
    tree = ast.parse(init.read_text(encoding="utf-8"))
    calls = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "lazy_exports"
    ]
    assert len(calls) == 1, f"{package} must call lazy_exports once"
    return ast.literal_eval(calls[0].args[1])


def _fresh_python(code: str, stdin: bytes = b"") -> bytes:
    completed = subprocess.run(
        [sys.executable, "-c", code], input=stdin,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, timeout=120,
    )
    assert completed.returncode == 0, completed.stderr.decode()
    return completed.stdout


def test_every_package_is_covered():
    assert len(PACKAGES) == 17
    assert "repro.netbase" in PACKAGES and "repro.serve" in PACKAGES


@pytest.mark.parametrize("package", PACKAGES)
class TestPublicSurface:
    def test_names_are_the_defining_submodules_objects(self, package):
        module = importlib.import_module(package)
        table = _export_table(package)
        exported = [name for names in table.values() for name in names]
        assert sorted(exported) == sorted(
            name for name in module.__all__ if name != "__version__"
        )
        for submodule, names in table.items():
            defining = importlib.import_module(f"{package}.{submodule}")
            for name in names:
                value = getattr(module, name)
                assert value is getattr(defining, name), (package, name)
                # Cached: the second access is a plain dict hit.
                assert vars(module)[name] is value
                assert getattr(module, name) is value

    def test_dir_lists_every_export(self, package):
        module = importlib.import_module(package)
        listing = dir(module)
        assert set(module.__all__) <= set(listing)
        assert "__doc__" in listing and listing == sorted(listing)

    def test_star_import(self, package):
        module = importlib.import_module(package)
        namespace: dict = {}
        exec(f"from {package} import *", namespace)
        for name in module.__all__:
            assert namespace[name] is getattr(module, name)

    def test_unknown_attribute_names_the_package(self, package):
        module = importlib.import_module(package)
        with pytest.raises(AttributeError, match=package.replace(".", r"\.")):
            module.no_such_name
        assert not hasattr(module, "no_such_name")

    def test_submodules_still_import_by_name(self, package):
        # `from pkg import submodule` falls back to the import system
        # after __getattr__ raises AttributeError.
        for submodule in _export_table(package):
            namespace: dict = {}
            exec(f"from {package} import {submodule}", namespace)
            assert namespace[submodule] is sys.modules[
                f"{package}.{submodule}"
            ]


_PRINT_REPRO_MODULES = (
    "print(*sorted(m for m in sys.modules if m.startswith('repro')))"
)


def test_importing_a_package_loads_no_submodule():
    loaded = _fresh_python(
        "import sys\n"
        + "".join(f"import {package}\n" for package in PACKAGES)
        + _PRINT_REPRO_MODULES
    ).decode().split()
    assert loaded == sorted(PACKAGES + ["repro._lazy"])


def test_one_name_loads_only_its_closure():
    loaded = _fresh_python(
        "import sys\n"
        "from repro.exper import ExperimentSpec\n"
        + _PRINT_REPRO_MODULES
    ).decode().split()
    assert "repro.exper.spec" in loaded
    for heavy in ("repro.exper.runner", "repro.exper.sharded",
                  "repro.bgp.fastprop", "repro.serve"):
        assert heavy not in loaded


def test_pickles_load_in_an_interpreter_that_imported_nothing():
    from repro.exper import (
        ExperimentSpec, MinimalRoa, ScenarioCell, TrialRecord,
    )
    from repro.netbase import Prefix
    from repro.rpki import Vrp

    spec = ExperimentSpec(
        cells=(ScenarioCell("forged-origin-subprefix", MinimalRoa()),),
        trials=3, fractions=(0.0, 1.0),
    )
    record = TrialRecord(
        fraction_index=0, trial_index=2, cell_index=0, fraction=0.5,
        cell=spec.cells[0].name, victim=11, attackers=(12,),
        attacker_fraction=0.25, victim_fraction=0.75,
        disconnected_fraction=0.0, attack_route_filtered=False,
    )
    vrp = Vrp(Prefix.parse("10.0.0.0/8"), 16, 65000)
    originals = (spec, record, vrp)
    blob = pickle.dumps(originals)
    # The class paths on the wire are the defining submodules, as
    # before the packages went lazy.
    for path in (b"repro.exper.spec", b"repro.exper.evaluate",
                 b"repro.rpki.vrp"):
        assert path in blob
    echoed = _fresh_python(
        "import pickle, sys\n"
        "assert not any(m.startswith('repro') for m in sys.modules)\n"
        "objects = pickle.loads(sys.stdin.buffer.read())\n"
        "sys.stdout.buffer.write(pickle.dumps(objects))",
        stdin=blob,
    )
    assert pickle.loads(echoed) == originals


def test_racing_first_accesses_agree():
    out = _fresh_python(
        "import sys, threading\n"
        "import repro.bgp\n"
        "sys.setswitchinterval(1e-6)\n"
        "barrier = threading.Barrier(8)\n"
        "seen = []\n"
        "def grab():\n"
        "    barrier.wait(timeout=30)\n"
        "    seen.append(repro.bgp.AsTopology)\n"
        "threads = [threading.Thread(target=grab) for _ in range(8)]\n"
        "[t.start() for t in threads]\n"
        "[t.join(60) for t in threads]\n"
        "assert not any(t.is_alive() for t in threads)\n"
        "from repro.bgp.topology import AsTopology\n"
        "print(len(seen), all(obj is AsTopology for obj in seen))"
    )
    assert out.split() == [b"8", b"True"]


def test_helper_rejects_a_table_reaching_across_packages():
    with pytest.raises(ValueError, match="own submodules"):
        lazy_exports("repro.core", {"..rpki.vrp": ("Vrp",)})
