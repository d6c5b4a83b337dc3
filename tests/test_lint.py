"""Tests for :mod:`repro.lint` — the invariant linter.

Three layers:

* per-rule fixtures: for every rule, wrong code that must flag and
  right/suppressed code that must pass;
* the tree gate: ``src/repro`` lints clean, and the RNG001
  suppression inventory contains exactly the one documented entropy
  bootstrap in ``repro.crypto.rsa``;
* determinism regressions for the findings the linter surfaced in the
  tree (multi-attacker evaluation is identical on both engines and
  independent of attacker-seed order).
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.lint import (
    EXIT_CLEAN,
    EXIT_FINDINGS,
    EXIT_USAGE,
    LintUsageError,
    iter_suppressions,
    lint_paths,
    lint_source,
    lint_sources,
    module_name_for,
    render_text,
    rule_catalog,
    to_json,
)

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"

ALL_RULES = (
    "ASY001", "DEP001", "DEP002", "DEP003", "DOC001", "RNG001", "RNG002",
)


def rules_of(findings):
    return [finding.rule for finding in findings]


def flags(text, module, rule):
    findings = lint_source(
        textwrap.dedent(text), module=module, rules=[rule]
    )
    return rules_of(findings)


class TestEngine:
    def test_module_name_inference(self):
        assert module_name_for(SRC / "exper" / "runner.py") == (
            "repro.exper.runner"
        )
        assert module_name_for(SRC / "__init__.py") == "repro"
        assert module_name_for(SRC / "cli.py") == "repro.cli"

    def test_stray_file_gets_no_repro_rules(self, tmp_path):
        bad = tmp_path / "loose.py"
        bad.write_text("import numpy\nx = random.random()\n")
        assert lint_paths([bad]) == []

    def test_missing_path_is_usage_error(self):
        with pytest.raises(LintUsageError):
            lint_paths([SRC / "no-such-dir"])

    def test_unknown_rule_is_usage_error(self):
        with pytest.raises(LintUsageError):
            lint_source("x = 1\n", module="repro.x", rules=["NOPE"])

    def test_syntax_error_becomes_parse_finding(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("def f(:\n")
        findings = lint_paths([bad])
        assert rules_of(findings) == ["PARSE"]

    def test_catalog_is_complete(self):
        assert tuple(rule_catalog()) == ALL_RULES

    def test_catalog_is_complete_in_a_fresh_interpreter(self):
        # Rules register as a side effect of importing lint.rules.*;
        # the lazy package __init__ must still trigger all of it.
        completed = subprocess.run(
            [sys.executable, "-c",
             "import repro.lint; print(*repro.lint.rule_catalog())"],
            env=dict(os.environ, PYTHONPATH=str(REPO / "src")),
            capture_output=True, text=True, timeout=60,
        )
        assert completed.returncode == 0, completed.stderr
        assert tuple(completed.stdout.split()) == ALL_RULES

    def test_reporters(self):
        findings = lint_source(
            "import numpy\n", module="repro.data.fixture",
            rules=["DEP001"],
        )
        text = render_text(findings)
        assert "DEP001" in text and "1 finding" in text
        document = to_json(findings)
        assert document["schema"] == 1
        assert document["count"] == 1
        assert document["findings"][0]["rule"] == "DEP001"
        assert render_text([]).startswith("repro-lint: clean")


class TestSuppressions:
    def test_trailing_comment_suppresses_its_line(self):
        text = (
            "import random\n"
            "x = random.random()  # repro-lint: disable=RNG001\n"
        )
        assert flags(text, "repro.data.fixture", "RNG001") == []

    def test_standalone_comment_covers_next_line(self):
        text = (
            "import random\n"
            "# repro-lint: disable=RNG001\n"
            "x = random.random()\n"
        )
        assert flags(text, "repro.data.fixture", "RNG001") == []

    def test_suppression_is_rule_specific(self):
        text = (
            "import random\n"
            "x = random.random()  # repro-lint: disable=RNG002\n"
        )
        assert flags(text, "repro.data.fixture", "RNG001") == ["RNG001"]


class TestRng001:
    def test_global_random_call_flags(self):
        text = "import random\nvalue = random.random()\n"
        assert flags(text, "repro.data.fixture", "RNG001") == ["RNG001"]

    def test_from_import_of_global_function_flags(self):
        text = "from random import shuffle\n"
        assert flags(text, "repro.data.fixture", "RNG001") == ["RNG001"]

    def test_function_local_import_flags(self):
        text = (
            "def build():\n"
            "    import random\n"
            "    return random.Random(7)\n"
        )
        assert flags(text, "repro.cli", "RNG001") == ["RNG001"]

    def test_injected_random_instance_passes(self):
        text = (
            "import random\n"
            "def topology(seed: int) -> random.Random:\n"
            "    return random.Random(seed)\n"
        )
        assert flags(text, "repro.data.fixture", "RNG001") == []

    def test_from_import_of_random_class_passes(self):
        text = "from random import Random\nrng = Random(7)\n"
        assert flags(text, "repro.data.fixture", "RNG001") == []


class TestRng002:
    def test_for_over_set_literal_flags(self):
        text = "for item in {1, 2, 3}:\n    print(item)\n"
        assert flags(text, "repro.exper.fixture", "RNG002") == ["RNG002"]

    def test_comprehension_over_set_call_flags(self):
        text = "values = [2 * v for v in set(range(9))]\n"
        assert flags(text, "repro.results.fixture", "RNG002") == ["RNG002"]

    def test_list_of_set_valued_local_flags(self):
        text = (
            "judged = frozenset((3, 1, 2))\n"
            "order = list(judged)\n"
        )
        assert flags(text, "repro.bgp.fixture", "RNG002") == ["RNG002"]

    def test_sorted_wrapper_passes(self):
        text = (
            "judged = frozenset((3, 1, 2))\n"
            "for asn in sorted(judged):\n"
            "    print(asn)\n"
        )
        assert flags(text, "repro.bgp.fixture", "RNG002") == []

    def test_out_of_scope_package_passes(self):
        text = "for item in {1, 2, 3}:\n    print(item)\n"
        assert flags(text, "repro.netbase.fixture", "RNG002") == []

    def test_membership_test_passes(self):
        text = (
            "attackers = frozenset((3, 1))\n"
            "hit = 3 in attackers\n"
        )
        assert flags(text, "repro.bgp.fixture", "RNG002") == []


class TestDep001:
    def test_third_party_import_flags(self):
        text = "import numpy as np\n"
        assert flags(text, "repro.bgp.fixture", "DEP001") == ["DEP001"]

    def test_third_party_from_import_flags(self):
        text = "from requests import get\n"
        assert flags(text, "repro.serve.fixture", "DEP001") == ["DEP001"]

    def test_stdlib_and_self_imports_pass(self):
        text = (
            "import json\n"
            "from pathlib import Path\n"
            "import repro.netbase\n"
            "from repro.netbase import Prefix\n"
        )
        assert flags(text, "repro.data.fixture", "DEP001") == []


class TestDep002:
    def test_upward_import_flags(self):
        text = "from repro.serve import AsyncRtrServer\n"
        assert flags(text, "repro.netbase.fixture", "DEP002") == ["DEP002"]

    def test_relative_upward_import_flags(self):
        text = "from ..exper.spec import ExperimentSpec\n"
        assert flags(text, "repro.rpki.fixture", "DEP002") == ["DEP002"]

    def test_obs_must_import_no_repro(self):
        text = "from repro.netbase import Prefix\n"
        assert flags(text, "repro.obs.fixture", "DEP002") == ["DEP002"]

    def test_obs_importable_from_lowest_layer(self):
        text = "from repro.obs import get_registry\n"
        assert flags(text, "repro.netbase.fixture", "DEP002") == []

    def test_obs_may_use_the_lazy_export_helper(self):
        text = "from .._lazy import lazy_exports\n"
        assert flags(text, "repro.obs", "DEP002") == []
        assert flags(text, "repro.netbase", "DEP002") == []

    def test_root_dunder_is_the_root_not_a_package(self):
        text = "from . import __version__\n"
        assert flags(text, "repro.cli", "DEP002") == []
        text = "from .. import __version__\n"
        assert flags(text, "repro.netbase.fixture", "DEP002") == ["DEP002"]

    def test_function_body_imports_still_count_for_layering(self):
        text = (
            "def late():\n"
            "    from ..serve.http import QueryHttpServer\n"
            "    return QueryHttpServer\n"
        )
        assert flags(text, "repro.rpki.fixture", "DEP002") == ["DEP002"]

    def test_downward_and_same_layer_imports_pass(self):
        text = (
            "from repro.exper.spec import ExperimentSpec\n"
            "from repro.results.sinks import JsonlSink\n"
            "from repro.bgp.topology import AsTopology\n"
        )
        assert flags(text, "repro.serve.fixture", "DEP002") == []

    def test_unknown_package_flags(self):
        text = "from repro.newthing import gadget\n"
        assert flags(text, "repro.cli", "DEP002") == ["DEP002"]

    def test_module_cycle_flags(self):
        findings = lint_sources(
            [
                ("repro.exper.alpha", "from repro.exper.beta import b\n"),
                ("repro.exper.beta", "from repro.exper.alpha import a\n"),
            ],
            rules=["DEP002"],
        )
        assert rules_of(findings) == ["DEP002"]
        assert "cycle" in findings[0].message

    def test_lazy_imports_do_not_make_cycles(self):
        findings = lint_sources(
            [
                ("repro.exper.alpha", "from repro.exper.beta import b\n"),
                (
                    "repro.exper.beta",
                    "from typing import TYPE_CHECKING\n"
                    "if TYPE_CHECKING:\n"
                    "    from repro.exper.alpha import a\n"
                    "def late():\n"
                    "    from repro.exper.alpha import a\n"
                    "    return a\n",
                ),
            ],
            rules=["DEP002"],
        )
        assert findings == []


class TestDep003:
    """Each row of the DEP003 table fails on the hit that retired it
    and passes its near-misses."""

    #: ``(row, module, text, lines flagged)``: one rebuilt hit per row.
    HITS = (
        (0, "repro.results.sinks",
         "class TeeSink:\n    pass\n", [1]),
        (0, "repro.serve.http",
         "from ..results.live import RunRegistry, ServePublisher\n", [1]),
        (1, "repro.exper.spec",
         "_JSON_KEYS = frozenset(('seed',))\n"
         "def json_int(value, name):\n"
         "    return value\n", [1, 2]),
        (1, "repro.jobs.spec",
         "size = _json_number(data['size'], 'size')\n", [1]),
        (2, "repro.bgp.rib",
         "from ..netbase.radix import RadixTree\n", [1]),
        (2, "repro.core.compress",
         "from repro.netbase import trie\n", [1]),
        (2, "repro.netbase",
         "from .._lazy import lazy_exports\n"
         "__all__, __getattr__, __dir__ = lazy_exports(__name__, {\n"
         "    'prefixtable': ('PrefixTable',),\n"
         "    'radix': ('RadixTree',),\n"
         "    'trie': ('Walker',),\n"
         "})\n", [4, 5]),
        (2, "repro.core.minimal",
         "# a PrefixSet would do here\n", [1]),
        (3, "repro.bgp.f",
         "def f(rng):\n    return rng.getrandbits(8)\n", [1, 2]),
        (3, "repro.bgp.f",
         "def f():\n    import random\n    return random.Random(7)\n",
         [2]),
        (4, "repro.exper.runner",
         "class _RunnerMetrics:\n"
         "    def __init__(self, registry):\n"
         "        view = registry.view('exper')\n", [1]),
        (4, "repro.serve.metrics",
         "from ..obs.metrics import MetricsView\n", [1]),
        (5, "repro.bgp.session",
         "import socket\nimport threading\n", [1, 2]),
        (5, "repro.bgp.session",
         "from threading import RLock\n", [1]),
        (6, "repro.serve.rtr_async",
         "from ._loopthread import LoopThread\n", [1]),
        (6, "repro.serve.shards",
         "loop = asyncio.new_event_loop()\nloop.run_forever()\n", [1, 2]),
        (6, "repro.bgp.session",
         "asyncio.run_coroutine_threadsafe(coro, loop).result()\n", [1]),
    )

    @pytest.mark.parametrize(
        "row, module, text, lines", HITS,
        ids=[f"row{hit[0]}-{hit[1]}-{n}" for n, hit in enumerate(HITS)],
    )
    def test_rebuilt_hit_flags(self, row, module, text, lines):
        from repro.lint.rules.deps import BANS

        findings = lint_source(text, module=module, rules=["DEP003"])
        assert [finding.line for finding in findings] == lines
        for finding in findings:
            assert BANS[row].reason in finding.message

    def test_every_row_has_a_rebuilt_hit(self):
        from repro.lint.rules.deps import BANS

        assert {hit[0] for hit in self.HITS} == set(range(len(BANS)))

    @pytest.mark.parametrize("module, text", [
        ("repro.netbase.errors", "class TrieError(Exception):\n    pass\n"),
        ("repro.bgp.rib",
         "from ..netbase.prefixtable import PrefixTable\n"),
        ("repro.netbase.radix", "class RadixTree:\n    pass\n"),
        ("repro.netbase.trie", "from .radix import RadixTree\n"),
        ("repro.data.topology",
         "import random\nrng = random.Random(7)\n"),
        ("repro.exper.spec", "def json_integer(value):\n    pass\n"),
        ("repro.bgp.f", "def f(rng_seed):\n    return rng_seed\n"),
        ("repro.serve.metrics", "class ServeMetrics:\n    pass\n"),
        ("repro.exper.runner",
         "registry.counter('exper.records_released').inc()\n"),
        ("repro.rtr.client", "import socket\n"),
        ("repro.bgp.session",
         "from ..netbase.loopthread import LoopThread\n"),
        ("repro.netbase.loopthread",
         "loop = asyncio.new_event_loop()\nloop.run_forever()\n"),
    ])
    def test_near_miss_passes(self, module, text):
        assert flags(text, module, "DEP003") == []

    def test_one_edge_walk_per_module(self, monkeypatch):
        """DEP002's module and project passes and DEP003 share one walk
        of each module's import edges in a lint run."""
        from collections import Counter

        from repro.lint.rules import deps

        walks = Counter()
        walk = deps._walk_edges

        def counted(src):
            walks[src.path] += 1
            return walk(src)

        monkeypatch.setattr(deps, "_walk_edges", counted)
        assert lint_paths([SRC], rules=["DEP002", "DEP003"]) == []
        assert len(walks) == len(list(SRC.rglob("*.py")))
        assert set(walks.values()) == {1}


class TestAsy001:
    def test_time_sleep_in_async_flags(self):
        text = (
            "import time\n"
            "async def pump():\n"
            "    time.sleep(1)\n"
        )
        assert flags(text, "repro.serve.fixture", "ASY001") == ["ASY001"]

    def test_bare_open_in_async_flags(self):
        text = (
            "async def load(path):\n"
            "    with open(path) as handle:\n"
            "        return handle.read()\n"
        )
        assert flags(text, "repro.serve.fixture", "ASY001") == ["ASY001"]

    def test_subprocess_in_async_flags(self):
        text = (
            "import subprocess\n"
            "async def shell():\n"
            "    subprocess.run(['true'])\n"
        )
        assert flags(text, "repro.serve.fixture", "ASY001") == ["ASY001"]

    def test_sync_function_passes(self):
        text = "import time\ndef pump():\n    time.sleep(1)\n"
        assert flags(text, "repro.serve.fixture", "ASY001") == []

    def test_nested_sync_helper_passes(self):
        text = (
            "import time\n"
            "async def outer():\n"
            "    def helper():\n"
            "        time.sleep(1)\n"
            "    return helper\n"
        )
        assert flags(text, "repro.serve.fixture", "ASY001") == []

    def test_asyncio_sleep_passes(self):
        text = (
            "import asyncio\n"
            "async def pump():\n"
            "    await asyncio.sleep(1)\n"
        )
        assert flags(text, "repro.serve.fixture", "ASY001") == []

    def test_out_of_scope_package_passes(self):
        text = "import time\nasync def pump():\n    time.sleep(1)\n"
        assert flags(text, "repro.exper.fixture", "ASY001") == []


class TestDoc001:
    def test_missing_module_docstring_flags(self):
        assert flags("x = 1\n", "repro.data.fixture", "DOC001") == [
            "DOC001"
        ]

    def test_exported_function_without_docstring_flags(self):
        text = (
            '"""Module docstring."""\n'
            "__all__ = ['helper']\n"
            "def helper():\n"
            "    return 1\n"
        )
        assert flags(text, "repro.data.fixture", "DOC001") == ["DOC001"]

    def test_documented_surface_passes(self):
        text = (
            '"""Module docstring."""\n'
            "__all__ = ['helper', 'LIMIT']\n"
            "LIMIT = 3\n"
            "def helper():\n"
            '    """Do the thing."""\n'
            "    return 1\n"
        )
        assert flags(text, "repro.data.fixture", "DOC001") == []

    def test_unexported_private_function_passes(self):
        text = (
            '"""Module docstring."""\n'
            "__all__ = []\n"
            "def _internal():\n"
            "    return 1\n"
        )
        assert flags(text, "repro.data.fixture", "DOC001") == []


class TestTreeGate:
    def test_lint_tree_clean(self):
        findings = lint_paths([SRC])
        assert findings == [], "\n" + render_text(findings)

    def test_rng001_suppressed_exactly_once_in_the_library(self):
        sites = [
            site
            for site in iter_suppressions([SRC])
            if "RNG001" in site.rules
        ]
        assert len(sites) == 1, sites
        assert sites[0].path.endswith("crypto/rsa.py")

    def test_every_rule_fires_on_its_fixture(self):
        # One wrong-code fixture per registered rule: proves no rule
        # in the catalog is dead code.
        wrong = {
            "RNG001": ("repro.data.f", "import random\nx = random.random()\n"),
            "RNG002": ("repro.exper.f", "for v in {1, 2}:\n    print(v)\n"),
            "DEP001": ("repro.data.f", "import numpy\n"),
            "DEP002": ("repro.netbase.f", "from repro.cli import main\n"),
            "DEP003": ("repro.bgp.f", "from ..netbase.radix import R\n"),
            "ASY001": (
                "repro.serve.f",
                "import time\nasync def f():\n    time.sleep(1)\n",
            ),
            "DOC001": ("repro.data.f", "x = 1\n"),
        }
        assert set(wrong) == set(rule_catalog())
        for rule_id, (module, text) in wrong.items():
            assert flags(text, module, rule_id) == [rule_id], rule_id


class TestCli:
    def test_cli_clean_tree_exits_zero(self, capsys):
        from repro.cli import main

        assert main(["lint", str(SRC)]) == EXIT_CLEAN
        assert "clean" in capsys.readouterr().out

    def test_cli_findings_exit_one_and_json(self, tmp_path, capsys):
        from repro.cli import main

        package = tmp_path / "repro" / "exper"
        package.mkdir(parents=True)
        (tmp_path / "repro" / "__init__.py").write_text('"""Fixture."""\n')
        (package / "__init__.py").write_text('"""Fixture."""\n')
        (package / "bad.py").write_text(
            '"""Fixture."""\nfor v in {1, 2}:\n    print(v)\n'
        )
        assert main(
            ["lint", "--json", "--rule", "RNG002", str(tmp_path)]
        ) == EXIT_FINDINGS
        document = json.loads(capsys.readouterr().out)
        assert document["count"] == 1
        assert document["findings"][0]["rule"] == "RNG002"

    def test_cli_unknown_rule_exits_two(self, capsys):
        from repro.cli import main

        assert main(["lint", "--rule", "NOPE", str(SRC)]) == EXIT_USAGE
        assert "unknown rule" in capsys.readouterr().err

    def test_cli_list_rules(self, capsys):
        from repro.cli import main

        assert main(["lint", "--list-rules"]) == EXIT_CLEAN
        out = capsys.readouterr().out
        for rule_id in ALL_RULES:
            assert rule_id in out


class TestDeterminismRegressions:
    """The RNG002 findings fixed in the tree were in the multi-attacker
    measurement cores (the reference engine's judged loop, the product
    path's cast construction).  Pin that multi-attacker evaluation is
    identical on both and independent of attacker-seed order — the
    property unsorted set iteration would eventually break."""

    @pytest.fixture(scope="class")
    def scenario(self):
        from repro.bgp.attacks import Seed
        from repro.data import TopologyProfile, generate_topology
        from repro.netbase import Prefix

        topology = generate_topology(
            TopologyProfile(ases=160), random.Random(11)
        )
        ases = sorted(topology.ases)
        victim = ases[5]
        attackers = [ases[17], ases[31], ases[53]]
        return {
            "topology": topology,
            "victim": victim,
            "victim_prefix": Prefix.parse("10.0.0.0/16"),
            "attack_prefix": Prefix.parse("10.0.0.0/24"),
            "seeds": [Seed.forged_origin(asn, victim) for asn in attackers],
        }

    @staticmethod
    def measure(engine):
        """The product's measurement core, or the reference engine's."""
        from repro.bgp.attacks import evaluate_attack_seeds
        from repro.bgp.simulation import reference_attack_seeds

        if engine == "object":
            return reference_attack_seeds
        return evaluate_attack_seeds

    def test_multi_attacker_engines_agree(self, scenario):
        results = {}
        for engine in ("object", "array"):
            results[engine] = self.measure(engine)(
                scenario["topology"], scenario["victim"],
                scenario["victim_prefix"], scenario["attack_prefix"],
                scenario["seeds"], tie_seed=5,
            )
        assert results["object"] == results["array"]

    @pytest.mark.parametrize("engine", ["object", "array"])
    def test_attacker_seed_order_is_immaterial(self, scenario, engine):
        measure = self.measure(engine)
        forward = measure(
            scenario["topology"], scenario["victim"],
            scenario["victim_prefix"], scenario["attack_prefix"],
            scenario["seeds"], tie_seed=5,
        )
        reversed_seeds = measure(
            scenario["topology"], scenario["victim"],
            scenario["victim_prefix"], scenario["attack_prefix"],
            list(reversed(scenario["seeds"])), tie_seed=5,
        )
        assert forward == reversed_seeds
