"""Smoke test of the performance ledger, at toy sizes.

Runs every workload the way the benchmark driver does (one process per
run, ``--trace 0`` then ``--trace 1``) with ``--toy`` inputs, and checks
the contract of ``BENCHMARK.json``: exactly the declared names are
emitted, every name is plain, every value is finite, no operation and
no output check failed, and ``exper.runner.unattributed_s`` stays
within its 5 % of the plain runner wall (``attribution_ok``).
"""

from __future__ import annotations

import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
CATALOGUE = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in CATALOGUE["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _run(workload: str, trace: int, report: Path) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "0.3", "--trace", str(trace), "--toy",
         "--report", str(report)],
        cwd=HERE.parent, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr.decode()
    return json.loads(done.stdout.decode().strip().splitlines()[-1])


def test_catalogue_names_are_plain_and_unique():
    names = WORKLOADS + [
        m["name"]
        for section in ("end_to_end", "per_layer")
        for m in CATALOGUE[section]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert any(m["name"] == "setup_s" for m in CATALOGUE["end_to_end"])


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_emits_exactly_the_declared_metrics(
        workload, trace, tmp_path):
    report = tmp_path / "report.json"
    result = _run(workload, trace, report)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    section = CATALOGUE["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in section]
    for declared in section:
        emitted = result["metrics"][declared["name"]]
        assert emitted["unit"] == declared["unit"]
        assert math.isfinite(emitted["value"]), declared["name"]
        if not trace:
            assert emitted["value"] > 0, declared["name"]
    details = json.loads(report.read_text())["details"]
    if trace and workload in ("grid_10k", "platform_small"):
        assert details["attribution_ok"], details["attribution_problem"]


def test_refuses_to_run_without_the_program(tmp_path):
    """In a directory holding only the benchmark it must fail, loudly."""
    import shutil

    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        HERE, tmp_path / "perfledger",
        ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"),
    )
    done = subprocess.run(
        [sys.executable, "perfledger/run.py", "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        timeout=60,
    )
    assert done.returncode != 0
    assert not done.stdout.strip()
