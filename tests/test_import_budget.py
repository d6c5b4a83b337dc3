"""Import budgets: a command loads the layers it runs, and no others.

Every case starts a fresh interpreter, runs ``repro.cli.main([...])``
and inspects ``sys.modules`` afterwards — module *sets*, never
timings, so the gate is deterministic.  A failure here almost always
means a new top-level ``from .pkg import`` in a ``repro.cli`` module
or an eager import in a package ``__init__`` (see "Import discipline" in
``docs/architecture.md``).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import COMMANDS

REPO = Path(__file__).resolve().parent.parent

_PROBE = """\
import json, sys
from repro.cli import main
out, argv = sys.argv[1], sys.argv[2:]
try:
    code = main(argv)
except SystemExit as exc:  # argparse exits for --help / --version
    code = exc.code
with open(out, "w", encoding="utf-8") as fh:
    json.dump({"code": code, "modules": sorted(sys.modules)}, fh)
"""


def _modules_after(argv: list[str], tmp_path: Path) -> set[str]:
    """``sys.modules`` of a fresh interpreter after ``main(argv)``."""
    out = tmp_path / "modules.json"
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    completed = subprocess.run(
        [sys.executable, "-c", _PROBE, str(out), *argv],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["code"] in (0, None), (
        f"{argv} exited {report['code']}:\n{completed.stderr}"
    )
    return set(report["modules"])


def _loaded(modules: set[str], patterns: tuple[str, ...]) -> list[str]:
    """Members of ``modules`` hit by ``patterns``: ``pkg*`` matches the
    package and everything under it, anything else one exact module."""
    hits = set()
    for pattern in patterns:
        if pattern.endswith("*"):
            base = pattern[:-1]
            hits.update(
                name for name in modules
                if name == base or name.startswith(base + ".")
            )
        elif pattern in modules:
            hits.add(pattern)
    return sorted(hits)


#: What a queue client (one line appended to, or folded from,
#: ``queue.jsonl``) and ``experiment --emit-spec`` must not pay for:
#: the execution stack, and the engine and sink modules a spec or job
#: codec decodes without.
_CLIENT_FORBIDDEN = (
    "repro.exper.runner", "repro.bgp.fastprop", "repro.serve*",
    "repro.rtr*", "repro.crypto*", "repro.asn1*", "repro.analysis*",
    "repro.lint*", "asyncio", "multiprocessing",
    "repro.bgp.simulation", "repro.bgp.topology",
    "repro.bgp.origin_validation", "repro.bgp.announcement",
    "repro.netbase.prefixtable", "repro.results.sinks",
    "repro.results.store", "repro.results.accumulate",
)
#: Modules of ``repro.cli`` that hold no command: the grid flags
#: ``experiment`` and ``jobs submit`` share, loaded with either.
_CLI_SHARED = {"repro.cli.grid"}
_PIPELINE_FORBIDDEN = (
    "repro.exper*", "repro.serve*", "repro.rtr*", "repro.crypto*",
    "repro.asn1*", "repro.jobs*", "repro.lint*", "asyncio",
    "multiprocessing",
)
_EXPERIMENT_FORBIDDEN = (
    "repro.serve*", "repro.rtr*", "repro.crypto*", "repro.asn1*",
    "repro.analysis*", "repro.core*", "repro.jobs*", "repro.lint*",
    "asyncio",
)


@pytest.mark.parametrize("flag", ["--help", "--version"])
def test_parser_only_commands_load_no_subpackage(flag, tmp_path):
    modules = _modules_after([flag], tmp_path)
    extra = sorted(
        name for name in modules
        if name.startswith("repro.")
        and name not in ("repro._lazy", "repro.cli")
    )
    assert extra == [], f"{flag} imported {extra}"


@pytest.mark.parametrize(
    "name, module", [(name, module) for name, module, _ in COMMANDS],
    ids=[name for name, _, _ in COMMANDS],
)
def test_command_help_loads_only_its_module(name, module, tmp_path):
    """``<command> --help`` builds that command alone: the dispatcher,
    the command's module, and no other command's module."""
    modules = _modules_after([name, "--help"], tmp_path)
    own = {"repro.cli", f"repro.cli.{module}"}
    cli = set(_loaded(modules, ("repro.cli*",)))
    assert own <= cli
    assert cli - own <= _CLI_SHARED, f"{name} --help loaded {sorted(cli)}"


@pytest.fixture()
def job_store(tmp_path) -> Path:
    """A store holding one queued job (``job-000001``)."""
    store = tmp_path / "store"
    _modules_after(
        ["jobs", "submit", "--store", str(store), "--trials", "2"],
        tmp_path,
    )
    return store


def test_jobs_submit_skips_the_execution_stack(tmp_path):
    modules = _modules_after(
        ["jobs", "submit", "--store", str(tmp_path / "store"),
         "--trials", "2"],
        tmp_path,
    )
    assert _loaded(modules, _CLIENT_FORBIDDEN) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["jobs", "list"],
        ["jobs", "show", "job-000001"],
        ["jobs", "cancel", "job-000001"],
    ],
    ids=lambda argv: argv[1],
)
def test_queue_clients_skip_the_execution_stack(argv, job_store, tmp_path):
    modules = _modules_after([*argv, "--store", str(job_store)], tmp_path)
    assert _loaded(modules, _CLIENT_FORBIDDEN) == []


def test_emit_spec_skips_the_execution_stack(tmp_path):
    modules = _modules_after(["experiment", "--emit-spec"], tmp_path)
    assert _loaded(modules, _CLIENT_FORBIDDEN + ("repro.jobs*",)) == []


def test_jobs_diff_skips_runner_and_serve_tier(tmp_path):
    """``diff`` decodes trial records, so it needs ``exper.evaluate``
    (where ``TrialRecord`` lives) — but not the runner, a process pool
    or the serve tier."""
    store = tmp_path / "store"
    for seed in ("1", "2"):
        _modules_after(
            ["jobs", "submit", "--store", str(store), "--trials", "2",
             "--ases", "60", "--seed", seed],
            tmp_path,
        )
    _modules_after(["jobs", "run", "--store", str(store)], tmp_path)
    modules = _modules_after(
        ["jobs", "diff", "--store", str(store), "job-000001",
         "job-000002"],
        tmp_path,
    )
    assert _loaded(modules, (
        "repro.exper.runner", "repro.exper.sharded", "repro.serve*",
        "repro.rtr*", "repro.crypto*", "repro.asn1*", "repro.analysis*",
        "repro.lint*", "asyncio", "multiprocessing",
    )) == []


@pytest.fixture(scope="module")
def snapshot_dir(tmp_path_factory) -> Path:
    """``generate --scale 0.002``: ``vrps.csv`` + ``rib.txt``."""
    out = tmp_path_factory.mktemp("snap")
    _modules_after(
        ["generate", "--scale", "0.002", "--out-dir", str(out)], out
    )
    return out


@pytest.mark.parametrize(
    "argv",
    [
        ["compress", "{snap}/vrps.csv", "-o", "compressed.csv"],
        ["analyze", "{snap}/vrps.csv", "{snap}/rib.txt"],
        ["table1", "--vrps", "{snap}/vrps.csv", "--rib", "{snap}/rib.txt"],
    ],
    ids=lambda argv: argv[0],
)
def test_paper_pipeline_commands_stay_offline(argv, snapshot_dir, tmp_path):
    argv = [part.format(snap=snapshot_dir) for part in argv]
    modules = _modules_after(argv, tmp_path)
    assert _loaded(modules, _PIPELINE_FORBIDDEN) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["generate", "--scale", "0.002", "--out-dir", "snap"],
        ["table1", "--vrps", "{snap}/vrps.csv", "--rib", "{snap}/rib.txt"],
    ],
    ids=lambda argv: argv[0],
)
def test_dataset_commands_skip_the_signed_object_chain(
    argv, snapshot_dir, tmp_path
):
    """ROA payloads become VRPs in ``repro.rpki.roa``: no validator,
    no signed object, no RSA."""
    argv = [part.format(snap=snapshot_dir) for part in argv]
    modules = _modules_after(argv, tmp_path)
    assert _loaded(modules, ("repro.rpki.validator", "repro.crypto*")) == []


def test_serial_experiment_skips_serve_and_analysis(tmp_path):
    modules = _modules_after(
        ["experiment", "--executor", "serial", "--engine", "array",
         "--trials", "2", "--ases", "60"],
        tmp_path,
    )
    assert _loaded(modules, _EXPERIMENT_FORBIDDEN) == []


def test_serial_experiment_skips_the_shard_stack(tmp_path):
    """Only a sharded run compiles the coordinator and retry policy."""
    modules = _modules_after(
        ["experiment", "--executor", "serial", "--trials", "2",
         "--ases", "60"],
        tmp_path,
    )
    assert _loaded(
        modules, ("repro.exper.sharded", "repro.faults.retry")
    ) == []


_QUERY_SERVER_PROBE = """\
import asyncio, json, sys
from repro.netbase import Prefix
from repro.rpki import Vrp
from repro.serve import QueryHttpServer, QueryService

async def answer():
    service = QueryService([Vrp(Prefix.parse("10.0.0.0/24"), 24, 65000)])
    async with QueryHttpServer(service) as http:
        reader, writer = await asyncio.open_connection(http.host, http.port)
        writer.write(b"GET /validity?asn=65000&prefix=10.0.0.0/24 HTTP/1.1"
                     b"\\r\\nConnection: close\\r\\n\\r\\n")
        data = await reader.read()
        writer.close()
    return int(data.split(b" ", 2)[1])

status = asyncio.run(answer())
with open(sys.argv[1], "w", encoding="utf-8") as fh:
    json.dump({"status": status, "modules": sorted(sys.modules)}, fh)
"""


def test_query_serving_skips_results_and_experiments(tmp_path):
    """A query server answers ``/validity`` without the results or
    experiment layers: only an ``/experiments`` or ``/diff`` request
    loads them."""
    out = tmp_path / "modules.json"
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    completed = subprocess.run(
        [sys.executable, "-c", _QUERY_SERVER_PROBE, str(out)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["status"] == 200
    assert _loaded(
        set(report["modules"]), ("repro.results*", "repro.exper*")
    ) == []
