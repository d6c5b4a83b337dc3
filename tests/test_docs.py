"""Executable documentation: the docs cannot rot.

Three enforcement layers:

* every fenced ``json`` block in ``docs/experiments.md`` must parse as
  an :class:`~repro.exper.ExperimentSpec` and survive a JSON round
  trip;
* every ``repro-roa`` command in ``docs/experiments.md`` must exit 0
  (run via ``python -m repro.cli`` on a tiny topology; a command that
  mentions ``spec.json`` receives the nearest preceding ``json`` block
  as that file);
* every relative link in ``README.md`` and ``docs/*.md`` must resolve,
  and the tree-wide docstring policy (the DOC001 rule of
  :mod:`repro.lint`) must hold (the CI docs job runs this file).
"""

from __future__ import annotations

import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from repro.exper import ExperimentSpec

REPO = Path(__file__).resolve().parent.parent
DOCS = REPO / "docs"
EXPERIMENTS_DOC = DOCS / "experiments.md"
RESULTS_DOC = DOCS / "results.md"
OBSERVABILITY_DOC = DOCS / "observability.md"
LINTING_DOC = DOCS / "linting.md"
ROBUSTNESS_DOC = DOCS / "robustness.md"
PLATFORM_DOC = DOCS / "platform.md"
SERVING_DOC = DOCS / "serving.md"

_FENCE = re.compile(r"```(\w*)\n(.*?)```", re.DOTALL)
_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")


def _fenced_blocks(text: str) -> list[tuple[str, str]]:
    return [(m.group(1), m.group(2)) for m in _FENCE.finditer(text)]


def _doc_commands(
    doc: Path = EXPERIMENTS_DOC,
) -> list[tuple[str, str | None]]:
    """(command, nearest preceding json block) pairs, in document order."""
    latest_json: str | None = None
    commands: list[tuple[str, str | None]] = []
    for language, body in _fenced_blocks(
        doc.read_text(encoding="utf-8")
    ):
        if language == "json":
            latest_json = body
            continue
        if language not in ("bash", "sh", "console", ""):
            continue
        logical: list[str] = []
        for line in body.splitlines():
            line = line.strip()
            if not line:
                continue
            if logical and logical[-1].endswith("\\"):
                logical[-1] = logical[-1][:-1] + " " + line
            else:
                logical.append(line)
        commands.extend(
            (line, latest_json)
            for line in logical
            if line.startswith("repro-roa ")
        )
    return commands


def _spec_blocks() -> list[str]:
    return [
        body
        for language, body in _fenced_blocks(
            EXPERIMENTS_DOC.read_text(encoding="utf-8")
        )
        if language == "json"
    ]


def _markdown_files() -> list[Path]:
    return [REPO / "README.md", *sorted(DOCS.glob("*.md"))]


class TestExperimentDocExamples:
    @pytest.mark.parametrize(
        "body", _spec_blocks(), ids=lambda b: f"{len(b)}B"
    )
    def test_spec_blocks_round_trip(self, body):
        spec = ExperimentSpec.from_json(body)
        assert ExperimentSpec.from_json(spec.to_json()) == spec

    def test_doc_has_examples_at_all(self):
        assert _spec_blocks(), "experiments.md lost its json spec blocks"
        assert _doc_commands(), "experiments.md lost its repro-roa commands"

    @pytest.mark.parametrize(
        "command,spec_json",
        _doc_commands(),
        ids=[f"cmd{i}" for i in range(len(_doc_commands()))],
    )
    def test_doc_commands_exit_zero(self, command, spec_json, tmp_path):
        argv = shlex.split(command)
        assert argv[0] == "repro-roa"
        if any("spec.json" in argument for argument in argv):
            assert spec_json is not None, (
                f"{command!r} references spec.json but no json block "
                f"precedes it"
            )
            (tmp_path / "spec.json").write_text(
                spec_json, encoding="utf-8"
            )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            part
            for part in (str(REPO / "src"), env.get("PYTHONPATH"))
            if part
        )
        completed = subprocess.run(
            [sys.executable, "-m", "repro.cli", *argv[1:]],
            cwd=tmp_path,
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert completed.returncode == 0, (
            f"{command!r} exited {completed.returncode}:\n"
            f"{completed.stderr}"
        )


class TestResultsDocExamples:
    """docs/results.md commands form one record/resume/merge session:
    they run in order, sharing a working directory, so later commands
    (resume, show, merge) see the run files earlier ones recorded."""

    def test_doc_has_commands_at_all(self):
        assert _doc_commands(RESULTS_DOC), (
            "results.md lost its repro-roa commands"
        )

    def test_commands_run_in_sequence(self, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            part
            for part in (str(REPO / "src"), env.get("PYTHONPATH"))
            if part
        )
        for command, _ in _doc_commands(RESULTS_DOC):
            argv = shlex.split(command)
            assert argv[0] == "repro-roa"
            completed = subprocess.run(
                [sys.executable, "-m", "repro.cli", *argv[1:]],
                cwd=tmp_path,
                env=env,
                capture_output=True,
                text=True,
                timeout=300,
            )
            assert completed.returncode == 0, (
                f"{command!r} exited {completed.returncode}:\n"
                f"{completed.stderr}"
            )


class TestObservabilityDocExamples:
    """docs/observability.md commands run in order in one working
    directory (like results.md); afterwards the ``--trace`` example
    must have left a loadable Chrome-trace JSON behind."""

    def test_doc_has_commands_at_all(self):
        assert _doc_commands(OBSERVABILITY_DOC), (
            "observability.md lost its repro-roa commands"
        )

    def test_commands_run_in_sequence(self, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            part
            for part in (str(REPO / "src"), env.get("PYTHONPATH"))
            if part
        )
        for command, _ in _doc_commands(OBSERVABILITY_DOC):
            argv = shlex.split(command)
            assert argv[0] == "repro-roa"
            completed = subprocess.run(
                [sys.executable, "-m", "repro.cli", *argv[1:]],
                cwd=tmp_path,
                env=env,
                capture_output=True,
                text=True,
                timeout=300,
            )
            assert completed.returncode == 0, (
                f"{command!r} exited {completed.returncode}:\n"
                f"{completed.stderr}"
            )
            if "--progress" in argv:
                assert "progress:" in completed.stderr
        trace = tmp_path / "trace.json"
        assert trace.is_file(), "the --trace example wrote no trace file"
        document = json.loads(trace.read_text(encoding="utf-8"))
        assert isinstance(document["traceEvents"], list)
        assert document["traceEvents"], "trace file has no events"


class TestLintingDocExamples:
    """docs/linting.md commands run from the repo root (the linter
    examples point at ``src/repro``, which must stay clean)."""

    def test_doc_has_commands_at_all(self):
        assert _doc_commands(LINTING_DOC), (
            "linting.md lost its repro-roa commands"
        )

    def test_commands_exit_zero_from_repo_root(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            part
            for part in (str(REPO / "src"), env.get("PYTHONPATH"))
            if part
        )
        for command, _ in _doc_commands(LINTING_DOC):
            argv = shlex.split(command)
            assert argv[0] == "repro-roa"
            completed = subprocess.run(
                [sys.executable, "-m", "repro.cli", *argv[1:]],
                cwd=REPO,
                env=env,
                capture_output=True,
                text=True,
                timeout=300,
            )
            assert completed.returncode == 0, (
                f"{command!r} exited {completed.returncode}:\n"
                f"{completed.stdout}\n{completed.stderr}"
            )


class TestRobustnessDocExamples:
    """docs/robustness.md commands run in order in one working
    directory: the chaos drills must exit 0 (the byte-equivalence
    they demonstrate is pinned by tests/test_faults.py and CI)."""

    def test_doc_has_commands_at_all(self):
        assert _doc_commands(ROBUSTNESS_DOC), (
            "robustness.md lost its repro-roa commands"
        )

    def test_commands_run_in_sequence(self, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            part
            for part in (str(REPO / "src"), env.get("PYTHONPATH"))
            if part
        )
        for command, _ in _doc_commands(ROBUSTNESS_DOC):
            argv = shlex.split(command)
            assert argv[0] == "repro-roa"
            completed = subprocess.run(
                [sys.executable, "-m", "repro.cli", *argv[1:]],
                cwd=tmp_path,
                env=env,
                capture_output=True,
                text=True,
                timeout=300,
            )
            assert completed.returncode == 0, (
                f"{command!r} exited {completed.returncode}:\n"
                f"{completed.stderr}"
            )
            if "--emit-plan" in argv:
                plan = json.loads(completed.stdout)
                assert plan["rules"], "emitted fault plan has no rules"

    def test_shard_kill_worked_example(self, tmp_path):
        """The plan block is real wire format, and the block after it
        — serial run, sharded run under the plan, ``cmp`` — holds."""
        from repro.faults import PLAN_ENV, FaultPlan

        blocks = _fenced_blocks(ROBUSTNESS_DOC.read_text(encoding="utf-8"))
        at = next(
            index for index, (language, body) in enumerate(blocks[:-1])
            if language == "json" and PLAN_ENV in blocks[index + 1][1]
        )
        plan = FaultPlan.from_json(blocks[at][1])
        assert [rule.action for rule in plan.rules] == ["crash"]
        script = blocks[at + 1][1].replace("\\\n", " ")
        prefix = f'{PLAN_ENV}="$(cat plan.json)" '
        assert prefix in script and "cmp " in script
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            part
            for part in (str(REPO / "src"), env.get("PYTHONPATH"))
            if part
        )
        for line in script.strip().splitlines():
            faulted = line.startswith(prefix)
            argv = shlex.split(line[len(prefix):] if faulted else line)
            if argv[0] == "cmp":
                left, right = (tmp_path / name for name in argv[1:])
                assert left.read_bytes() == right.read_bytes()
                continue
            assert argv[0] == "repro-roa"
            completed = subprocess.run(
                [sys.executable, "-m", "repro.cli", *argv[1:]],
                cwd=tmp_path,
                env={**env, PLAN_ENV: plan.to_json()} if faulted else env,
                capture_output=True,
                text=True,
                timeout=300,
            )
            assert completed.returncode == 0, completed.stderr
        trace = (tmp_path / "sharded.trace.json").read_text()
        assert trace.count("exper.shard_retried") == 1
        assert "killed by signal 9" in trace

    def test_every_plan_block_decodes(self):
        """Every plan the page shows is one a reader can paste."""
        from repro.faults import FaultPlan

        plans = [
            body for language, body in _fenced_blocks(
                ROBUSTNESS_DOC.read_text(encoding="utf-8")
            )
            if language == "json" and '"rules"' in body
        ]
        assert len(plans) >= 2
        for body in plans:
            assert FaultPlan.from_json(body).rules


class TestPlatformDocExamples:
    """docs/platform.md commands form one job-queue session (submit,
    list, run, show, cancel, diff) sharing a working directory; the
    final diff must print the canonical comparison document."""

    def test_doc_has_commands_at_all(self):
        assert _doc_commands(PLATFORM_DOC), (
            "platform.md lost its repro-roa commands"
        )

    def test_commands_run_in_sequence(self, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            part
            for part in (str(REPO / "src"), env.get("PYTHONPATH"))
            if part
        )
        diff_output = None
        for command, _ in _doc_commands(PLATFORM_DOC):
            argv = shlex.split(command)
            assert argv[0] == "repro-roa"
            completed = subprocess.run(
                [sys.executable, "-m", "repro.cli", *argv[1:]],
                cwd=tmp_path,
                env=env,
                capture_output=True,
                text=True,
                timeout=300,
            )
            assert completed.returncode == 0, (
                f"{command!r} exited {completed.returncode}:\n"
                f"{completed.stderr}"
            )
            if argv[1:3] == ["jobs", "diff"]:
                diff_output = completed.stdout
        assert diff_output, "platform.md lost its jobs diff example"
        document = json.loads(diff_output)
        assert document["a"]["run"] == "job-000001"
        assert document["b"]["run"] == "job-000002"
        assert document["cells"], "diff document has no cells"


class TestServingDocExamples:
    """docs/serving.md's "Refreshing the table" example runs as
    written; its own asserts check the update → notify → reload
    sequence it describes."""

    def test_refresh_example_executes(self):
        text = SERVING_DOC.read_text(encoding="utf-8")
        _, heading, section = text.partition("## Refreshing the table\n")
        assert heading, "serving.md lost its refresh section"
        section = section.split("\n## ", 1)[0]
        examples = [body for language, body in _fenced_blocks(section)
                    if language == "python"]
        assert len(examples) == 1, "expected one python example"
        exec(compile(examples[0], str(SERVING_DOC), "exec"), {})


class TestDocsTree:
    def test_pages_exist(self):
        for name in (
            "architecture.md", "experiments.md", "serving.md",
            "results.md", "observability.md", "linting.md",
            "robustness.md", "platform.md",
        ):
            assert (DOCS / name).is_file(), f"docs/{name} missing"
        assert (REPO / "README.md").is_file()

    @pytest.mark.parametrize(
        "markdown", _markdown_files(), ids=lambda p: p.name
    )
    def test_relative_links_resolve(self, markdown):
        broken = []
        for target in _LINK.findall(markdown.read_text(encoding="utf-8")):
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            path = target.split("#", 1)[0]
            if not (markdown.parent / path).exists():
                broken.append(target)
        assert not broken, f"{markdown.name}: broken links {broken}"


class TestDocstringPolicy:
    """The docstring policy is enforced tree-wide by the DOC001 lint
    rule (docs/linting.md); this pins the delegation — it covers every
    package, not just the four this file historically spot-checked."""

    def test_doc001_holds_tree_wide(self):
        from repro.lint import lint_paths, render_text

        findings = lint_paths([REPO / "src" / "repro"], rules=["DOC001"])
        assert findings == [], "\n" + render_text(findings)
