"""Tests for the repro-roa command-line interface."""

from __future__ import annotations

import argparse

import pytest

from repro.cli import COMMANDS, build_parser, main
from repro.data import read_vrp_csv, write_origin_pairs, write_vrp_csv
from repro.netbase import Prefix
from repro.rpki import Vrp


def p(text: str) -> Prefix:
    return Prefix.parse(text)


@pytest.fixture()
def dataset(tmp_path):
    vrps = [
        Vrp(p("10.0.0.0/16"), 24, 1),
        Vrp(p("10.1.0.0/16"), 16, 1),
        Vrp(p("10.1.0.0/17"), 17, 1),
        Vrp(p("10.1.128.0/17"), 17, 1),
    ]
    announced = [
        (p("10.0.0.0/16"), 1),
        (p("10.0.5.0/24"), 1),
        (p("10.1.0.0/16"), 1),
    ]
    vrp_path = tmp_path / "vrps.csv"
    rib_path = tmp_path / "rib.txt"
    write_vrp_csv(vrps, vrp_path)
    write_origin_pairs(announced, rib_path)
    return vrp_path, rib_path


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_subcommands(self):
        parser = build_parser()
        for command in ["compress", "minimal", "analyze", "generate",
                        "table1", "figure3", "serve"]:
            assert parser.parse_args(
                [command] + {
                    "compress": ["x.csv"],
                    "minimal": ["x.csv", "y.txt"],
                    "analyze": ["x.csv", "y.txt"],
                    "generate": ["--out-dir", "/tmp/x"],
                    "table1": [],
                    "figure3": [],
                    "serve": ["x.csv"],
                }[command]
            ).command == command

    def test_version_is_the_package_literal(self, capsys):
        import subprocess
        import sys
        from pathlib import Path

        import repro

        with pytest.raises(SystemExit) as exit_info:
            main(["--version"])
        assert exit_info.value.code == 0
        assert capsys.readouterr().out == f"repro-roa {repro.__version__}\n"
        # setup.py reads the same literal (with a regex, no import).
        pytest.importorskip("setuptools")
        completed = subprocess.run(
            [sys.executable, "setup.py", "--version"],
            cwd=Path(__file__).resolve().parent.parent,
            capture_output=True, text=True, timeout=60,
        )
        assert completed.returncode == 0, completed.stderr
        assert completed.stdout.split()[-1] == repro.__version__

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve", "x.csv"])
        assert args.rtr_port == 8282
        assert args.http_port == 8080
        assert not args.compress

    def test_serve_names_one_store(self, tmp_path, capsys):
        """``--results`` and ``--jobs`` each name the served store."""
        assert main([
            "serve", str(tmp_path / "vrps.csv"), "--results",
            str(tmp_path / "runs"), "--jobs", "--jobs-store",
            str(tmp_path / "platform"),
        ]) == 2
        assert "pass one" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_experiment_defaults(self):
        args = build_parser().parse_args(["experiment"])
        assert args.command == "experiment"
        # None means "the spec decides" (serial unless a --spec file
        # names another executor).
        assert args.executor is None
        assert args.fractions == "all"
        assert args.trials == 20
        assert args.shards is None
        assert args.shard_hosts is None
        assert args.shard_retries == 2

    def test_shard_worker_parses(self):
        args = build_parser().parse_args([
            "shard-worker", "--spec", "spec.json", "--shard", "1",
            "--shards", "4", "--out", "shard1.jsonl",
        ])
        assert args.command == "shard-worker"
        assert (args.shard, args.shards) == (1, 4)
        assert not args.listen
        listen = build_parser().parse_args(["shard-worker", "--listen"])
        assert listen.listen and listen.port == 0


def _subcommands(parser: argparse.ArgumentParser) -> dict:
    """``parser``'s subcommand parsers by name (empty if it has none)."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action.choices
    return {}


def _help_argvs() -> list:
    """``[]``, every command, and every command's subcommands."""
    argvs = [[]]
    for name, command in _subcommands(build_parser()).items():
        argvs.append([name])
        argvs.extend([name, sub] for sub in _subcommands(command))
    return argvs


class TestDispatcher:
    """One declaration per command: ``main`` builds only the invoked
    command's parser, from the same table and module ``build_parser``
    assembles in full."""

    def test_table_and_full_parser_name_the_same_commands(self):
        assert list(_subcommands(build_parser())) == [
            name for name, _, _ in COMMANDS
        ]

    @pytest.mark.parametrize(
        "argv", _help_argvs(), ids=lambda argv: " ".join(argv) or "top",
    )
    def test_help_matches_the_full_parser(self, argv, capsys):
        def help_of(parse) -> str:
            with pytest.raises(SystemExit) as exit_info:
                parse([*argv, "--help"])
            assert exit_info.value.code == 0
            return capsys.readouterr().out

        assert help_of(main) == help_of(build_parser().parse_args)

    def test_unknown_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["figure3", "--no-such-flag"])
        assert exit_info.value.code == 2
        assert "--no-such-flag" in capsys.readouterr().err


class TestCompressCommand:
    def test_compress_to_file(self, dataset, tmp_path, capsys):
        vrp_path, _ = dataset
        out = tmp_path / "out.csv"
        assert main(["compress", str(vrp_path), "-o", str(out)]) == 0
        compressed = list(read_vrp_csv(out))
        # the /16 + two /17 pyramid merges; the loose /16-24 is untouched
        assert Vrp(p("10.1.0.0/16"), 17, 1) in compressed
        assert len(compressed) == 2
        assert "compress_roas" in capsys.readouterr().err

    def test_compress_to_stdout(self, dataset, capsys):
        vrp_path, _ = dataset
        assert main(["compress", str(vrp_path)]) == 0
        assert "IP Prefix" in capsys.readouterr().out


class TestMinimalCommand:
    def test_minimal_conversion(self, dataset, tmp_path):
        vrp_path, rib_path = dataset
        out = tmp_path / "minimal.csv"
        assert main(["minimal", str(vrp_path), str(rib_path), "-o", str(out)]) == 0
        minimal = list(read_vrp_csv(out))
        assert all(not v.uses_max_length for v in minimal)
        assert Vrp(p("10.0.5.0/24"), 24, 1) in minimal


class TestAnalyzeCommand:
    def test_prints_section6_numbers(self, dataset, capsys):
        vrp_path, rib_path = dataset
        assert main(["analyze", str(vrp_path), str(rib_path)]) == 0
        out = capsys.readouterr().out
        assert "maxLength" in out
        assert "vulnerable" in out


class TestGenerateAndTable1:
    def test_generate_writes_both_files(self, tmp_path, capsys):
        out_dir = tmp_path / "snap"
        assert main(["generate", "--scale", "0.002", "--out-dir", str(out_dir)]) == 0
        assert (out_dir / "vrps.csv").exists()
        assert (out_dir / "rib.txt").exists()

    def test_table1_from_files(self, tmp_path, capsys):
        out_dir = tmp_path / "snap"
        main(["generate", "--scale", "0.002", "--out-dir", str(out_dir)])
        capsys.readouterr()
        assert main([
            "table1",
            "--vrps", str(out_dir / "vrps.csv"),
            "--rib", str(out_dir / "rib.txt"),
        ]) == 0
        out = capsys.readouterr().out
        assert "Today (compressed)" in out
        assert "lower bound" in out

    def test_table1_requires_rib_with_vrps(self, dataset, capsys):
        vrp_path, _ = dataset
        assert main(["table1", "--vrps", str(vrp_path)]) == 2

    def test_table1_requires_vrps_with_rib(self, dataset, capsys):
        """``--rib`` alone is a usage error, never the synthetic table."""
        _, rib_path = dataset
        assert main([
            "table1", "--rib", str(rib_path), "--scale", "0.002",
        ]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--vrps is required with --rib" in captured.err

    def test_table1_synthetic(self, capsys):
        assert main(["table1", "--scale", "0.002"]) == 0
        assert "Full deployment" in capsys.readouterr().out


class TestPaperPipelineGolden:
    """``analyze``, ``compress`` and ``table1`` on one generated
    snapshot, byte for byte.

    The digests were recorded at commit cea691c, before Algorithm 1
    became a sweep and the indexes a bulk build; the ledger's own
    ``c.csv`` check compares against ``compress_vrps`` of the same
    tree, so only a pin from outside can see the output move.
    """

    GOLDEN = {
        "analyze": "8ab17ab9c71ff6eef29f694d2ce04cc3"
                   "e0a092dfdd037dcc09862990d2d2d55a",
        "c.csv": "bca4ed4f4bdc9c308d4c7472df64dac0"
                 "56e052760eeddfe8cd37f3362ce53fa4",
        "table1": "d9bf40b004e0289cfc3b66a21d45414a"
                  "3707adbff7ac00f2cf10517ebc9e4abf",
    }

    def test_outputs_match_the_recorded_digests(self, tmp_path, capsys):
        from hashlib import sha256

        snap = tmp_path / "snap"
        assert main(["generate", "--scale", "0.01", "--seed", "2017",
                     "--out-dir", str(snap)]) == 0
        vrps, rib = str(snap / "vrps.csv"), str(snap / "rib.txt")
        capsys.readouterr()
        digests = {}
        assert main(["analyze", vrps, rib]) == 0
        digests["analyze"] = sha256(capsys.readouterr().out.encode())
        compressed = tmp_path / "c.csv"
        assert main(["compress", vrps, "-o", str(compressed)]) == 0
        digests["c.csv"] = sha256(compressed.read_bytes())
        capsys.readouterr()
        assert main(["table1", "--vrps", vrps, "--rib", rib]) == 0
        digests["table1"] = sha256(capsys.readouterr().out.encode())
        assert {name: digest.hexdigest()
                for name, digest in digests.items()} == self.GOLDEN


class TestExperimentCommand:
    SMALL = ["experiment", "--ases", "80", "--trials", "2",
             "--topology-seed", "4"]

    def test_grid_from_flags(self, capsys):
        assert main(self.SMALL + [
            "--kinds", "forged-origin-subprefix",
            "--policies", "minimal,maxlength-loose",
            "--fractions", "0,1",
        ]) == 0
        captured = capsys.readouterr()
        assert "forged-origin-subprefix/minimal" in captured.out
        assert "bootstrap CI" in captured.out
        assert "2 cells" in captured.err

    def test_json_output(self, capsys):
        import json

        assert main(self.SMALL + [
            "--kinds", "subprefix-hijack", "--policies", "none", "--json",
        ]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["trials_per_cell"] == 2
        assert data["cells"][0]["cell"] == "subprefix-hijack/none"
        assert data["cells"][0]["mean"] == 1.0

    def test_emit_spec_round_trips(self, tmp_path, capsys):
        assert main(self.SMALL + ["--emit-spec"]) == 0
        spec_text = capsys.readouterr().out
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(spec_text, encoding="utf-8")
        assert main(self.SMALL + ["--spec", str(spec_path)]) == 0
        assert "forged-origin/minimal" in capsys.readouterr().out

    def test_stop_flags_imply_ci_stopping(self, capsys):
        import json

        assert main(self.SMALL + [
            "--stop-ci-width", "0.1", "--emit-spec",
        ]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["stopping"] == "ci"
        assert data["stop_ci_width"] == 0.1
        # An explicit --stopping none wins over the implication.
        assert main(self.SMALL + [
            "--stop-ci-width", "0.1", "--stopping", "none", "--emit-spec",
        ]) == 0
        assert json.loads(capsys.readouterr().out)["stopping"] == "none"

    def test_bad_policy_rejected(self, capsys):
        assert main(self.SMALL + ["--policies", "maximal"]) == 2
        assert "bad experiment spec" in capsys.readouterr().err

    def test_bad_kind_rejected(self, capsys):
        assert main(self.SMALL + ["--kinds", "route-leak"]) == 2
        assert "bad experiment spec" in capsys.readouterr().err

    def test_bad_fraction_rejected(self, capsys):
        assert main(self.SMALL + ["--fractions", "0,abc"]) == 2
        assert "bad experiment spec" in capsys.readouterr().err

    def test_missing_spec_file_rejected(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        assert main(["experiment", "--spec", str(missing)]) == 2
        assert "bad experiment spec" in capsys.readouterr().err
