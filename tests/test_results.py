"""repro.results: durable, streaming, resumable run records.

The contracts pinned here:

* the TrialRecord wire schema is versioned and strict — unknown,
  missing, or wrong-schema fields raise instead of silently dropping;
* a JsonlSink survives being killed mid-write: a truncated or corrupt
  tail line is recovered, corruption anywhere else refuses loudly;
* an interrupted-then-resumed run is byte-identical to an
  uninterrupted one — aggregates, trial counts and file bytes — under
  serial and sharded executors, and early stopping;
* merge_runs unions shard-partial runs of one spec into the same
  result a single machine would have produced;
* the serve tier answers /experiments with live per-cell stats while
  a run is still streaming records.
"""

from __future__ import annotations

import asyncio
import errno
import json
import os
import random
import statistics

import pytest

from repro.data import TopologyProfile, generate_topology
from repro.exper import (
    RECORD_RULE,
    AttackConfig,
    ExperimentRunner,
    ExperimentSpec,
    MaxLengthLooseRoa,
    MinimalRoa,
    NoRoa,
    ScenarioCell,
    TrialRecord,
)
from repro.netbase import Prefix
from repro.netbase.errors import ReproError
from repro.results import (
    GridAccumulator,
    JsonlSink,
    MemorySink,
    ResultsStore,
    RunHeader,
    RunRegistry,
    SinkWriteError,
    TeeSink,
    merge_runs,
    read_run,
    run_result,
)
from repro.rpki import Vrp
from repro.serve import QueryHttpServer, QueryService, ServeMetrics


@pytest.fixture(scope="module")
def topology():
    return generate_topology(TopologyProfile(ases=150), random.Random(9))


def small_spec(**kwargs) -> ExperimentSpec:
    defaults = dict(
        cells=(
            ScenarioCell("forged-origin-subprefix", MinimalRoa()),
            ScenarioCell("forged-origin-subprefix", MaxLengthLooseRoa()),
        ),
        trials=6,
        seed=4,
        fractions=(None, 0.5),
    )
    defaults.update(kwargs)
    return ExperimentSpec(**defaults)


def record_lines(path) -> list[bytes]:
    """The run file's lines (header first), newline-terminated."""
    return path.read_bytes().splitlines(keepends=True)


def run_full(topology, spec, path):
    """An uninterrupted recorded run; returns (result, file lines)."""
    sink = JsonlSink(path)
    result = ExperimentRunner(topology, spec, sink=sink).run()
    sink.close()
    return result, record_lines(path)


# ----------------------------------------------------------------------
# The versioned wire schema
# ----------------------------------------------------------------------


def sample_record(**overrides) -> TrialRecord:
    data = dict(
        fraction_index=0, trial_index=3, cell_index=1, fraction=0.5,
        cell="forged-origin-subprefix/minimal", victim=111,
        attackers=(666,), attacker_fraction=0.25, victim_fraction=0.5,
        disconnected_fraction=0.25, attack_route_filtered=False,
    )
    data.update(overrides)
    return TrialRecord(**data)


class TestRecordWireSchema:
    def test_round_trip(self):
        record = sample_record()
        wire = record.to_json_dict()
        assert wire["schema"] == 1
        assert TrialRecord.from_json_dict(wire) == record
        # ...and through actual JSON text.
        assert TrialRecord.from_json_dict(
            json.loads(json.dumps(wire))
        ) == record

    def test_universal_fraction_round_trips(self):
        record = sample_record(fraction=None, fraction_index=0)
        assert TrialRecord.from_json_dict(record.to_json_dict()) == record

    def test_missing_field_rejected(self):
        wire = sample_record().to_json_dict()
        del wire["victim"]
        with pytest.raises(ReproError, match="missing fields.*victim"):
            TrialRecord.from_json_dict(wire)

    def test_unknown_field_rejected(self):
        wire = sample_record().to_json_dict()
        wire["surprise"] = 1
        with pytest.raises(ReproError, match="unknown fields.*surprise"):
            TrialRecord.from_json_dict(wire)

    def test_wrong_schema_rejected(self):
        wire = sample_record().to_json_dict()
        wire["schema"] = 2
        with pytest.raises(ReproError, match="schema 2"):
            TrialRecord.from_json_dict(wire)
        del wire["schema"]
        with pytest.raises(ReproError, match="schema None"):
            TrialRecord.from_json_dict(wire)

    def test_non_object_rejected(self):
        with pytest.raises(ReproError, match="must be an object"):
            TrialRecord.from_json_dict([1, 2])

    @pytest.mark.parametrize(
        "field,value",
        [
            ("victim", "not-a-number"),
            ("victim", True),
            ("trial_index", 3.5),
            ("attackers", "12"),  # a string must not iterate to (1, 2)
            ("attackers", [1, "2"]),
            ("attack_route_filtered", "false"),  # bool("false") is True
            ("attacker_fraction", "0.5"),
            ("fraction", "0.5"),
            ("cell", 7),
            # json reads these tokens; no writer of ours emits them.
            ("attacker_fraction", float("nan")),
            ("victim_fraction", float("inf")),
            ("disconnected_fraction", float("-inf")),
            ("fraction", float("nan")),
            # Shares of ASes lie in [0, 1], grid indices count from 0.
            ("attacker_fraction", 3.0),
            ("victim_fraction", -2.0),
            pytest.param(  # float() would raise OverflowError
                "disconnected_fraction", 10 ** 400, id="huge-int",
            ),
            ("fraction", 1.5),
            ("fraction", -0.25),
            ("fraction_index", -1),
            ("trial_index", -1),
            ("cell_index", -1),
        ],
    )
    def test_bad_value_rejected(self, field, value):
        wire = sample_record().to_json_dict()
        wire[field] = value
        with pytest.raises(ReproError, match="bad trial record value"):
            TrialRecord.from_json_dict(wire)

    def test_range_ends_accepted(self):
        record = sample_record(
            fraction=1, fraction_index=0, trial_index=0, cell_index=0,
            attacker_fraction=0, victim_fraction=1.0,
            disconnected_fraction=0.0,
        )
        assert TrialRecord.from_json_dict(record.to_json_dict()) == record


_WIRE = RunHeader.for_spec(small_spec()).to_json_dict()


class TestRunHeader:
    def test_round_trip_and_spec_reconstruction(self):
        spec = small_spec()
        header = RunHeader.for_spec(spec)
        again = RunHeader.from_json_dict(header.to_json_dict())
        assert again == header
        assert again.experiment_spec() == spec
        assert again.spec_hash == spec.spec_hash()
        assert (again.seed, again.rule) == (spec.seed, RECORD_RULE)

    def test_wrong_kind_rejected(self):
        with pytest.raises(ReproError, match="not a repro.results/run"):
            RunHeader.from_json_dict({"kind": "something-else"})

    def test_spec_hash_tracks_spec_changes(self):
        a, b = small_spec(), small_spec(seed=5)
        assert a.spec_hash() != b.spec_hash()
        assert a.spec_hash() == small_spec().spec_hash()

    @pytest.mark.parametrize("fields,match", [
        pytest.param({"seed": 7}, r"unknown keys \['seed'\]", id="seed-key"),
        pytest.param(
            {"seed": 99, "spec": {**_WIRE["spec"], "seed": 7}},
            r"unknown keys \['seed'\]", id="seed-over-other-spec",
        ),
        pytest.param(
            {"surprise": True}, r"unknown keys \['surprise'\]", id="unknown",
        ),
        pytest.param({"spec_hash": 123}, "spec_hash=", id="hash-int"),
        pytest.param(
            {"spec": [list(pair) for pair in _WIRE["spec"].items()]},
            "spec=", id="spec-pairs",
        ),
        pytest.param({"topology_hash": 5}, "topology_hash=", id="topo-int"),
        pytest.param({"rule": True}, "rule=", id="rule-bool"),
        pytest.param({"rule": 1.0}, "rule=", id="rule-float"),
        pytest.param({"rule": "1"}, "rule=", id="rule-string"),
        pytest.param({"rule": None}, "rule=", id="rule-null"),
        pytest.param(
            {"spec": {**_WIRE["spec"], "seed": 7}},
            "is not the hash of its spec", id="hash-of-other-spec",
        ),
        pytest.param(
            {"spec": {**_WIRE["spec"], "engine": "quantum"}},
            "retired spec key 'engine'", id="spec-undecodable",
        ),
        pytest.param({"schema": 3}, "schema 3", id="schema-3"),
        pytest.param({"schema": "2"}, "schema '2'", id="schema-string"),
        pytest.param({"schema": True}, "schema True", id="schema-bool"),
    ])
    def test_inexact_header_rejected(self, fields, match):
        """The header decoder is as strict as the record and spec
        decoders: exact JSON types, the schema's own keys, and a hash
        that is its spec's."""
        with pytest.raises(ReproError, match=match):
            RunHeader.from_json_dict({**_WIRE, **fields})

    @pytest.mark.parametrize("key", ["rule", "spec_hash", "topology_hash"])
    def test_missing_key_rejected(self, key):
        wire = dict(_WIRE)
        del wire[key]
        with pytest.raises(ReproError, match=f"missing keys \\['{key}'\\]"):
            RunHeader.from_json_dict(wire)

    def test_schema_one_reads_with_unknown_rule(self):
        """A header written before the rule was recorded keeps the hash
        it stored (taken over spec keys that have since left), reads
        its seed from its spec, and knows no rule."""
        wire = {
            **{k: v for k, v in _WIRE.items() if k != "rule"},
            "schema": 1, "spec_hash": "0" * 32, "seed": 4,
            "engine": "array",
            "spec": {**_WIRE["spec"], "engine": "array",
                     "seeding": "derived"},
        }
        header = RunHeader.from_json_dict(wire)
        assert (header.rule, header.spec_hash) == (None, "0" * 32)
        assert header.experiment_spec() == small_spec()
        assert header.seed == 4
        with pytest.raises(ReproError, match="seed="):
            RunHeader.from_json_dict({**wire, "seed": 7.9})
        with pytest.raises(ReproError, match=r"unknown keys \['rule'\]"):
            RunHeader.from_json_dict({**wire, "rule": 1})


class TestRecordRule:
    """:data:`RECORD_RULE` pins record bytes, not headers.

    One small fixed grid — 60 synthetic ASes, fraction 0.5, every kind
    of cell a propagation or sampling change can move: subprefix,
    same-prefix, two attackers, a prepended path — and the sha256 of its
    record lines (the run file past the header) under the rule.  A
    change that moves a record fails here until it bumps the rule and
    pins the new digest; a bump without a new pin fails too.  The
    rule-1 digest was taken before the rule existed, so it is the
    records of every run since the order-free tie-break.
    """

    _PINNED = {
        1: "46b41daeea42971142edb6b8bb5448a74ccb12c465da8c01da08398bd145cade",
    }

    def test_records_of_the_pinned_grid(self, tmp_path):
        import hashlib

        spec = ExperimentSpec(
            cells=(
                ScenarioCell("subprefix-hijack", MinimalRoa()),
                ScenarioCell("forged-origin-subprefix", MaxLengthLooseRoa()),
                ScenarioCell("prefix-hijack", NoRoa()),
                ScenarioCell("forged-origin", MinimalRoa()),
                ScenarioCell(
                    AttackConfig("forged-origin", attackers=2),
                    MaxLengthLooseRoa(),
                ),
                ScenarioCell(AttackConfig("prefix-hijack", prepend=2), NoRoa()),
            ),
            trials=8,
            seed=31,
            fractions=(0.5,),
        )
        world = generate_topology(TopologyProfile(ases=60), random.Random(31))
        path = tmp_path / "run.jsonl"
        run_full(world, spec, path)
        header, records = path.read_bytes().split(b"\n", 1)
        assert json.loads(header)["rule"] == RECORD_RULE
        assert records.count(b"\n") == 8 * 6
        assert {
            RECORD_RULE: hashlib.sha256(records).hexdigest()
        } == self._PINNED


class TestSchemaOneRuns:
    """Run files written before the header recorded the measurement
    rule (header schema 1).

    Each fixture is today's run of ``repro-roa experiment`` with
    ``_ARGS`` and ``--sink``, its header written back in the schema-1
    form (``tests/legacy_runs.py``) under one of the specs a schema-1
    file can hold: ``"engine": "array"`` (the default then),
    ``"object"`` (the retired reference engine) or ``"seeding":
    "stream"`` (the retired shared stream), each hashed as it was
    then.  The first two digests are of files that command wrote, so
    the records past the header are the ones it wrote.  Such a file
    still shows; it never resumes or merges, since its rule is unknown.
    """

    _ARGS = ["--trials", "3", "--ases", "60", "--fractions", "0,1"]
    #: (engine, seeding, the spec's hash then, the file's sha256).
    _LEGACY = {
        "array": (
            "array", "derived", "3d172f659b927f7115131998fab3b850",
            "a14921bfa7f5d39f7491bd7a50692d8a"
            "e2f838fc062243a345d52656b1fe6bb6",
        ),
        "object": (
            "object", "derived", "a6fbf47c77becac0d5bcf73a00449dc5",
            "90f3fd897eb000ad0c77d1339ed92a37"
            "7994dec9217a6f3eab0197d661e3e996",
        ),
        "stream": (
            "array", "stream", "ca7559ab548638a614765b223fb5fe40", None,
        ),
    }
    _REFUSED = (
        "holds records of measurement rule unknown (a schema-1 header), "
        f"not rule {RECORD_RULE}"
    )

    @pytest.fixture(params=sorted(_LEGACY))
    def runs(self, request, tmp_path, capsys):
        """(today's run file, the same run at header schema 1, the
        spec hash its header holds)."""
        import hashlib

        from legacy_runs import schema_one
        from repro.cli import main

        engine, seeding, spec_hash, digest = self._LEGACY[request.param]
        today = tmp_path / "today.jsonl"
        assert main(["experiment", *self._ARGS, "--sink", str(today)]) == 0
        legacy = tmp_path / "legacy.jsonl"
        legacy.write_bytes(
            schema_one(today.read_bytes(), spec_hash, engine, seeding)
        )
        if digest is not None:
            assert hashlib.sha256(legacy.read_bytes()).hexdigest() == digest
        capsys.readouterr()
        return today, legacy, spec_hash

    def test_shows_the_same_result(self, runs, capsys):
        from repro.cli import main

        today, legacy, spec_hash = runs
        assert main(["results", "show", str(legacy), "--json"]) == 0
        shown, err = capsys.readouterr()
        assert f"spec hash {spec_hash}" in err
        assert "rule unknown" in err
        assert main(["results", "show", str(today), "--json"]) == 0
        assert capsys.readouterr().out == shown

    def test_resume_refused_file_untouched(self, runs, capsys):
        from repro.cli import main

        _, legacy, _ = runs
        before = legacy.read_bytes()
        assert main(["experiment", *self._ARGS, "--sink", str(legacy),
                     "--resume"]) == 1
        assert self._REFUSED in capsys.readouterr().err
        assert legacy.read_bytes() == before

    def test_merge_refused_files_untouched(self, runs, tmp_path, capsys):
        from repro.cli import main

        today, legacy, _ = runs
        before = today.read_bytes(), legacy.read_bytes()
        out = tmp_path / "merged.jsonl"
        for inputs in ([today, legacy], [legacy, today], [legacy]):
            assert main(["results", "merge", str(out),
                         *map(str, inputs)]) == 1
            err = capsys.readouterr().err
            assert "measurement rule unknown (a schema-1 header)" in err
            if inputs[0] == today:
                assert self._REFUSED in err
        assert not out.exists()
        assert (today.read_bytes(), legacy.read_bytes()) == before


class TestRuleMismatch:
    """Records of two measurement rules never mix: resume and merge
    refuse, naming both rules, and touch no file.  The other rule's
    file is today's with its header's rule rewritten (the rule is not
    part of the spec hash)."""

    _ARGS = TestSchemaOneRuns._ARGS

    @pytest.fixture
    def runs(self, tmp_path, capsys):
        from repro.cli import main

        today = tmp_path / "today.jsonl"
        assert main(["experiment", *self._ARGS, "--sink", str(today)]) == 0
        header, rest = today.read_bytes().split(b"\n", 1)
        rule = f'"rule":{RECORD_RULE}'.encode()
        assert header.count(rule) == 1
        other = tmp_path / "other.jsonl"
        other.write_bytes(
            header.replace(rule, f'"rule":{RECORD_RULE + 1}'.encode())
            + b"\n" + rest
        )
        capsys.readouterr()
        return today, other

    def test_resume_refused(self, runs, capsys):
        from repro.cli import main

        _, other = runs
        before = other.read_bytes()
        assert main(["experiment", *self._ARGS, "--sink", str(other),
                     "--resume"]) == 1
        assert (
            f"holds records of measurement rule {RECORD_RULE + 1}, "
            f"not rule {RECORD_RULE}"
        ) in capsys.readouterr().err
        assert other.read_bytes() == before

    def test_merge_refused(self, runs, tmp_path, capsys):
        from repro.cli import main

        today, other = runs
        out = tmp_path / "merged.jsonl"
        assert main(["results", "merge", str(out), str(today),
                     str(other)]) == 1
        assert (
            f"holds records of measurement rule {RECORD_RULE + 1}, "
            f"not rule {RECORD_RULE}"
        ) in capsys.readouterr().err
        assert not out.exists()
        # Two files of one (other) rule are one run: they merge.
        assert main(["results", "merge", str(out), str(other),
                     str(other)]) == 0
        assert out.read_bytes() == other.read_bytes()


# ----------------------------------------------------------------------
# JSONL durability edges
# ----------------------------------------------------------------------


class TestJsonlDurability:
    def test_round_trip(self, topology, tmp_path):
        spec = small_spec()
        path = tmp_path / "run.jsonl"
        result, lines = run_full(topology, spec, path)
        header, records = read_run(path)
        assert header == RunHeader.for_spec(spec, topology)
        assert header.topology_hash is not None
        assert len(records) == spec.total_trials * len(spec.cells)
        assert len(lines) == 1 + len(records)
        # Sorted, deduplicated, fully typed records.
        assert records == sorted(records, key=lambda r: r.sort_key)

    def test_truncated_tail_recovered(self, topology, tmp_path):
        path = tmp_path / "run.jsonl"
        _, lines = run_full(topology, small_spec(), path)
        path.write_bytes(b"".join(lines[:5]) + lines[5][:11])
        header, records = read_run(path)
        assert header is not None
        assert len(records) == 4

    def test_corrupt_terminated_tail_recovered(self, topology, tmp_path):
        path = tmp_path / "run.jsonl"
        _, lines = run_full(topology, small_spec(), path)
        path.write_bytes(b"".join(lines[:5]) + b'{"schema": 1, garbage\n')
        _, records = read_run(path)
        assert len(records) == 4

    def test_corrupt_line_before_a_torn_tail_is_interior(
        self, topology, tmp_path
    ):
        # Something was written after the corrupt line, so it is not
        # the line a crash tore: same rule as any interior corruption.
        path = tmp_path / "run.jsonl"
        _, lines = run_full(topology, small_spec(), path)
        path.write_bytes(
            b"".join(lines[:5]) + b'{"schema": 1, garbage\n' + lines[5][:11]
        )
        with pytest.raises(ReproError, match="corrupt trial record"):
            read_run(path)

    def test_corrupt_interior_rejected(self, topology, tmp_path):
        path = tmp_path / "run.jsonl"
        _, lines = run_full(topology, small_spec(), path)
        lines[3] = b"not json at all\n"
        path.write_bytes(b"".join(lines))
        with pytest.raises(ReproError, match="corrupt trial record"):
            read_run(path)

    def test_interior_schema_violation_rejected(self, topology, tmp_path):
        path = tmp_path / "run.jsonl"
        _, lines = run_full(topology, small_spec(), path)
        doctored = json.loads(lines[3])
        doctored["surprise"] = True
        lines[3] = json.dumps(doctored).encode() + b"\n"
        path.write_bytes(b"".join(lines))
        with pytest.raises(ReproError, match="unknown fields"):
            read_run(path)

    @pytest.mark.parametrize("values", [
        {"attacker_fraction": float("nan")},
        {"attacker_fraction": 3.0, "victim_fraction": -2.0},
    ], ids=["nan", "out-of-range"])
    def test_results_show_rejects_unwritable_values(
        self, topology, tmp_path, capsys, values
    ):
        """A record no writer can produce is refused with the CLI's
        one-line error — NaN used to die inside ``statistics`` with an
        AttributeError, 3.0/-2.0 to be averaged into the cell mean.  As
        the file's last line it is a corrupt tail like any other: cut,
        and the run's complete trials are shown."""
        from repro.cli import main

        path = tmp_path / "run.jsonl"
        _, lines = run_full(topology, small_spec(), path)
        for index in (3, len(lines) - 1):
            doctored = list(lines)
            doctored[index] = json.dumps(
                {**json.loads(lines[index]), **values}
            ).encode() + b"\n"
            path.write_bytes(b"".join(doctored))
            code = main(["results", "show", str(path)])
            out, err = capsys.readouterr()
            if index == 3:
                assert code == 1 and not out
                assert err.startswith("results show failed: bad trial record")
                assert err.count("\n") == 1
            else:
                assert code == 0 and "past the completed prefix" in err

    def test_partial_header_is_empty_run(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_bytes(b'{"kind": "repro.results/run", "sch')
        assert JsonlSink(path).resume_scan() == (None, [])
        with pytest.raises(ReproError, match="no header"):
            read_run(path)

    def test_non_run_file_rejected(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text('{"hello": "world"}\n')
        with pytest.raises(ReproError, match="not a repro.results/run"):
            read_run(path)

    def test_identical_duplicates_deduplicated(self, topology, tmp_path):
        path = tmp_path / "run.jsonl"
        _, lines = run_full(topology, small_spec(), path)
        path.write_bytes(b"".join(lines) + lines[1])
        _, records = read_run(path)
        assert len(records) == len(lines) - 1

    def test_conflicting_duplicate_rejected(self, topology, tmp_path):
        path = tmp_path / "run.jsonl"
        _, lines = run_full(topology, small_spec(), path)
        doctored = json.loads(lines[1])
        doctored["attacker_fraction"] = 0.123456
        path.write_bytes(
            b"".join(lines) + json.dumps(doctored).encode() + b"\n"
        )
        with pytest.raises(ReproError, match="conflicting records"):
            read_run(path)

    def test_begin_rejects_other_specs_file(self, topology, tmp_path):
        path = tmp_path / "run.jsonl"
        run_full(topology, small_spec(), path)
        sink = JsonlSink(path)
        other = small_spec(seed=99)
        with pytest.raises(ReproError, match="spec hash"):
            sink.begin(RunHeader.for_spec(other))
        with pytest.raises(
            ReproError,
            match=f"resume source holds records for spec hash "
                  f"{small_spec().spec_hash()}, not {other.spec_hash()}",
        ):
            ExperimentRunner(
                topology, other, resume_from=JsonlSink(path)
            ).run()


class ExplodingFile:
    """A file proxy that tears one write in half, then raises EIO."""

    def __init__(self, fh, fail_on: int) -> None:
        self._fh = fh
        self._fail_on = fail_on
        self._writes = 0

    def write(self, data: bytes) -> int:
        self._writes += 1
        if self._writes == self._fail_on:
            self._fh.write(data[: len(data) // 2])  # torn mid-line
            self._fh.flush()
            raise OSError(errno.EIO, "injected: device error")
        return self._fh.write(data)

    def __getattr__(self, name):
        return getattr(self._fh, name)


class TestSinkWriteFailure:
    """A failed write degrades fail-safe and never corrupts the prefix."""

    def test_torn_write_degrades_then_resumes(self, topology, tmp_path):
        spec = small_spec(trials=3, fractions=(None,))
        clean = tmp_path / "clean.jsonl"
        run_full(topology, spec, clean)
        header, records = read_run(clean)

        path = tmp_path / "run.jsonl"
        sink = JsonlSink(path)
        sink.begin(header)
        sink._fh = ExplodingFile(sink._fh, fail_on=3)
        with pytest.raises(SinkWriteError) as caught:
            for record in records:
                sink.write(record)
        assert caught.value.errno == errno.EIO
        assert caught.value.path == path
        assert sink.dirty
        with pytest.raises(ReproError, match="dirty"):
            sink.write(records[0])

        # The torn tail line is recovered; the prefix is intact.
        got_header, got = read_run(path)
        assert got_header == header
        assert len(got) == 2
        assert got == records[:2]

        # A fresh sink resumes the run to byte-identical output
        # (begin() truncates the torn tail before appending).
        resumed = JsonlSink(path)
        _, existing = resumed.resume_scan()
        resumed.begin(header)
        for record in records[len(existing):]:
            resumed.write(record)
        resumed.finish(())
        resumed.close()
        assert path.read_bytes() == clean.read_bytes()

    def test_close_failure_during_degrade_is_swallowed(
        self, topology, tmp_path
    ):
        """A sick filesystem failing the close too still degrades."""
        spec = small_spec(trials=2, fractions=(None,))
        clean = tmp_path / "clean.jsonl"
        run_full(topology, spec, clean)
        header, records = read_run(clean)

        class SickFile(ExplodingFile):
            def close(self) -> None:
                raise OSError(errno.EIO, "close failed too")

        path = tmp_path / "run.jsonl"
        sink = JsonlSink(path)
        sink.begin(header)
        sink._fh = SickFile(sink._fh, fail_on=1)
        with pytest.raises(SinkWriteError):
            sink.write(records[0])
        assert sink.dirty
        assert sink._fh is None


# ----------------------------------------------------------------------
# Resume
# ----------------------------------------------------------------------


def interrupt(path, lines, keep, partial_tail=True):
    """Rewrite the run file as a killed writer would have left it."""
    data = b"".join(lines[:keep])
    if partial_tail and keep < len(lines):
        data += lines[keep][: len(lines[keep]) // 2]
    path.write_bytes(data)


class TestResume:
    @pytest.mark.parametrize("executor", ["serial", "sharded"])
    def test_interrupted_run_resumes_byte_identical(
        self, topology, tmp_path, executor
    ):
        spec = small_spec()
        full_path = tmp_path / "full.jsonl"
        full, lines = run_full(topology, spec, full_path)

        part = tmp_path / "part.jsonl"
        interrupt(part, lines, keep=8)
        sink = JsonlSink(part)
        resumed = ExperimentRunner(
            topology, spec, executor=executor, workers=2,
            sink=sink, resume_from=sink,
        ).run()
        sink.close()
        assert resumed == full
        assert read_run(part) == read_run(full_path)
        # The file itself, not just its deduplicated reading: the
        # half-recorded trial 3 was cut before it was re-recorded, and
        # every executor streams in grid order.
        assert part.read_bytes() == full_path.read_bytes()

    @pytest.mark.parametrize("variant", [
        dict(),
        dict(trials=12, fractions=(None,), stopping="ci",
             stop_ci_width=0.5, stop_min_trials=4, stop_check_every=2),
    ], ids=["derived", "ci"])
    def test_resume_from_any_byte_is_byte_identical(
        self, topology, tmp_path, variant
    ):
        """Segmentation: wherever the writer died — on any line
        boundary, or inside any line — a fresh sink resumes the file
        to exactly the uninterrupted run's bytes."""
        spec = small_spec(**{"trials": 3, **variant})
        full_path = tmp_path / "full.jsonl"
        full, lines = run_full(topology, spec, full_path)
        if spec.stopping == "ci":
            assert full.trial_counts[0] < spec.trials  # it did stop early
        data = full_path.read_bytes()
        cuts, start = [0], 0
        for line in lines:
            cuts += [start + len(line) // 2, start + len(line)]
            start += len(line)
        part = tmp_path / "part.jsonl"
        for cut in cuts:
            part.write_bytes(data[:cut])
            sink = JsonlSink(part)
            resumed = ExperimentRunner(
                topology, spec, sink=sink, resume_from=sink
            ).run()
            sink.close()
            assert part.read_bytes() == data, f"cut at byte {cut}"
            assert resumed == full, f"cut at byte {cut}"

    def test_begin_leaves_whole_trials_alone(self, topology, tmp_path):
        """Recovery cuts only what is partial: a file ending on a trial
        boundary, and a complete run, are not written to by begin()."""
        spec = small_spec()
        path = tmp_path / "run.jsonl"
        _, lines = run_full(topology, spec, path)
        header = RunHeader.for_spec(spec, topology)
        for keep in (1 + 2 * len(spec.cells), len(lines)):
            interrupt(path, lines, keep=keep, partial_tail=False)
            os.utime(path, ns=(10**18, 10**18))
            before = path.stat()
            sink = JsonlSink(path)
            sink.begin(header)
            sink.finish(())
            sink.close()
            after = path.stat()
            assert (after.st_size, after.st_mtime_ns) == (
                before.st_size, before.st_mtime_ns)
            assert record_lines(path) == lines[:keep]

    def test_finished_trials_not_reevaluated(
        self, topology, tmp_path, monkeypatch
    ):
        spec = small_spec()
        path = tmp_path / "run.jsonl"
        _, lines = run_full(topology, spec, path)
        cells = len(spec.cells)
        # Keep 7 complete records: 3 finished trials + 1 partial.
        interrupt(path, lines, keep=1 + 3 * cells + 1, partial_tail=False)

        evaluated = []
        import repro.exper.runner as runner_module

        real = runner_module.evaluate_trials

        def spy(topology, spec, trials, **kwargs):
            def watched():
                for trial in trials:
                    evaluated.append(
                        (trial.fraction_index, trial.trial_index)
                    )
                    yield trial
            return real(topology, spec, watched(), **kwargs)

        monkeypatch.setattr(runner_module, "evaluate_trials", spy)
        sink = JsonlSink(path)
        ExperimentRunner(
            topology, spec, sink=sink, resume_from=sink
        ).run()
        sink.close()
        assert (0, 0) not in evaluated
        assert (0, 1) not in evaluated
        assert (0, 2) not in evaluated
        # The partially recorded trial 3 re-evaluates whole.
        assert (0, 3) in evaluated
        assert len(evaluated) == spec.total_trials - 3

    def test_resume_with_early_stopping(self, topology, tmp_path):
        spec = small_spec(
            trials=30, stopping="ci",
            stop_ci_width=0.5, stop_min_trials=4, stop_check_every=2,
        )
        full_path = tmp_path / "full.jsonl"
        full, lines = run_full(topology, spec, full_path)
        assert any(c < spec.trials for c in full.trial_counts)

        part = tmp_path / "part.jsonl"
        interrupt(part, lines, keep=6)
        sink = JsonlSink(part)
        resumed = ExperimentRunner(
            topology, spec, sink=sink, resume_from=sink
        ).run()
        sink.close()
        assert resumed == full
        assert read_run(part) == read_run(full_path)

    def test_resume_of_complete_run_replays_everything(
        self, topology, tmp_path
    ):
        spec = small_spec()
        path = tmp_path / "run.jsonl"
        full, _ = run_full(topology, spec, path)
        sink = JsonlSink(path)
        resumed = ExperimentRunner(
            topology, spec, sink=sink, resume_from=sink
        ).run()
        sink.close()
        assert resumed == full

    def test_shm_cleaned_up_when_resume_finishes_early(
        self, topology, tmp_path
    ):
        """A sharded resume with nothing left to evaluate still
        unlinks its shared topology segment."""
        spec = small_spec()
        path = tmp_path / "run.jsonl"
        full, _ = run_full(topology, spec, path)
        sink = JsonlSink(path)
        runner = ExperimentRunner(
            topology, spec, executor="sharded", workers=2,
            sink=sink, resume_from=sink,
        )
        assert runner.run() == full
        sink.close()
        name = runner.last_shared_segment
        if name is not None:
            from multiprocessing import shared_memory

            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)

    def test_resume_into_fresh_tee_rewrites_replay(
        self, topology, tmp_path
    ):
        """Resuming into a *different* sink must rewrite the replayed
        records, so the new recording is complete on its own."""
        spec = small_spec()
        source_path = tmp_path / "source.jsonl"
        full, lines = run_full(topology, spec, source_path)
        interrupt(source_path, lines, keep=8)

        source = JsonlSink(source_path)
        copy = MemorySink()
        resumed = ExperimentRunner(
            topology, spec, sink=copy, resume_from=source
        ).run()
        assert resumed == full
        # The new sink received every record — replayed and fresh —
        # while the resume source was only read, never appended to.
        assert sorted(copy.records, key=lambda r: r.sort_key) == sorted(
            ExperimentRunner(topology, spec).iter_records(),
            key=lambda r: r.sort_key,
        )
        assert len(read_run(source_path)[1]) == 7
        assert copy.trial_counts == full.trial_counts

    def test_memory_sink_resume(self, topology):
        spec = small_spec()
        full = ExperimentRunner(topology, spec).run()
        sink = MemorySink()
        first = ExperimentRunner(topology, spec, sink=sink)
        records = first.iter_records()
        for _ in range(7):
            next(records)
        records.close()  # "crash" mid-run
        resumed = ExperimentRunner(
            topology, spec, sink=sink, resume_from=sink
        ).run()
        assert resumed == full

    def test_resume_rejects_different_topology(self, tmp_path):
        spec = small_spec()
        a = generate_topology(TopologyProfile(ases=130), random.Random(1))
        b = generate_topology(TopologyProfile(ases=170), random.Random(2))
        path = tmp_path / "run.jsonl"
        sink = JsonlSink(path)
        ExperimentRunner(a, spec, sink=sink).run()
        sink.close()
        sink = JsonlSink(path)
        with pytest.raises(ReproError, match="topology"):
            ExperimentRunner(
                b, spec, sink=sink, resume_from=sink
            ).run()

    def test_resume_rejects_mismatched_spec(self, topology, tmp_path):
        path = tmp_path / "run.jsonl"
        run_full(topology, small_spec(), path)
        sink = JsonlSink(path)
        other = small_spec(trials=7)
        with pytest.raises(ReproError, match="spec hash"):
            ExperimentRunner(
                topology, other, sink=sink, resume_from=sink
            ).run()

    @pytest.mark.parametrize("executor", ["serial", "sharded"])
    @pytest.mark.parametrize("golden", ["hijack", "deployment"])
    def test_golden_specs_resume_byte_identical(
        self, topology, tmp_path, golden, executor
    ):
        """The PR 2/PR 3 golden specs, interrupted and resumed:
        aggregates and trial_counts match the uninterrupted run."""
        from repro.analysis.deployment import deployment_sweep_spec
        from repro.analysis.hijack_eval import hijack_study_spec

        if golden == "hijack":
            spec = hijack_study_spec(samples=5, seed=42)
        else:
            spec = deployment_sweep_spec(fractions=(0.5,), samples=3, seed=9)
        full_path = tmp_path / "full.jsonl"
        full, lines = run_full(topology, spec, full_path)
        part = tmp_path / "part.jsonl"
        interrupt(part, lines, keep=1 + (len(lines) - 1) // 2)
        sink = JsonlSink(part)
        resumed = ExperimentRunner(
            topology, spec, executor=executor, workers=2,
            sink=sink, resume_from=sink,
        ).run()
        sink.close()
        assert resumed == full
        assert resumed.trial_counts == full.trial_counts
        assert read_run(part) == read_run(full_path)

    def test_plain_sink_does_not_support_resume(self, topology):
        from repro.results import ResultSink

        with pytest.raises(ReproError, match="does not support resuming"):
            ExperimentRunner(
                topology, small_spec(), resume_from=ResultSink()
            ).run()


# ----------------------------------------------------------------------
# Accumulators
# ----------------------------------------------------------------------


class TestAccumulators:
    def test_live_snapshot_matches_exact_statistics(self, topology):
        spec = small_spec()
        grid = GridAccumulator(spec)
        values = {}
        for record in ExperimentRunner(topology, spec).iter_records():
            grid.add(record)
            values.setdefault(
                (record.fraction_index, record.cell_index), []
            ).append(record.attacker_fraction)
        for (f, c), cell_values in values.items():
            snapshot = grid.cell(f, c).live_snapshot()
            assert snapshot["trials"] == len(cell_values)
            assert snapshot["mean"] == pytest.approx(
                statistics.mean(cell_values)
            )
            assert snapshot["stdev"] == pytest.approx(
                statistics.stdev(cell_values)
            )

    def test_duplicate_add_rejected(self):
        grid = GridAccumulator(small_spec())
        grid.add(sample_record(cell_index=0))
        with pytest.raises(ReproError, match="duplicate record"):
            grid.add(sample_record(cell_index=0))

    def test_out_of_grid_coordinate_rejected(self):
        grid = GridAccumulator(small_spec())
        with pytest.raises(ReproError, match="outside the spec"):
            grid.add(sample_record(cell_index=7))


# ----------------------------------------------------------------------
# Store + merge
# ----------------------------------------------------------------------


class TestStoreAndMerge:
    def shard(self, store, run_id, spec, records, keep):
        sink = store.sink(run_id)
        sink.begin(RunHeader.for_spec(spec))
        for record in records:
            if keep(record):
                sink.write(record)
        sink.close()

    def test_merged_shards_aggregate_like_one_run(
        self, topology, tmp_path
    ):
        spec = small_spec()
        full = ExperimentRunner(topology, spec).run()
        records = list(ExperimentRunner(topology, spec).iter_records())
        store = ResultsStore(tmp_path / "store")
        # Shards split by trial parity, overlapping on trial 0.
        self.shard(store, "shard-0", spec, records,
                   lambda r: r.trial_index % 2 == 0)
        self.shard(store, "shard-1", spec, records,
                   lambda r: r.trial_index % 2 == 1 or r.trial_index == 0)
        header, count = store.merge("merged", ["shard-0", "shard-1"])
        assert count == len(records)
        assert store.run_ids() == ["merged", "shard-0", "shard-1"]
        merged_header, merged_records = store.read("merged")
        result, dropped = run_result(merged_header, merged_records)
        assert dropped == 0
        assert result == full

    def test_merge_is_deterministic_bytes(self, topology, tmp_path):
        spec = small_spec()
        path = tmp_path / "run.jsonl"
        run_full(topology, spec, path)
        out1, out2 = tmp_path / "m1.jsonl", tmp_path / "m2.jsonl"
        merge_runs(out1, [path])
        merge_runs(out2, [path])
        assert out1.read_bytes() == out2.read_bytes()

    def test_merge_rejects_spec_mismatch(self, topology, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        run_full(topology, small_spec(), a)
        run_full(topology, small_spec(seed=8), b)
        with pytest.raises(ReproError, match="spec hash"):
            merge_runs(tmp_path / "out.jsonl", [a, b])

    def test_bad_run_id_rejected(self, tmp_path):
        store = ResultsStore(tmp_path)
        with pytest.raises(ReproError, match="bad run id"):
            store.path("../escape")

    def test_partial_run_aggregates_completed_prefix(
        self, topology, tmp_path
    ):
        spec = small_spec()
        path = tmp_path / "run.jsonl"
        full, lines = run_full(topology, spec, path)
        cells = len(spec.cells)
        # Killed during fraction 0: fraction 1 never started.  The
        # result reports the completed fraction prefix, with per-cell
        # stats identical to the full run's (same bootstrap seeds).
        interrupt(path, lines, keep=1 + 3 * cells + 1, partial_tail=False)
        header, records = read_run(path)
        result, dropped = run_result(header, records)
        assert dropped == 1  # the lone record of the unfinished trial
        assert result.trial_counts == (3,)
        assert result.fractions == (None,)
        for cell_index, stats in enumerate(result.stats[0]):
            assert stats.values == (
                full.stats[0][cell_index].values[:3]
            )

    def test_empty_run_rejected(self, topology, tmp_path):
        spec = small_spec()
        path = tmp_path / "run.jsonl"
        _, lines = run_full(topology, spec, path)
        interrupt(path, lines, keep=2, partial_tail=False)  # 1 record
        header, records = read_run(path)
        with pytest.raises(
            ReproError, match="no complete trials for fraction index 0"
        ):
            run_result(header, records)


class TestMergeEdgeCases:
    """merge_runs under the shapes a sharded run can leave behind."""

    def test_merge_needs_inputs(self, tmp_path):
        with pytest.raises(ReproError, match="at least one input run"):
            merge_runs(tmp_path / "out.jsonl", [])

    def test_empty_shard_run_contributes_nothing(
        self, topology, tmp_path
    ):
        # A shard whose slice the coordinator never needed (or that
        # died before its first record) is a header-only run file.
        spec = small_spec()
        full_path = tmp_path / "full.jsonl"
        run_full(topology, spec, full_path)
        empty = tmp_path / "empty.jsonl"
        sink = JsonlSink(empty)
        sink.begin(RunHeader.for_spec(spec))
        sink.close()
        out = tmp_path / "out.jsonl"
        header, count = merge_runs(out, [full_path, empty])
        assert count == len(read_run(full_path)[1])
        assert out.read_bytes() == full_path.read_bytes()

    def test_single_shard_union_is_identity(self, topology, tmp_path):
        spec = small_spec()
        path = tmp_path / "run.jsonl"
        run_full(topology, spec, path)
        out = tmp_path / "out.jsonl"
        merge_runs(out, [path])
        assert out.read_bytes() == path.read_bytes()

    def test_duplicate_identical_shard_collapses(
        self, topology, tmp_path
    ):
        spec = small_spec()
        path = tmp_path / "run.jsonl"
        run_full(topology, spec, path)
        once, twice = tmp_path / "once.jsonl", tmp_path / "twice.jsonl"
        merge_runs(once, [path])
        merge_runs(twice, [path, path])
        assert twice.read_bytes() == once.read_bytes()

    def test_conflicting_records_rejected(self, topology, tmp_path):
        spec = small_spec()
        path = tmp_path / "run.jsonl"
        run_full(topology, spec, path)
        # Rewrite one record's outcome in a copy: same grid
        # coordinate, different payload — a re-evaluation that
        # diverged, which merging must refuse to paper over.
        lines = path.read_bytes().splitlines(keepends=True)
        record = json.loads(lines[1])
        record["attacker_fraction"] = 0.123456
        forged = tmp_path / "forged.jsonl"
        forged.write_bytes(
            lines[0]
            + json.dumps(record).encode()
            + b"\n"
            + b"".join(lines[2:])
        )
        with pytest.raises(
            ReproError, match="conflicting records for fraction index"
        ):
            merge_runs(tmp_path / "out.jsonl", [path, forged])

    def test_truncated_then_recovered_shard_merges(
        self, topology, tmp_path
    ):
        # A shard killed mid-write leaves a partial tail line; the
        # reader drops it, and a retry that resumed the same file
        # completes it.  Both states must merge cleanly.
        spec = small_spec()
        full_path = tmp_path / "full.jsonl"
        _, lines = run_full(topology, spec, full_path)
        partial = tmp_path / "partial.jsonl"
        interrupt(partial, lines, keep=7)  # + half of line 7
        out = tmp_path / "out.jsonl"
        header, count = merge_runs(out, [full_path, partial])
        assert out.read_bytes() == full_path.read_bytes()
        # Recover the partial exactly as a retried shard would: the
        # resume scan truncates the torn tail, then the writer
        # re-appends the missing records.
        sink = JsonlSink(partial)
        sink.resume_scan()
        sink.begin(RunHeader.for_spec(spec))
        recovered = {
            line + b"\n" for line in partial.read_bytes().splitlines()
        }
        for line in lines[1:]:
            if line not in recovered:
                sink.write(TrialRecord.from_json_dict(json.loads(line)))
        sink.close()
        merge_runs(out, [partial])
        assert out.read_bytes() == full_path.read_bytes()


# ----------------------------------------------------------------------
# Live serving
# ----------------------------------------------------------------------


async def http_get(host, port, path):
    reader, writer = await asyncio.open_connection(host, port)
    writer.write(
        f"GET {path} HTTP/1.1\r\nConnection: close\r\n\r\n".encode()
    )
    await writer.drain()
    data = await reader.read()
    writer.close()
    head, _, body = data.partition(b"\r\n\r\n")
    return int(head.split(b" ", 2)[1]), json.loads(body)


class TestLiveServing:
    def query_service(self, metrics=None):
        return QueryService(
            [Vrp(Prefix.parse("10.0.0.0/24"), 24, 65000)],
            metrics=metrics,
        )

    def test_experiments_endpoint_updates_mid_run(self, topology):
        spec = small_spec()
        metrics = ServeMetrics()
        registry = RunRegistry()
        runner = ExperimentRunner(
            topology, spec,
            sink=registry.publisher("live-1", metrics=metrics),
        )

        async def scenario():
            service = self.query_service(metrics)
            async with QueryHttpServer(
                service, metrics=metrics, runs=registry
            ) as http:
                stream = runner.iter_records()
                seen = 0
                for _ in range(5):
                    next(stream)
                    seen += 1
                status, listing = await http_get(
                    http.host, http.port, "/experiments")
                assert status == 200
                (entry,) = listing["runs"]
                assert entry["run"] == "live-1"
                assert entry["status"] == "running"
                assert entry["records"] == seen

                status, snapshot = await http_get(
                    http.host, http.port, "/experiments/live-1")
                assert status == 200
                assert snapshot["status"] == "running"
                assert sum(
                    cell["trials"] for cell in snapshot["cells"]
                ) == seen
                assert snapshot["trial_counts"] is None

                for record in stream:
                    seen += 1
                status, snapshot = await http_get(
                    http.host, http.port, "/experiments/live-1")
                assert snapshot["status"] == "finished"
                assert snapshot["records"] == seen
                assert snapshot["trial_counts"] == [spec.trials] * 2
                cell_stats = {
                    (c["cell"], c["fraction"]): c
                    for c in snapshot["cells"]
                }
                assert all(
                    stats["trials"] == spec.trials
                    for stats in cell_stats.values()
                )
        asyncio.run(scenario())
        assert metrics["records_published"] == (
            spec.total_trials * len(spec.cells)
        )
        assert metrics["experiment_requests"] == 3

    def test_unknown_run_404_and_post_405(self):
        async def scenario():
            async with QueryHttpServer(self.query_service()) as http:
                status, body = await http_get(
                    http.host, http.port, "/experiments/none")
                assert status == 404
                assert "none" in body["error"]
                status, body = await http_get(
                    http.host, http.port, "/experiments")
                assert status == 200 and body == {"runs": []}
                reader, writer = await asyncio.open_connection(
                    http.host, http.port)
                writer.write(
                    b"POST /experiments HTTP/1.1\r\n"
                    b"Connection: close\r\nContent-Length: 0\r\n\r\n")
                data = await reader.read()
                assert data.split(b" ", 2)[1] == b"405"
        asyncio.run(scenario())

    def test_store_loaded_registry_serves_archived_runs(
        self, topology, tmp_path
    ):
        spec = small_spec()
        store = ResultsStore(tmp_path)
        sink = store.sink("archived")
        ExperimentRunner(topology, spec, sink=sink).run()
        sink.close()
        registry = RunRegistry()
        assert registry.load_store(store) == 1
        snapshot = registry.snapshot("archived")
        assert snapshot["status"] == "finished"
        assert snapshot["records"] == spec.total_trials * len(spec.cells)

    def test_load_store_skips_unreadable_runs(self, topology, tmp_path):
        """One headerless stray must not take the directory off the
        air — strict mode raises instead."""
        spec = small_spec()
        store = ResultsStore(tmp_path)
        sink = store.sink("good")
        ExperimentRunner(topology, spec, sink=sink).run()
        sink.close()
        (tmp_path / "stray.jsonl").write_bytes(b"")
        registry = RunRegistry()
        assert registry.load_store(store) == 1
        assert registry.run_ids() == ["good"]
        with pytest.raises(ReproError, match="no header"):
            RunRegistry().load_store(store, strict=True)

    def test_publish_without_begin_rejected(self):
        registry = RunRegistry()
        publisher = registry.publisher("r")
        with pytest.raises(ReproError, match="no live run"):
            publisher.write(sample_record())


# ----------------------------------------------------------------------
# Sinks misc
# ----------------------------------------------------------------------


class TestSinkProtocol:
    def test_tee_fans_out(self, topology, tmp_path):
        spec = small_spec()
        a, b = MemorySink(), JsonlSink(tmp_path / "tee.jsonl")
        tee = TeeSink(a, b)
        result = ExperimentRunner(topology, spec, sink=tee).run()
        tee.close()
        header, records = read_run(tmp_path / "tee.jsonl")
        assert sorted(a.records, key=lambda r: r.sort_key) == records
        assert a.trial_counts == result.trial_counts
        assert a.header == header
        # Recording observes the run without changing it.
        assert result == ExperimentRunner(topology, spec).run()

    def test_empty_tee_rejected(self):
        with pytest.raises(ReproError, match="at least one sink"):
            TeeSink()

    def test_write_before_begin_rejected(self, tmp_path):
        sink = JsonlSink(tmp_path / "x.jsonl")
        with pytest.raises(ReproError, match="before begin"):
            sink.write(sample_record())
