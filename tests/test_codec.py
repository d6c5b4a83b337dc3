"""The record codec (:mod:`repro.netbase.codec`), held as one property
over every record the program stores or posts as JSON.

For every registered record type and any record of it:

* encoding then decoding gives the record back, and the same wire;
* every single-key type swap — a bool, a float, a string, a list or
  null where the key's table entry takes none of them — every dropped
  required key and every extra key raise :class:`ReproError` naming
  that key;

and every byte prefix of a JSON-lines stream of such records scans
(:func:`repro.results.appendlog.scan`) to exactly its complete lines,
each of which decodes to its record.
"""

from __future__ import annotations

import json
import tempfile
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp.attacks import AttackKind
from repro.exper import evaluate, sharded
from repro.exper import spec as spec_module
from repro.exper.evaluate import TrialRecord
from repro.exper.scenarios import (
    AnyAsPairSampler,
    AttackConfig,
    CustomRoa,
    FixedPairSampler,
    MaxLengthLooseRoa,
    MinimalRoa,
    NoRoa,
    PartialCoverageRoa,
    ScenarioCell,
    StubPairSampler,
)
from repro.exper.sharded import Shard
from repro.exper.spec import ExperimentSpec
from repro.faults import plan as plan_module
from repro.faults.plan import FaultPlan, FaultRule
from repro.jobs import model as job_model
from repro.jobs import store as job_store
from repro.jobs.model import STATUS_BY_EVENT, JobRecord, JobSpec
from repro.netbase.codec import Field, decode, encode
from repro.netbase.errors import ReproError
from repro.netbase.prefix import Prefix
from repro.results import appendlog
from repro.results import sinks
from repro.results.sinks import RunHeader
from repro.rpki.vrp import Vrp
from repro.serve import shards as serve_shards
from segmentation import splits


@dataclass(frozen=True)
class Registered:
    """One record type: its field table, records of it, and its two
    directions through the wire."""

    name: str
    fields: Sequence[Field]
    records: st.SearchStrategy
    to_wire: Callable[[Any], dict]
    from_wire: Callable[[Any], Any]


# ----------------------------------------------------------------------
# Records
# ----------------------------------------------------------------------

naturals = st.integers(0, 2 ** 32)
shares = st.floats(0.0, 1.0)
words = st.text("abcdefghij-./0123456789", min_size=1, max_size=12)

_VICTIMS = {
    "168.122.0.0/16": "168.122.5.0/24",
    "10.0.0.0/8": "10.1.0.0/16",
}

vrps = st.builds(
    Vrp,
    st.sampled_from(sorted(_VICTIMS)).map(Prefix.parse),
    st.integers(16, 24),
    st.integers(1, 2 ** 32 - 1),
)
plain_policies = st.one_of(
    st.builds(MinimalRoa),
    st.builds(MaxLengthLooseRoa),
    st.builds(MaxLengthLooseRoa, st.integers(16, 32)),
    st.builds(NoRoa),
    st.builds(CustomRoa, st.lists(vrps, max_size=3).map(tuple), words),
)
policies = st.one_of(
    plain_policies,
    st.builds(PartialCoverageRoa, plain_policies, shares),
)
cells = st.builds(
    ScenarioCell,
    st.builds(
        AttackConfig,
        st.sampled_from(list(AttackKind)),
        st.integers(1, 3),
        st.integers(0, 2),
    ),
    policies,
)
samplers = st.one_of(
    st.builds(StubPairSampler),
    st.builds(AnyAsPairSampler),
    st.lists(naturals, min_size=1, max_size=4, unique=True).map(
        lambda cast: FixedPairSampler(cast[0], tuple(cast[1:]))
    ),
)


@st.composite
def specs(draw) -> ExperimentSpec:
    victim = draw(st.sampled_from(sorted(_VICTIMS)))
    return ExperimentSpec(
        cells=tuple(draw(st.lists(
            cells, min_size=1, max_size=3, unique_by=lambda c: c.name,
        ))),
        trials=draw(st.integers(1, 500)),
        seed=draw(naturals),
        fractions=tuple(draw(st.lists(
            st.none() | shares, min_size=1, max_size=3,
        ))),
        sampler=draw(samplers),
        victim_prefix=Prefix.parse(victim),
        attack_prefix=draw(st.sampled_from(
            [None, Prefix.parse(_VICTIMS[victim])]
        )),
        executor=draw(st.sampled_from(spec_module.EXECUTORS)),
        stopping=draw(st.sampled_from(["none", "ci"])),
        stop_ci_width=draw(st.floats(0.001, 1.0)),
        stop_min_trials=draw(st.integers(2, 64)),
        stop_check_every=draw(st.integers(1, 16)),
    )


trial_records = st.builds(
    TrialRecord,
    fraction_index=naturals,
    trial_index=naturals,
    cell_index=naturals,
    fraction=st.none() | shares,
    cell=words,
    victim=naturals,
    attackers=st.lists(naturals, max_size=3).map(tuple),
    attacker_fraction=shares,
    victim_fraction=shares,
    disconnected_fraction=shares,
    attack_route_filtered=st.booleans(),
)
headers = st.builds(
    lambda spec, digest: replace(
        RunHeader.for_spec(spec), topology_hash=digest
    ),
    specs(),
    st.none() | st.text("0123456789abcdef", min_size=32, max_size=32),
)
job_specs = st.builds(
    JobSpec,
    spec=specs(),
    run=st.sampled_from([None, "archive", "job-000001", "grid.shard0of2"]),
    ases=st.integers(2, 5000),
    topology_seed=naturals,
    workers=st.none() | st.integers(1, 8),
    shards=st.none() | st.integers(1, 8),
)
job_records = st.one_of(
    st.builds(JobRecord, words, st.just("enqueued"), job_specs, words),
    st.builds(
        JobRecord, words,
        st.sampled_from(sorted(set(STATUS_BY_EVENT) - {"enqueued"})),
        st.none(), st.just("") | words,
    ),
)
shard_ranges = st.builds(
    lambda f, start, length: (f, start, start + length),
    st.integers(0, 4), st.integers(0, 100), st.integers(1, 100),
)
shards = st.integers(1, 6).flatmap(lambda count: st.builds(
    Shard,
    st.integers(0, count - 1),
    st.just(count),
    st.lists(shard_ranges, max_size=3).map(tuple),
))
dispatches = st.fixed_dictionaries({
    "shard": shards,
    "header": headers,
    "attempt": st.integers(0, 5),
    "finished": st.lists(
        st.tuples(st.integers(0, 4), st.integers(0, 500)), max_size=4,
    ).map(lambda pairs: tuple(sorted(pairs))),
})


@st.composite
def fault_rules(draw) -> FaultRule:
    action = draw(st.sampled_from(["error", "reset", "stall", "delay",
                                   "crash"]))
    return FaultRule(
        site=draw(words),
        action=action,
        at=tuple(draw(st.lists(st.integers(1, 50), min_size=1,
                               max_size=3))),
        error=draw(st.sampled_from(["io", "enospc"])),
        delay=draw(
            st.floats(0.001, 1.0) if action == "delay"
            else st.floats(0.0, 1.0)
        ),
        match=tuple(draw(st.lists(st.tuples(words, words), max_size=2))),
    )


fault_plans = st.builds(
    FaultPlan,
    st.lists(fault_rules(), max_size=3).map(tuple),
    st.none() | naturals,
)

REGISTERED = (
    Registered(
        "spec", spec_module._FIELDS, specs(),
        ExperimentSpec.to_json_dict, ExperimentSpec.from_json_dict,
    ),
    Registered(
        "cell entry", spec_module._CELL_FIELDS, cells,
        spec_module._CELL.encode, spec_module._CELL.decode,
    ),
    Registered(
        "trial record", evaluate._FIELDS, trial_records,
        TrialRecord.to_json_dict, TrialRecord.from_json_dict,
    ),
    Registered(
        "run header", sinks._HEADER_FIELDS[sinks.HEADER_SCHEMA], headers,
        RunHeader.to_json_dict, RunHeader.from_json_dict,
    ),
    Registered(
        "job spec", job_model._SPEC_FIELDS, job_specs,
        JobSpec.to_json_dict, JobSpec.from_json_dict,
    ),
    Registered(
        "job record", job_model._RECORD_FIELDS, job_records,
        JobRecord.to_json_dict, JobRecord.from_json_dict,
    ),
    Registered(
        "job queue header", job_store._HEADER_FIELDS, st.just({}),
        lambda values: encode(job_store._HEADER_FIELDS, values),
        lambda data: decode("job queue header", job_store._HEADER_FIELDS,
                            data),
    ),
    Registered(
        "shard", sharded._SHARD_FIELDS, shards,
        Shard.to_json_dict, Shard.from_json_dict,
    ),
    Registered(
        "dispatch body", serve_shards._DISPATCH_FIELDS, dispatches,
        lambda values: encode(serve_shards._DISPATCH_FIELDS, values),
        lambda data: decode(
            "dispatch body", serve_shards._DISPATCH_FIELDS, data
        ),
    ),
    Registered(
        "fault rule", plan_module._RULE_FIELDS, fault_rules(),
        lambda rule: encode(plan_module._RULE_FIELDS, vars(rule)),
        lambda data: FaultRule(
            **decode("fault rule", plan_module._RULE_FIELDS, data)
        ),
    ),
    Registered(
        "fault plan", plan_module._PLAN_FIELDS, fault_plans,
        lambda plan: json.loads(plan.to_json()),
        lambda data: FaultPlan.from_json(json.dumps(data)),
    ),
)

registered_records = st.sampled_from(REGISTERED).flatmap(
    lambda kind: st.tuples(st.just(kind), kind.records)
)

#: One value of each JSON kind a swap puts in place of a key's value.
_SWAPS = (True, 1.5, "x", [], None)


# ----------------------------------------------------------------------
# The properties
# ----------------------------------------------------------------------


def _refused(kind: Registered, data: dict, name: str) -> None:
    try:
        kind.from_wire(data)
    except ReproError as exc:
        assert name in str(exc), (kind.name, name, str(exc))
    else:
        raise AssertionError(f"{kind.name} decoded {data!r}")


_EXACT = (
    Field("n", int), Field("x", float), Field("s", str), Field("b", bool),
    Field("o", (int, None), None),
)


@pytest.mark.parametrize("key,value", [
    ("n", True), ("n", 2.0), ("n", "3"), ("n", None),
    ("x", False), ("x", "0.5"), ("x", float("nan")), ("x", float("inf")),
    ("x", 10 ** 400), ("s", 5), ("s", None), ("b", 1), ("b", "true"),
    ("o", False), ("o", 1.0),
])
def test_kinds_are_exact(key, value):
    """The kinds the tables are built from: no bool as an int, no
    float as an int, no string as a number, no NaN or infinity."""
    good = {"n": 1, "x": 2, "s": "s", "b": True}
    values = decode("t", _EXACT, good)
    assert values == {**good, "x": 2.0, "o": None}
    assert type(values["x"]) is float
    with pytest.raises(ReproError, match=f"bad t value: {key}="):
        decode("t", _EXACT, {**good, key: value})


@settings(max_examples=150, deadline=None)
@given(registered_records, st.data())
def test_records_round_trip_and_refuse_every_single_change(pair, data):
    kind, record = pair
    wire = json.loads(json.dumps(kind.to_wire(record)))
    assert kind.from_wire(wire) == record
    assert kind.to_wire(kind.from_wire(wire)) == wire

    by_name = {field.name: field for field in kind.fields}
    assert set(wire) <= set(by_name)
    for name in wire:
        field = by_name[name]
        for swap in _SWAPS:
            if type(swap) not in field.kind.types:
                _refused(kind, {**wire, name: swap}, name)
        if field.required:
            _refused(kind, {k: v for k, v in wire.items() if k != name},
                     name)

    extra = data.draw(
        st.text("abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=10)
        .filter(lambda key: key not in by_name),
        label="extra key",
    )
    _refused(kind, {**wire, extra: 0}, extra)


@settings(max_examples=5, deadline=None)
@given(st.lists(registered_records, min_size=1, max_size=2))
def test_every_prefix_of_a_stream_scans_to_its_complete_lines(pairs):
    lines = [appendlog.encode_line(kind.to_wire(record))
             for kind, record in pairs]
    stream = b"".join(lines)
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "log.jsonl"
        for chunks in splits(stream):
            path.write_bytes(b"")
            written = b""
            for chunk in chunks:
                with path.open("ab") as handle:
                    handle.write(chunk)
                written += chunk
                complete, end, torn = appendlog.scan(path)
                whole = written.count(b"\n")
                assert end == len(b"".join(lines[:whole]))
                assert torn == (end < len(written))
                assert [line + b"\n" for line in complete] == lines[:whole]
                for (kind, record), line in zip(pairs, complete):
                    assert kind.from_wire(json.loads(line)) == record
