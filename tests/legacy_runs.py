"""Run files as earlier versions wrote them, rebuilt from today's.

A header is the only line of a run file that a header-schema bump
moves, so an old file is today's records under its old header.
"""

from __future__ import annotations

import json

from repro.results.appendlog import encode_line


def schema_one(
    run_bytes: bytes,
    spec_hash: str,
    engine: str = "array",
    seeding: str = "derived",
) -> bytes:
    """``run_bytes`` (a run file written today) with its header in the
    schema-1 form: the spec's seed and ``engine`` beside the spec,
    ``engine`` and ``seeding`` inside it, no rule, and ``spec_hash`` —
    the hash that spec had then."""
    header, records = run_bytes.split(b"\n", 1)
    wire = json.loads(header)
    spec = {**wire["spec"], "engine": engine, "seeding": seeding}
    return encode_line({
        "kind": wire["kind"],
        "schema": 1,
        "spec_hash": spec_hash,
        "seed": spec["seed"],
        "engine": engine,
        "spec": spec,
        "topology_hash": wire["topology_hash"],
    }) + records
