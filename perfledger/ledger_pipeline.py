"""Workload ``paper_pipeline``: the §6 / Table 1 measurements as a user
runs them — ``generate`` (set-up), then ``analyze``, ``compress`` and
``table1`` as three CLI commands on one generated snapshot.

No route propagation happens here at all: the prefix trees
(``netbase.radix`` / ``netbase.trie``), ``core.*``, ``analysis.*`` and
CSV I/O do the work.  It is the workload for a prefix-tree or ``core``
change; for a propagation or serve-tier change the prediction is "no
change".  The traced repetition also validates a small signed RPKI
repository (``rpki``/``crypto``/``asn1``), which no CLI command does
today, so that a decoder-hardening change can show it slowed nothing.
"""

from __future__ import annotations

import random
import time
from pathlib import Path
from statistics import median
from typing import Dict, List

from repro.analysis import compute_table1, measure_section6
from repro.asn1 import der
from repro.core import (
    analyze_vrps,
    compress_vrps,
    lower_bound_pdu_count,
    to_minimal_vrps,
)
from repro.data import (
    GeneratorConfig,
    generate_snapshot,
    read_origin_pairs,
    read_vrp_csv,
    write_origin_pairs,
    write_vrp_csv,
)
from repro.netbase import Prefix
from repro.netbase.radix import RadixTree
from repro.netbase.trie import PrefixTrie
from repro.rpki import CertificateAuthority, Repository, Roa, scan_roas

from ledger_core import (
    Child,
    LedgerError,
    Outcome,
    SpanRecorder,
    digest,
    fastest,
    repetitions,
    run_cli,
)

#: The traced repository: certificate authorities, ROAs per CA, and
#: RSA modulus bits — (full size, toy size).
REPOSITORY = {False: (12, 10, 1024), True: (3, 2, 512)}


def scale_for(toy: bool) -> float:
    """Share of the 2017 Internet: 0.04 is ~1.8k VRPs and ~29k announced
    pairs."""
    return 0.003 if toy else 0.04


def _table1_counts(text: str) -> Dict[str, int]:
    """Scenario → PDU count, parsed from ``repro-roa table1`` output."""
    rows = {}
    for line in text.splitlines()[2:]:
        scenario, count, _ = line.rsplit(None, 2)
        rows[scenario.strip()] = int(count.replace(",", ""))
    return rows


def run(seed: int, seconds: float, trace: bool, work: Path,
        toy: bool) -> Outcome:
    out = Outcome()
    spans = SpanRecorder()
    scale = scale_for(toy)
    snap = work / "snap"
    vrps_csv, rib = snap / "vrps.csv", snap / "rib.txt"

    times = []
    for attempt in range(1 if toy else 3):
        child = run_cli(
            ["generate", "--scale", str(scale), "--seed", str(seed),
             "--out-dir", str(snap)],
            work, "generate",
        )
        if not child.ok:
            raise LedgerError(f"generate failed: {child.stderr.read_text()}")
        times.append(child.wall_s)
    out.metrics["setup_s"] = median(times)
    out.details["setup_s"] = times
    vrp_rows = vrps_csv.read_bytes().count(b"\n") - 1
    pair_rows = rib.read_bytes().count(b"\n") - 1
    out.details["sizes"] = {
        "scale": scale, "vrps": vrp_rows, "announcements": pair_rows,
    }

    def repeat(index: int) -> Dict[str, Child]:
        rep = {
            "analyze": run_cli(
                ["analyze", str(vrps_csv), str(rib)],
                work, f"rep{index}_analyze"),
            "compress": run_cli(
                ["compress", str(vrps_csv), "-o",
                 str(work / f"c{index}.csv")],
                work, f"rep{index}_compress"),
            "table1": run_cli(
                ["table1", "--vrps", str(vrps_csv), "--rib", str(rib)],
                work, f"rep{index}_table1"),
        }
        for name, child in rep.items():
            out.check(child.ok, f"rep {index}: {name} exit "
                                f"{child.returncode}")
        return rep

    reps = repetitions(repeat, seconds, just_one=trace)

    # Output checks: Algorithm 1's file, Table 1's orderings, and equal
    # counts on every repetition.
    vrps = list(read_vrp_csv(vrps_csv))
    expected_csv = work / "expected_c.csv"
    write_vrp_csv(compress_vrps(vrps), expected_csv)
    out.check(digest(work / "c0.csv") == digest(expected_csv),
              "c.csv is not compress_vrps of the same input")
    table = _table1_counts(reps[0]["table1"].stdout.read_text())
    out.check(
        table["Full deployment, lower bound (max permissive ROAs)"]
        <= table["Full deployment, minimal ROAs, with maxLength"]
        <= table["Full deployment, minimal ROAs, no maxLength"]
        and table["Today (compressed)"] <= table["Today"] == len(vrps),
        f"Table 1 rows out of order: {table}",
    )
    for index in range(1, len(reps)):
        out.check(
            digest(work / f"c{index}.csv") == digest(work / "c0.csv")
            and all(
                reps[index][name].stdout.read_bytes()
                == reps[0][name].stdout.read_bytes()
                for name in ("analyze", "table1")
            ),
            f"outputs of rep {index} differ from rep 0",
        )

    walls = [sum(child.wall_s for child in rep.values()) for rep in reps]
    out.metrics["op_latency_ms"] = fastest(walls) * 1e3
    out.metrics["work_per_s"] = (vrp_rows + pair_rows) / fastest(walls)
    out.metrics["peak_rss_mb"] = median(
        [max(child.rss_mb for child in rep.values()) for rep in reps])
    out.details["wall_s"] = walls
    out.details["command_wall_s"] = {
        name: median([rep[name].wall_s for rep in reps])
        for name in ("analyze", "compress", "table1")
    }

    if trace:
        spans.rep = len(reps)
        started = time.perf_counter()
        _traced(spans, seed, scale, work, out, reps[0])
        _traced_rpki(spans, seed, out, *REPOSITORY[toy])
        out.details["traced_s"] = time.perf_counter() - started
        out.metrics["trace.overhead_share"] = (
            spans.busy("pipeline.in_process") / fastest(walls))
        out.details["spans"] = spans.summary()
    return out


def _traced(spans: SpanRecorder, seed: int, scale: float, work: Path,
            out: Outcome, cli: Dict[str, Child]) -> None:
    m = out.metrics
    with spans.span("data.generate_snapshot"):
        snapshot = generate_snapshot(GeneratorConfig(scale=scale, seed=seed))
        generated = snapshot.vrps
    traced_vrps, traced_rib = work / "traced_vrps.csv", work / "traced_rib.txt"
    with spans.span("data.io.write"):
        write_vrp_csv(generated, traced_vrps)
        write_origin_pairs(snapshot.announced, traced_rib)
    with spans.span("pipeline.in_process"):
        with spans.span("data.io.read"):
            vrps = list(read_vrp_csv(traced_vrps))
            announced = list(read_origin_pairs(traced_rib))
        with spans.span("analysis.section6"):
            section6 = measure_section6(vrps, announced)
        with spans.span("core.compress", vrps_in=len(vrps)) as span:
            compressed = compress_vrps(vrps)
            span.counts["vrps_out"] = len(compressed)
        with spans.span("data.io.write"):
            write_vrp_csv(compressed, work / "traced_c.csv")
        with spans.span("analysis.table1"):
            table1 = compute_table1(vrps, announced)
    out.check(
        "\n".join(section6.summary_lines()) + "\n"
        == cli["analyze"].stdout.read_text()
        and table1.render() + "\n" == cli["table1"].stdout.read_text()
        and digest(work / "traced_c.csv") == digest(work / "c0.csv"),
        "in-process pipeline results differ from the CLI's",
    )
    # The core layers the two analyses are made of, one call each.
    unique_pairs = set(announced)
    with spans.span("core.vulnerability"):
        analyze_vrps(vrps, announced)
    with spans.span("core.minimal"):
        to_minimal_vrps(vrps, announced)
    with spans.span("core.bounds"):
        lower_bound_pdu_count(unique_pairs)

    # The two prefix trees, on the snapshot's announced prefixes.
    prefixes = sorted({prefix for prefix, _ in unique_pairs})
    radix: Dict[int, RadixTree] = {}
    with spans.span("netbase.radix.insert", prefixes=len(prefixes)) as ins:
        for prefix in prefixes:
            tree = radix.get(prefix.family)
            if tree is None:
                tree = radix[prefix.family] = RadixTree(prefix.family)
            tree.insert(prefix, True)
    found = 0
    with spans.span("netbase.radix.lookup", prefixes=len(prefixes)) as look:
        for prefix in prefixes:
            for _ in radix[prefix.family].covering(prefix):
                found += 1
    out.check(found >= len(prefixes),
              "radix covering() missed an inserted prefix")
    tries: Dict[int, PrefixTrie] = {}
    with spans.span("netbase.trie.insert", prefixes=len(prefixes)) as trie:
        for prefix in prefixes:
            tree = tries.get(prefix.family)
            if tree is None:
                tree = tries[prefix.family] = PrefixTrie(prefix.family)
            tree.insert(prefix, True)

    m["data.generate_snapshot_s"] = spans.busy("data.generate_snapshot")
    m["data.io.read_s"] = spans.busy("data.io.read")
    m["data.io.write_s"] = spans.busy("data.io.write")
    m["core.compress.busy_s"] = spans.busy("core.compress")
    m["core.compress.vrps_in"] = spans.count("core.compress", "vrps_in")
    m["core.compress.vrps_out"] = spans.count("core.compress", "vrps_out")
    m["core.minimal.busy_s"] = spans.busy("core.minimal")
    m["core.bounds.busy_s"] = spans.busy("core.bounds")
    m["core.vulnerability.busy_s"] = spans.busy("core.vulnerability")
    m["analysis.section6_s"] = spans.busy("analysis.section6")
    m["analysis.table1_s"] = spans.busy("analysis.table1")
    m["netbase.radix.insert_per_s"] = len(prefixes) / ins.seconds
    m["netbase.radix.lookup_per_s"] = len(prefixes) / look.seconds
    m["netbase.trie.insert_per_s"] = len(prefixes) / trie.seconds


def _traced_rpki(spans: SpanRecorder, seed: int, out: Outcome,
                 cas: int, roas: int, key_bits: int) -> None:
    """Build a signed repository, then validate it as a relying party."""
    m = out.metrics
    rng = random.Random(seed)
    repository = Repository()
    with spans.span("rpki.build_repository"):
        anchor = CertificateAuthority.create_trust_anchor(
            "TA", repository,
            ip_resources=(Prefix.parse("10.0.0.0/8"),), rng=rng, now=1_000,
            key_bits=key_bits,
        )
        for ca in range(cas - 1):
            block = Prefix.parse(f"10.{ca}.0.0/16")
            child = anchor.issue_child(
                f"CA{ca}", ip_resources=(block,), key_bits=key_bits)
            for roa in range(roas):
                child.issue_roa(Roa(
                    64_512 + ca * roas + roa,
                    [Prefix.parse(f"10.{ca}.{roa}.0/24")],
                ))
        for roa in range(roas):
            anchor.issue_roa(Roa(
                65_000 + roa, [Prefix.parse(f"10.200.{roa}.0/24")]))
        anchor.publish_tree()
    with spans.span("rpki.scan",
                    objects=repository.total_objects()) as scan:
        run = scan_roas(repository, [anchor.certificate], now=2_000)
    out.check(
        len(run.vrps) == cas * roas and run.ok,
        f"relying party found {len(run.vrps)} VRPs, "
        f"{len(run.issues)} issues",
    )
    m["rpki.scan_s"] = scan.seconds
    m["rpki.scan_objects"] = repository.total_objects()
    m["rpki.scan_issues"] = len(run.issues)

    message = b"perfledger" * 32
    signature = anchor.key.sign(message)
    public = anchor.key.public
    verify: List[float] = []
    clock = time.perf_counter
    for _ in range(200):
        started = clock()
        good = public.verify(message, signature)
        verify.append(clock() - started)
    out.check(good, "RSA verify rejected its own signature")
    m["crypto.rsa.verify_p50_us"] = median(verify) * 1e6

    blobs = [
        published.data
        for point in repository.points()
        for published in point.objects()
    ]
    with spans.span("asn1.der.decode",
                    bytes=sum(map(len, blobs))) as decode:
        for blob in blobs:
            der.decode(blob)
    m["asn1.der.decode_mb_per_s"] = (
        sum(map(len, blobs)) / 1e6 / decode.seconds)
