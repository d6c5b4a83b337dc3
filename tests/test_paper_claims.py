"""The paper's printed numbers, each pinned to a band on synthetic data.

The paper argues from numbers: Table 1's seven PDU counts, §6's 11.6 %
maxLength share with 84 % of it vulnerable, Figure 3's week-by-week
series, and the §4/§5 capture comparison.  Every row of :data:`CLAIMS`
is one of them: what the paper prints, the band the synthetic
2017-06-01 world must land in at this module's scale, and the
``benchmarks/`` check the band was carried over from when that
directory was retired.  A claim that measures a series (one value per
week, per density step, per deployment fraction) must hold at every
point.

Orderings that ``tests/test_analysis.py`` already pins (Table 1's
"who is smaller than whom", Figure 3's per-week series order) are not
repeated here; the bands are.

``SCALE`` is the smallest snapshot scale at which every band holds at
two generator seeds (``SEED`` and 2018; 7, 11 and 4242 hold too).  It
is a small world, and a larger one is not uniformly safer: at 0.015
Table 1's bands miss at ``SEED``, and a weekly snapshot holds only a
few hundred VRPs, so Figure 3(a)'s per-week ratio is the noisiest band
(it reaches 1.61 in one week at scale 0.03, seed 2018).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Sequence, Union

import pytest

from repro.analysis import (
    compute_figure3a,
    compute_figure3b,
    compute_table1,
    compute_timeline,
    measure_section6,
    run_deployment_sweep,
    run_hijack_study,
)
from repro.analysis.table1 import (
    FULL_LOWER_BOUND,
    FULL_MINIMAL,
    FULL_MINIMAL_COMPRESSED,
    TODAY,
    TODAY_COMPRESSED,
    TODAY_MINIMAL,
    TODAY_MINIMAL_COMPRESSED,
)
from repro.core import compress_vrps
from repro.data import (
    GeneratorConfig,
    SeriesConfig,
    TopologyProfile,
    generate_snapshot,
    generate_topology,
    generate_weekly_series,
)
from repro.rpki import Vrp

from optimal_compression import compress_vrps_optimal

#: The generator's default seed: the dataset the CLI and docs generate.
SEED = GeneratorConfig().seed
#: Snapshot scale for Table 1 and §6; the eight weekly snapshots and
#: the six density-sweep snapshots are each half of it.
SCALE = 0.02
SERIES_SCALE = SCALE / 2
#: Full-de-aggregation probabilities of the density ablation; 0.0435
#: is the generator's calibrated default.
DENSITIES = (0.0, 0.02, 0.0435, 0.10, 0.20, 0.40)
#: Validating-AS fractions of the deployment ablation.
FRACTIONS = (0.0, 0.25, 0.5, 0.75, 1.0)


def _full_deployment(snapshot) -> list[Vrp]:
    """One minimal VRP per announced (prefix, origin) pair."""
    return [Vrp(p, p.length, asn) for p, asn in snapshot.announced_set]


@pytest.fixture(scope="module")
def snapshot():
    return generate_snapshot(GeneratorConfig(scale=SCALE, seed=SEED))


@pytest.fixture(scope="module")
def table1(snapshot):
    table = compute_table1(snapshot.vrps, snapshot.announced)
    return {row.scenario: row.pdus for row in table.rows}


@pytest.fixture(scope="module")
def section6(snapshot):
    return measure_section6(snapshot.vrps, snapshot.announced)


@pytest.fixture(scope="module")
def series():
    return generate_weekly_series(
        SeriesConfig(base=GeneratorConfig(scale=SERIES_SCALE, seed=SEED))
    )


@pytest.fixture(scope="module")
def figure3a(series):
    return {s.name: s.values for s in compute_figure3a(series).series}


@pytest.fixture(scope="module")
def figure3b(series):
    return {s.name: s.values for s in compute_figure3b(series).series}


@pytest.fixture(scope="module")
def timeline(series):
    points = compute_timeline(series).points
    total = sum(point.total_vrps for point in points)
    maxlength = sum(point.maxlength_vrps for point in points)
    vulnerable = sum(point.vulnerable_vrps for point in points)
    return maxlength / total, vulnerable / maxlength


@pytest.fixture(scope="module")
def topology():
    return generate_topology(TopologyProfile(ases=1000), random.Random(SEED))


@pytest.fixture(scope="module")
def hijack(topology):
    return run_hijack_study(topology, samples=40, seed=2017)


@pytest.fixture(scope="module")
def deployment(topology):
    return run_deployment_sweep(
        topology, fractions=FRACTIONS, samples=10, seed=7
    ).points


@pytest.fixture(scope="module")
def density():
    """Full-deployment compression at each de-aggregation density."""
    ratios = []
    for probability in DENSITIES:
        full = _full_deployment(generate_snapshot(GeneratorConfig(
            scale=SERIES_SCALE,
            seed=SEED,
            full_deagg_prob=probability,
            adopter_full_deagg_prob=probability,
            partial_deagg_prob=0.0,
        )))
        ratios.append(1 - len(compress_vrps(full)) / len(full))
    return ratios


@pytest.fixture(scope="module")
def optimality():
    """Algorithm 1 against the minimum lossless set, on ~4 k tuples."""
    full = _full_deployment(generate_snapshot(
        GeneratorConfig(scale=4_000 / 776_945, seed=SEED)))
    gap = len(compress_vrps(full)) - len(compress_vrps_optimal(full))
    return gap / len(full)


def _steps(values: Sequence[float]) -> list[float]:
    return [later - earlier for earlier, later in zip(values, values[1:])]


STATUS_QUO = "Status quo"
PLAIN = "Minimal ROAs, no maxLength"
COMPRESSED = "Minimal ROAs, with maxLength"
BOUND = "Lower bound on # PDUs"


@dataclass(frozen=True)
class Claim:
    """``measure`` maps the named fixture to one value, or to a list
    whose every point must lie in ``[low, high]``."""

    name: str
    paper: str
    low: float
    high: float
    source: str
    fixture: str
    measure: Callable[[object], Union[float, list[float]]]


CLAIMS = (
    # Table 1 (2017-06-01), rows as fractions of the status quo.
    Claim("table1-today-compression", "33,615 of 39,949: 15.9 % saved",
          0.10, 0.22, "bench_table1::test_bench_compress_status_quo",
          "table1", lambda n: 1 - n[TODAY_COMPRESSED] / n[TODAY]),
    Claim("table1-minimal-growth", "52,745 of 39,949: +32 % (§6: +33 %)",
          0.10, 0.60, "bench_table1::test_bench_minimal_conversion, "
          "bench_section6", "table1",
          lambda n: n[TODAY_MINIMAL] / n[TODAY] - 1),
    Claim("table1-minimal-compressed-vs-today", "49,308 / 39,949 = 1.23",
          0.0, 1.6, "bench_table1::test_bench_table1_all_rows",
          "table1", lambda n: n[TODAY_MINIMAL_COMPRESSED] / n[TODAY]),
    Claim("table1-full-compression", "730,008 of 776,945: 6.04 % saved",
          0.03, 0.10, "bench_table1::test_bench_full_deployment_compression",
          "table1", lambda n: 1 - n[FULL_MINIMAL_COMPRESSED] / n[FULL_MINIMAL]),
    Claim("table1-bound-compression", "729,371 of 776,945: 6.12 % (§6: 6.2 %)",
          0.04, 0.095, "bench_table1::test_bench_lower_bound, bench_section6",
          "table1", lambda n: 1 - n[FULL_LOWER_BOUND] / n[FULL_MINIMAL]),
    # §6 in-text measurements.
    Claim("section6-maxlength-share", "4,630 of 39,949 prefixes: 11.6 %",
          0.06, 0.18, "bench_section6", "section6",
          lambda m: m.vulnerability.maxlength_fraction),
    Claim("section6-vulnerable-share", "84 % of maxLength prefixes",
          0.70, 1.0, "bench_section6", "section6",
          lambda m: m.vulnerability.vulnerable_fraction_of_maxlength),
    Claim("section6-compression-gap", "6.2 % bound vs 6.1 % achieved",
          0.0, 0.005, "bench_section6", "section6",
          lambda m: m.max_compression_fraction
          - m.achieved_compression_fraction),
    # Figure 3, every week from 4/13 to 6/1.
    Claim("figure3a-compressed-minimal-vs-status-quo", "1.23 on 6/1",
          0.0, 1.6, "bench_figure3a", "figure3a",
          lambda f: [c / s for s, c in zip(f[STATUS_QUO], f[COMPRESSED])]),
    Claim("figure3b-gap-to-bound", "(730,008 - 729,371) / 776,945 = 0.08 %",
          0.0, 0.005, "bench_figure3b", "figure3b",
          lambda f: [(c - b) / p for p, c, b in
                     zip(f[PLAIN], f[COMPRESSED], f[BOUND])]),
    Claim("figure3b-compression", "6.04 % on 6/1", 0.03, 0.10,
          "bench_figure3b", "figure3b",
          lambda f: [1 - c / p for p, c in zip(f[PLAIN], f[COMPRESSED])]),
    Claim("timeline-maxlength-share", "11.6 % (§6, on 6/1)", 0.06, 0.20,
          "bench_timeline", "timeline", lambda t: t[0]),
    Claim("timeline-vulnerable-share", "84 % (§6, on 6/1)", 0.70, 1.0,
          "bench_timeline", "timeline", lambda t: t[1]),
    # §4/§5: capture fraction of each attack on a 1000-AS topology.
    Claim("hijack-subprefix-no-rpki", "~100 % (§4)", 0.97, 1.0,
          "bench_hijack", "hijack", lambda h: h.subprefix_no_rpki),
    Claim("hijack-forged-subprefix-nonminimal-roa",
          "~100 %: as strong as an unprotected subprefix hijack (§4)",
          0.97, 1.0, "bench_hijack", "hijack",
          lambda h: h.forged_subprefix_nonminimal),
    Claim("hijack-forged-subprefix-minimal-roa", "0: the route is invalid (§5)",
          0.0, 0.0, "bench_hijack", "hijack",
          lambda h: h.forged_subprefix_minimal),
    Claim("hijack-forged-origin-minimal-roa",
          "some, but the majority stays legitimate (§5, [16])",
          0.01, 0.5, "bench_hijack", "hijack",
          lambda h: h.forged_origin_minimal),
    # Partial validation deployment (§2: few ASes validate).
    Claim("deployment-subprefix-none-validating", "~100 % (§4)", 0.95, 1.0,
          "bench_ablation_deployment", "deployment",
          lambda points: points[0].subprefix_hijack),
    Claim("deployment-subprefix-all-validating", "0 (§5)", 0.0, 0.0,
          "bench_ablation_deployment", "deployment",
          lambda points: points[-1].subprefix_hijack),
    Claim("deployment-subprefix-step", "falls as validation spreads",
          -1.0, 0.02, "bench_ablation_deployment", "deployment",
          lambda points: _steps([p.subprefix_hijack for p in points])),
    Claim("deployment-minimal-roa-none-validating", "~100 % (§4)", 0.95, 1.0,
          "bench_ablation_deployment", "deployment",
          lambda points: points[0].forged_subprefix_vs_minimal),
    Claim("deployment-minimal-roa-all-validating", "0 (§5)", 0.0, 0.0,
          "bench_ablation_deployment", "deployment",
          lambda points: points[-1].forged_subprefix_vs_minimal),
    Claim("deployment-nonminimal-roa-any-validating",
          "~100 % at any deployment: the route is valid (§4)", 0.95, 1.0,
          "bench_ablation_deployment", "deployment",
          lambda points: [p.forged_subprefix_vs_nonminimal for p in points]),
    # Why full-deployment compression is only ~6 % (§6).
    Claim("density-no-deaggregation", "nothing to compress", 0.0, 0.01,
          "bench_ablation_density", "density", lambda ratios: ratios[0]),
    Claim("density-heavy-deaggregation", "large savings", 0.25, 1.0,
          "bench_ablation_density", "density", lambda ratios: ratios[-1]),
    Claim("density-step", "compression grows with de-aggregation",
          -0.005, 1.0, "bench_ablation_density", "density", _steps),
    # Algorithm 1 is essentially optimal on minimal inputs (§7).
    Claim("optimality-gap", "6.1 % achieved vs 6.2 % bound", 0.0, 0.01,
          "bench_ablation_scaling::test_bench_optimality_gap",
          "optimality", lambda gap: gap),
)


@pytest.mark.parametrize("claim", CLAIMS, ids=lambda claim: claim.name)
def test_claim_within_band(claim, request):
    measured = claim.measure(request.getfixturevalue(claim.fixture))
    values = measured if isinstance(measured, list) else [measured]
    outside = [v for v in values if not claim.low <= v <= claim.high]
    assert not outside, (
        f"{outside} outside [{claim.low}, {claim.high}]; the paper prints "
        f"{claim.paper} (from {claim.source})"
    )
