"""Tests for the analysis layer: Table 1, Figure 3, §6, overhead."""

from __future__ import annotations

import pytest

from repro.analysis import (
    PAPER_TABLE1,
    compute_figure3a,
    compute_figure3b,
    compute_table1,
    measure_compression_overhead,
    measure_section6,
    render_panel,
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
from repro.data import GeneratorConfig, SeriesConfig, generate_weekly_series
from repro.netbase import Prefix
from repro.rpki import Vrp


def p(text: str) -> Prefix:
    return Prefix.parse(text)


@pytest.fixture(scope="module")
def table1(tiny_snapshot_module):
    snapshot = tiny_snapshot_module
    return compute_table1(snapshot.vrps, snapshot.announced)


@pytest.fixture(scope="module")
def tiny_snapshot_module():
    from repro.data import generate_snapshot

    return generate_snapshot(GeneratorConfig(scale=0.005, seed=7))


class TestTable1:
    def test_has_seven_rows_in_paper_order(self, table1):
        assert len(table1.rows) == 7
        assert [row.scenario for row in table1.rows] == list(PAPER_TABLE1)

    def test_security_flags_match_paper(self, table1):
        expected = {
            TODAY: False,
            TODAY_COMPRESSED: False,
            TODAY_MINIMAL: True,
            TODAY_MINIMAL_COMPRESSED: True,
            FULL_MINIMAL: True,
            FULL_MINIMAL_COMPRESSED: True,
            FULL_LOWER_BOUND: False,
        }
        for row in table1.rows:
            assert row.secure == expected[row.scenario], row.scenario

    def test_row_orderings_match_paper(self, table1):
        """The qualitative content of Table 1: who is smaller than whom."""
        n = {row.scenario: row.pdus for row in table1.rows}
        assert n[TODAY_COMPRESSED] < n[TODAY]
        assert n[TODAY] < n[TODAY_MINIMAL]
        assert n[TODAY_MINIMAL_COMPRESSED] < n[TODAY_MINIMAL]
        assert n[TODAY_COMPRESSED] < n[TODAY_MINIMAL_COMPRESSED]
        assert n[FULL_MINIMAL_COMPRESSED] < n[FULL_MINIMAL]
        assert n[FULL_LOWER_BOUND] <= n[FULL_MINIMAL_COMPRESSED]
        assert n[TODAY_MINIMAL] < n[FULL_MINIMAL]

    def test_render_contains_all_rows(self, table1):
        text = table1.render()
        for scenario in PAPER_TABLE1:
            assert scenario in text

    def test_by_scenario_lookup(self, table1):
        assert table1.by_scenario(TODAY).scenario == TODAY
        with pytest.raises(KeyError):
            table1.by_scenario("nonsense")


class TestSection6:
    def test_measurements_consistent_with_table1(self, tiny_snapshot_module, table1):
        snapshot = tiny_snapshot_module
        m = measure_section6(snapshot.vrps, snapshot.announced)
        assert m.status_quo_pdus == table1.by_scenario(TODAY).pdus
        assert m.minimal_pdus == table1.by_scenario(TODAY_MINIMAL).pdus
        assert m.full_deployment_pdus == table1.by_scenario(FULL_MINIMAL).pdus
        assert m.full_deployment_bound == table1.by_scenario(FULL_LOWER_BOUND).pdus

    def test_additional_prefixes_arithmetic(self, tiny_snapshot_module):
        snapshot = tiny_snapshot_module
        m = measure_section6(snapshot.vrps, snapshot.announced)
        # minimal = (status-quo pairs that remain) + additional; since
        # some VRP prefixes are unannounced, this is an inequality:
        assert m.minimal_pdus <= m.status_quo_pdus + m.additional_prefixes
        assert m.additional_prefixes > 0

    def test_compression_bound_ordering(self, tiny_snapshot_module):
        snapshot = tiny_snapshot_module
        m = measure_section6(snapshot.vrps, snapshot.announced)
        assert m.achieved_compression_fraction <= m.max_compression_fraction
        assert m.full_deployment_bound <= m.full_deployment_compressed

    def test_summary_lines_cover_all_numbers(self, tiny_snapshot_module):
        snapshot = tiny_snapshot_module
        m = measure_section6(snapshot.vrps, snapshot.announced)
        text = "\n".join(m.summary_lines())
        assert "maxLength" in text and "vulnerable" in text
        assert str(m.full_deployment_bound) in text


@pytest.fixture(scope="module")
def weekly_series():
    return generate_weekly_series(
        SeriesConfig(base=GeneratorConfig(scale=0.004, seed=3))
    )


class TestFigure3:
    def test_series_has_eight_weeks(self, weekly_series):
        assert len(weekly_series) == 8
        assert weekly_series[0].label == "2017-04-13"
        assert weekly_series[-1].label == "2017-06-01"

    def test_panel_a_series_names_and_safety(self, weekly_series):
        panel = compute_figure3a(weekly_series)
        names = {s.name: s.secure for s in panel.series}
        assert names == {
            "Status quo": False,
            "Status quo (compressed)": False,
            "Minimal ROAs, no maxLength": True,
            "Minimal ROAs, with maxLength": True,
        }

    def test_panel_a_orderings_hold_every_week(self, weekly_series):
        panel = compute_figure3a(weekly_series)
        by_name = {s.name: s.values for s in panel.series}
        for week in range(8):
            assert by_name["Status quo (compressed)"][week] < by_name["Status quo"][week]
            assert by_name["Minimal ROAs, with maxLength"][week] < by_name[
                "Minimal ROAs, no maxLength"
            ][week]
            assert by_name["Status quo"][week] < by_name["Minimal ROAs, no maxLength"][week]

    def test_panel_b_series_names_and_safety(self, weekly_series):
        panel = compute_figure3b(weekly_series)
        names = {s.name: s.secure for s in panel.series}
        assert names == {
            "Minimal ROAs, no maxLength": True,
            "Minimal ROAs, with maxLength": True,
            "Lower bound on # PDUs": False,
        }

    def test_panel_b_orderings_hold_every_week(self, weekly_series):
        panel = compute_figure3b(weekly_series)
        by_name = {s.name: s.values for s in panel.series}
        for week in range(8):
            assert (
                by_name["Lower bound on # PDUs"][week]
                <= by_name["Minimal ROAs, with maxLength"][week]
                < by_name["Minimal ROAs, no maxLength"][week]
            )

    def test_table_grows_over_time(self, weekly_series):
        panel = compute_figure3b(weekly_series)
        plain = dict((s.name, s.values) for s in panel.series)[
            "Minimal ROAs, no maxLength"
        ]
        assert plain[-1] > plain[0] * 0.98  # trend up (noise tolerated)

    def test_render_panel_ascii(self, weekly_series):
        panel = compute_figure3a(weekly_series)
        text = render_panel(panel)
        assert "Status quo" in text
        assert "2017-04-13" in text and "2017-06-01" in text
        # vulnerable series plot lowercase, secure uppercase
        assert " a = Status quo [vulnerable]" in text
        assert " C = Minimal ROAs, no maxLength [secure]" in text


class TestOverhead:
    def test_measures_time_and_memory(self):
        vrps = [Vrp(p(f"10.{i}.0.0/16"), 16, i + 1) for i in range(200)]
        measurement = measure_compression_overhead("test", vrps)
        assert measurement.input_tuples == 200
        assert measurement.output_tuples == 200
        assert measurement.wall_seconds > 0
        assert measurement.peak_memory_bytes > 0
        assert "test:" in str(measurement)

    def test_memory_tracing_optional(self):
        vrps = [Vrp(p("10.0.0.0/16"), 16, 1)]
        measurement = measure_compression_overhead("t", vrps, trace_memory=False)
        assert measurement.peak_memory_bytes == 0


class TestTimeline:
    def test_timeline_covers_every_week(self, weekly_series):
        from repro.analysis import compute_timeline

        timeline = compute_timeline(weekly_series)
        assert len(timeline.points) == 8
        assert timeline.points[0].label == "2017-04-13"
        assert timeline.points[-1].label == "2017-06-01"

    def test_fractions_stay_in_calibrated_bands(self, weekly_series):
        """Per-week samples are tiny at test scale, so the §6 bands are
        checked on the aggregate across the whole series."""
        from repro.analysis import compute_timeline

        timeline = compute_timeline(weekly_series)
        total = sum(point.total_vrps for point in timeline.points)
        maxlength = sum(point.maxlength_vrps for point in timeline.points)
        vulnerable = sum(point.vulnerable_vrps for point in timeline.points)
        assert 0.06 <= maxlength / total <= 0.22
        assert vulnerable / maxlength >= 0.6

    def test_render_has_one_row_per_week(self, weekly_series):
        from repro.analysis import compute_timeline

        text = compute_timeline(weekly_series).render()
        assert text.count("2017-") == 8
