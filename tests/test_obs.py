"""Tests for repro.obs — the unified telemetry layer.

Covers the metrics registry (instruments, namespaced views, the null
off-switch, Prometheus exposition), the span tracer (no-op fast path,
Chrome trace export), the progress reporter, and — the layer's two
hard invariants — that instrumenting a run changes no result byte
under either executor, and that every subsystem's instruments actually
record on a real run.
"""

from __future__ import annotations

import io
import json

import pytest

from repro.bgp.fastprop import PropagationWorkspace
from repro.data import TopologyProfile, generate_topology
from repro.exper import (
    ExperimentRunner,
    ExperimentSpec,
    MaxLengthLooseRoa,
    MinimalRoa,
    ScenarioCell,
)
from repro.obs import (
    NULL_REGISTRY,
    Counter,
    Gauge,
    LatencyHistogram,
    MetricsRegistry,
    NullRegistry,
    ProgressReporter,
    Tracer,
    get_registry,
    set_registry,
    use_registry,
)
from repro.obs import trace as trace_mod
from repro.results import JsonlSink, MemorySink
import random


# ----------------------------------------------------------------------
# Instruments
# ----------------------------------------------------------------------


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        counter = Counter("c")
        assert counter.value == 0
        counter.inc()
        counter.inc(41)
        assert counter.value == 42


class TestGauge:
    def test_set_inc_dec(self):
        gauge = Gauge("g")
        gauge.set(5)
        gauge.inc(3)
        gauge.dec(6)
        assert gauge.value == 2

    def test_high_water_mark(self):
        gauge = Gauge("g")
        gauge.set(5)
        gauge.set(2)
        gauge.inc(1)
        assert gauge.value == 3
        assert gauge.max_value == 5


class TestLatencyHistogram:
    def test_zero_duration_lands_in_bucket_zero(self):
        histogram = LatencyHistogram("h")
        histogram.observe(0.0)
        counts = histogram.bucket_counts()
        assert counts[0] == 1
        assert sum(counts) == histogram.count == 1
        # Quantiles of an all-sub-us distribution report the smallest
        # bucket's upper bound.
        assert histogram.quantile(0.5) == LatencyHistogram.bucket_upper_seconds(0)

    def test_huge_duration_lands_in_overflow_bucket(self):
        histogram = LatencyHistogram("h")
        histogram.observe(3600.0)  # one hour >> the 2^22 us top bucket
        counts = histogram.bucket_counts()
        assert counts[-1] == 1
        assert histogram.quantile(0.99) == LatencyHistogram.bucket_upper_seconds(
            LatencyHistogram.BUCKETS - 1
        )

    def test_observe_many_matches_repeated_observe(self):
        many = LatencyHistogram("many")
        loop = LatencyHistogram("loop")
        many.observe_many(0.000128, 1000)
        for _ in range(1000):
            loop.observe(0.000128)
        assert many.count == loop.count == 1000
        assert many.bucket_counts() == loop.bucket_counts()
        assert many.snapshot() == pytest.approx(loop.snapshot())

    def test_snapshot_mean_consistent_with_totals(self):
        histogram = LatencyHistogram("h")
        histogram.observe_many(0.002, 10)
        snapshot = histogram.snapshot()
        assert snapshot["count"] == 10
        assert snapshot["mean_us"] == pytest.approx(2000.0)
        assert histogram.total_seconds == pytest.approx(0.02)

    def test_empty_quantile_is_zero(self):
        assert LatencyHistogram("h").quantile(0.99) == 0.0


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------


class TestMetricsRegistry:
    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.gauge("b") is registry.gauge("b")
        assert registry.histogram("c") is registry.histogram("c")

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError, match="Counter"):
            registry.gauge("x")
        with pytest.raises(ValueError):
            registry.histogram("x")

    def test_view_prefixes_names(self):
        registry = MetricsRegistry()
        view = registry.view("serve")
        assert view.counter("queries").name == "serve.queries"
        nested = view.view("rtr")
        assert nested.counter("pdus").name == "serve.rtr.pdus"
        # The same dotted name through the registry is the same object.
        assert view.counter("queries") is registry.counter("serve.queries")

    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.counter("exper.trials").inc(7)
        registry.gauge("exper.inflight").set(2)
        registry.histogram("exper.latency").observe(0.001)
        snapshot = registry.snapshot()
        assert snapshot["exper.trials"] == 7
        assert snapshot["exper.inflight"] == 2
        assert snapshot["exper.latency"]["count"] == 1
        json.dumps(snapshot)  # JSON-ready, by contract

    def test_enabled_flag(self):
        assert MetricsRegistry().enabled
        assert not NullRegistry().enabled
        assert MetricsRegistry().view("x").enabled
        assert not NullRegistry().view("x").enabled


class TestNullRegistry:
    def test_instruments_do_nothing(self):
        registry = NullRegistry()
        counter = registry.counter("a")
        counter.inc(100)
        assert counter.value == 0
        histogram = registry.histogram("h")
        histogram.observe(1.0)
        assert histogram.count == 0
        assert registry.snapshot() == {}
        assert registry.render_prometheus() == ""

    def test_use_registry_swaps_and_restores(self):
        before = get_registry()
        with use_registry(NULL_REGISTRY) as registry:
            assert registry is NULL_REGISTRY
            assert get_registry() is NULL_REGISTRY
        assert get_registry() is before

    def test_set_registry_returns_previous(self):
        before = get_registry()
        fresh = MetricsRegistry()
        assert set_registry(fresh) is before
        try:
            assert get_registry() is fresh
        finally:
            set_registry(before)


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------


def parse_prometheus(text: str) -> tuple[dict, dict]:
    """Parse an exposition into ({name_or_series: value}, {name: type}).

    Strict line-by-line: every line must be either a ``# TYPE``
    comment or ``<series> <number>``.
    """
    values: dict[str, float] = {}
    types: dict[str, str] = {}
    for line in text.splitlines():
        if line.startswith("# TYPE "):
            _, _, name, kind = line.split(" ")
            types[name] = kind
            continue
        assert not line.startswith("#"), f"unexpected comment: {line!r}"
        series, value = line.rsplit(" ", 1)
        values[series] = float(value)
    return values, types


class TestPrometheusExposition:
    def test_every_line_parses(self):
        registry = MetricsRegistry()
        registry.counter("serve.queries").inc(3)
        registry.gauge("exper.inflight").set(1.5)
        registry.histogram("serve.query_latency").observe(0.000100)
        values, types = parse_prometheus(registry.render_prometheus())
        assert types == {
            "exper_inflight": "gauge",
            "serve_queries": "counter",
            "serve_query_latency": "histogram",
        }
        assert values["serve_queries"] == 3
        assert values["exper_inflight"] == 1.5

    def test_counter_monotonic_across_snapshots(self):
        registry = MetricsRegistry()
        counter = registry.counter("serve.queries")
        last = 0.0
        for _ in range(5):
            counter.inc(2)
            values, _ = parse_prometheus(registry.render_prometheus())
            assert values["serve_queries"] >= last
            last = values["serve_queries"]
        assert last == 10

    def test_histogram_buckets_cumulative_and_sum_to_count(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("exper.trial_latency")
        for seconds in (0.0, 0.000002, 0.000002, 0.040, 100.0):
            histogram.observe(seconds)
        values, _ = parse_prometheus(registry.render_prometheus())
        buckets = {
            series: value
            for series, value in values.items()
            if series.startswith("exper_trial_latency_bucket")
        }
        # Bucket series are cumulative in le order and end at +Inf
        # with the total count.
        bounds = []
        for series in buckets:
            le = series.split('le="')[1].rstrip('"}')
            bounds.append(float("inf") if le == "+Inf" else float(le))
        ordered = [
            buckets[series]
            for _, series in sorted(zip(bounds, buckets), key=lambda p: p[0])
        ]
        assert ordered == sorted(ordered)
        assert ordered[-1] == 5
        assert values["exper_trial_latency_count"] == 5
        assert values["exper_trial_latency_sum"] == pytest.approx(
            100.040004, rel=1e-6
        )

    def test_names_sanitized(self):
        registry = MetricsRegistry()
        registry.counter("results.bytes-written").inc()
        values, types = parse_prometheus(registry.render_prometheus())
        assert "results_bytes_written" in values
        assert types["results_bytes_written"] == "counter"


# ----------------------------------------------------------------------
# Tracing
# ----------------------------------------------------------------------


class TestTracer:
    def test_disabled_span_is_shared_noop(self):
        tracer = Tracer()
        assert tracer.span("x") is tracer.span("y")
        with tracer.span("x"):
            pass
        assert len(tracer) == 0

    def test_enabled_span_records_complete_event(self):
        tracer = Tracer()
        tracer.enabled = True
        with tracer.span("propagate", cell="minimal"):
            pass
        (event,) = tracer.events()
        assert event["name"] == "propagate"
        assert event["ph"] == "X"
        assert event["dur"] >= 0
        assert event["args"] == {"cell": "minimal"}

    def test_instant_event(self):
        tracer = Tracer()
        tracer.enabled = True
        tracer.instant("stopped", fraction_index=1)
        (event,) = tracer.events()
        assert event["ph"] == "i"
        assert event["args"] == {"fraction_index": 1}

    def test_event_cap_counts_drops(self):
        tracer = Tracer(max_events=2)
        tracer.enabled = True
        for index in range(5):
            tracer.instant("e", index=index)
        assert len(tracer) == 2
        assert tracer.dropped == 3
        assert tracer.chrome_trace()["metadata"] == {"dropped_events": 3}

    def test_export_writes_loadable_chrome_trace(self, tmp_path):
        tracer = Tracer()
        tracer.enabled = True
        with tracer.span("run", trials=4):
            tracer.instant("tick")
        path = tmp_path / "trace.json"
        assert tracer.export(path) == 2
        document = json.loads(path.read_text(encoding="utf-8"))
        assert document["displayTimeUnit"] == "ms"
        names = [event["name"] for event in document["traceEvents"]]
        assert names == ["tick", "run"]  # spans record on exit
        for event in document["traceEvents"]:
            assert {"name", "ph", "ts", "pid", "tid"} <= set(event)

    def test_clear_resets_events_and_drops(self):
        tracer = Tracer(max_events=1)
        tracer.enabled = True
        tracer.instant("a")
        tracer.instant("b")
        tracer.clear()
        assert len(tracer) == 0
        assert tracer.dropped == 0

    def test_module_span_fast_path_off(self):
        assert not trace_mod.get_tracer().enabled
        assert trace_mod.span("anything") is trace_mod.span("else")

    def test_enable_disable_roundtrip(self, tmp_path):
        tracer = trace_mod.enable_tracing()
        try:
            with trace_mod.span("covered"):
                pass
            assert any(
                event["name"] == "covered" for event in tracer.events()
            )
            path = tmp_path / "out.json"
            count = trace_mod.write_chrome_trace(path)
            assert count == len(tracer)
            json.loads(path.read_text(encoding="utf-8"))
        finally:
            trace_mod.disable_tracing()
            tracer.clear()


# ----------------------------------------------------------------------
# Progress reporting
# ----------------------------------------------------------------------


def small_spec(trials: int = 4) -> ExperimentSpec:
    return ExperimentSpec(
        cells=(
            ScenarioCell("forged-origin-subprefix", MinimalRoa()),
            ScenarioCell("forged-origin-subprefix", MaxLengthLooseRoa()),
        ),
        trials=trials,
        seed=7,
    )


class TestProgressReporter:
    def run_records(self, spec):
        topology = generate_topology(
            TopologyProfile(ases=60), random.Random(3)
        )
        return list(ExperimentRunner(topology, spec).iter_records())

    def test_heartbeats_follow_the_injected_clock(self):
        spec = small_spec()
        records = self.run_records(spec)
        now = [0.0]
        stream = io.StringIO()
        reporter = ProgressReporter(
            spec, stream=stream, interval=10.0, clock=lambda: now[0]
        )
        for index, record in enumerate(records):
            now[0] = float(index)  # 1 "second" per record
            reporter.record(record)
        reporter.finish()
        lines = stream.getvalue().splitlines()
        # 8 records at 1s apart with a 10s interval: no mid-run line
        # until t>=10 never happens, so only the final line is real —
        # unless the stream got one at t>=10.
        assert reporter.lines_emitted == len(lines)
        assert lines[-1].startswith("progress: 4/4 trials (100.0%)")
        assert "cells 2/2 done" in lines[-1]
        assert "done" in lines[-1]

    def test_interval_zero_emits_every_record(self):
        spec = small_spec(trials=2)
        records = self.run_records(spec)
        now = [0.0]
        stream = io.StringIO()
        reporter = ProgressReporter(
            spec, stream=stream, interval=0.0, clock=lambda: now[0]
        )
        for record in records:
            now[0] += 1.0
            reporter.record(record)
        assert reporter.lines_emitted == len(records)

    def test_render_midway(self):
        spec = small_spec()
        records = self.run_records(spec)
        now = [0.0]
        reporter = ProgressReporter(
            spec, stream=io.StringIO(), interval=1e9, clock=lambda: now[0]
        )
        for record in records[: len(records) // 2]:
            reporter.record(record)
        now[0] = 2.0
        line = reporter.render()
        assert line.startswith("progress: 2/4 trials (50.0%)")
        assert "ETA" in line


# ----------------------------------------------------------------------
# The invariants: instrumented runs change nothing, and instruments
# actually record.
# ----------------------------------------------------------------------


class TestTelemetryInvariants:
    def grid(self):
        topology = generate_topology(
            TopologyProfile(ases=80), random.Random(5)
        )
        spec = small_spec(trials=3)
        return topology, spec

    @pytest.mark.parametrize("executor", ["serial", "sharded"])
    def test_results_byte_identical_with_telemetry_on_off(self, executor):
        topology, spec = self.grid()
        outcomes = {}
        for arm, registry in (
            ("off", NULL_REGISTRY),
            ("on", MetricsRegistry()),
        ):
            with use_registry(registry):
                runner = ExperimentRunner(
                    topology, spec, executor=executor,
                    workers=2 if executor == "sharded" else None,
                )
                result = runner.run(bootstrap_resamples=50)
            outcomes[arm] = json.dumps(
                {
                    "fractions": [
                        None if f is None else f for f in result.fractions
                    ],
                    "counts": list(result.trial_counts),
                    "stats": [
                        [
                            (s.cell, s.mean, s.stdev, s.ci_low, s.ci_high)
                            for s in row
                        ]
                        for row in result.stats
                    ],
                },
                sort_keys=True,
            )
        assert outcomes["on"] == outcomes["off"]

    def test_results_byte_identical_with_tracing_on(self):
        topology, spec = self.grid()
        baseline = ExperimentRunner(topology, spec).run(
            bootstrap_resamples=50
        )
        tracer = trace_mod.enable_tracing()
        try:
            traced = ExperimentRunner(topology, spec).run(
                bootstrap_resamples=50
            )
            assert len(tracer) > 0
        finally:
            trace_mod.disable_tracing()
            tracer.clear()
        assert traced == baseline

    def test_runner_and_fastprop_instruments_record(self):
        topology, spec = self.grid()
        with use_registry(MetricsRegistry()) as registry:
            result = ExperimentRunner(topology, spec).run(
                bootstrap_resamples=50
            )
        snapshot = registry.snapshot()
        total = spec.total_trials
        assert snapshot["exper.runs"] == 1
        assert snapshot["exper.trials_completed"] == total
        assert snapshot["exper.records_released"] == total * len(spec.cells)
        assert snapshot["exper.trial_latency"]["count"] == total
        # A workspace ran; an all-subprefix grid like this one is
        # closures throughout.
        assert snapshot["fastprop.closures"] > 0
        assert snapshot["fastprop.sweeps"] == 0
        assert result is not None

    def test_fastprop_workspace_counters(self):
        topology = generate_topology(
            TopologyProfile(ases=80), random.Random(5)
        )
        registry = MetricsRegistry()
        workspace = PropagationWorkspace(topology, registry=registry)
        spec = ExperimentSpec(
            cells=(
                ScenarioCell("forged-origin-subprefix", MinimalRoa()),
                ScenarioCell("forged-origin-subprefix", MaxLengthLooseRoa()),
            ),
            trials=2,
            seed=9,
        )
        from repro.exper import evaluate_trials, materialize_trials

        trials = materialize_trials(spec, topology)
        records = list(
            evaluate_trials(topology, spec, trials, workspace=workspace)
        )
        assert records
        snapshot = registry.snapshot()
        # Every propagation here is single-seed: adopted sets come
        # from the closure, and no race runs.
        assert snapshot["fastprop.closures"] > 0
        assert snapshot["fastprop.sweeps"] == 0
        assert snapshot["fastprop.touched_ases"] > 0
        assert snapshot["fastprop.epochs"] >= 1
        # Identical cells in one trial: the second cell's single-seed
        # propagations are served from the profile cache.
        assert snapshot["fastprop.profile_hits"] > 0
        assert snapshot["fastprop.profile_misses"] > 0

    def test_jsonl_sink_metrics(self, tmp_path):
        topology, spec = self.grid()
        registry = MetricsRegistry()
        path = tmp_path / "run.jsonl"
        sink = JsonlSink(path, registry=registry)
        runner = ExperimentRunner(topology, spec, sink=sink)
        runner.run(bootstrap_resamples=50)
        sink.close()
        snapshot = registry.snapshot()
        records = spec.total_trials * len(spec.cells)
        assert snapshot["results.records_written"] == records
        assert snapshot["results.flush_latency"]["count"] == records
        # Every record line plus newline reached the file.
        assert snapshot["results.bytes_written"] == (
            path.stat().st_size
            - len(path.read_bytes().split(b"\n", 1)[0]) - 1
        )

    def test_sink_with_null_registry_still_writes(self, tmp_path):
        topology, spec = self.grid()
        path = tmp_path / "run.jsonl"
        with use_registry(NULL_REGISTRY):
            sink = JsonlSink(path)
            runner = ExperimentRunner(topology, spec, sink=sink)
            result = runner.run(bootstrap_resamples=50)
            sink.close()
        from repro.results import read_run

        _, records = read_run(path)
        assert len(records) == spec.total_trials * len(spec.cells)
        assert result is not None

    def test_memory_sink_unaffected(self):
        # MemorySink predates the telemetry layer; a registry swap must
        # not change its behavior.
        topology, spec = self.grid()
        sink = MemorySink()
        with use_registry(MetricsRegistry()):
            ExperimentRunner(topology, spec, sink=sink).run(
                bootstrap_resamples=50
            )
        assert len(sink.records) == spec.total_trials * len(spec.cells)


# ----------------------------------------------------------------------
# ServeMetrics rebased onto the registry
# ----------------------------------------------------------------------


class TestServeMetricsRebase:
    def test_latency_histogram_reexported(self):
        from repro.serve.metrics import LatencyHistogram as Reexported

        assert Reexported is LatencyHistogram

    def test_serve_metrics_share_registry(self):
        from repro.serve.metrics import ServeMetrics

        registry = MetricsRegistry()
        metrics = ServeMetrics(registry=registry)
        metrics.increment("queries", 3)
        metrics.observe_query(0.0001)
        assert registry.snapshot()["serve.queries"] == 4
        assert metrics["queries"] == 4
        assert metrics.snapshot()["query_latency"]["count"] == 1

    def test_serve_metrics_private_by_default(self):
        from repro.serve.metrics import ServeMetrics

        a, b = ServeMetrics(), ServeMetrics()
        a.increment("queries")
        assert b["queries"] == 0

    def test_render_prometheus_includes_derived_gauge(self):
        from repro.serve.metrics import ServeMetrics

        metrics = ServeMetrics()
        metrics.increment("connections_opened", 3)
        metrics.increment("connections_closed", 1)
        values, types = parse_prometheus(metrics.render_prometheus())
        assert values["serve_connections_active"] == 2
        assert types["serve_connections_active"] == "gauge"
        assert values["serve_connections_opened"] == 3
