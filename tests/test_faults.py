"""repro.faults: deterministic fault injection, and chaos equivalence.

The contracts pinned here:

* a :class:`FaultPlan` is pure data — JSON round trips, and
  :meth:`FaultPlan.generate` derives the same schedule from the same
  seed (different seeds diverge);
* :func:`fire` is inert with no plan installed, and with one installed
  honours ``at`` ordinals, ``match`` context filters, and errno
  selection exactly, logging every injection and counting it in the
  ``faults.injected`` metric;
* :class:`RetryPolicy` backoff is deterministic (token-keyed jitter),
  capped, and validates its inputs;
* **chaos equivalence** (invariant 7, docs/architecture.md): a
  sharded run under an aggressive seeded fault plan — worker crashes
  and injected IO errors mid-stream — produces a result and a sink
  file byte-identical to a fault-free serial run;
* a :class:`JsonlSink` hit by an injected ``ENOSPC`` mid-write
  degrades fail-safe: typed :class:`SinkWriteError`, ``dirty`` flag,
  intact prefix, and a fresh sink resumes to byte-identical output.
"""

from __future__ import annotations

import errno
import random

import pytest

from repro.data import TopologyProfile, generate_topology
from repro.exper import (
    ExperimentRunner,
    ExperimentSpec,
    MaxLengthLooseRoa,
    MinimalRoa,
    ScenarioCell,
)
from repro.faults import (
    PLAN_ENV,
    SITES,
    FaultPlan,
    FaultRule,
    RetryPolicy,
    active_plan,
    fire,
    injected_delay,
    install,
    install_from_env,
    uninstall,
)
from repro.netbase.errors import ReproError
from repro.obs import MetricsRegistry, use_registry
from repro.results import JsonlSink, RunHeader, SinkWriteError, read_run


#: An exception nobody could catch (a handler left pending past its
#: loop, a transport collected unclosed under ``-W error``) fails the
#: test that caused it.
pytestmark = pytest.mark.filterwarnings(
    "error::pytest.PytestUnraisableExceptionWarning")


@pytest.fixture(autouse=True)
def no_leftover_plan():
    """Every test starts and ends with no plan installed."""
    uninstall()
    yield
    uninstall()


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


def run_recorded(topology, spec, path, **runner_kwargs):
    """A recorded run; returns (result, file bytes)."""
    sink = JsonlSink(path)
    try:
        result = ExperimentRunner(
            topology, spec, sink=sink, **runner_kwargs
        ).run(bootstrap_resamples=200)
    finally:
        sink.close()
    return result, path.read_bytes()


# ----------------------------------------------------------------------
# Rules and plans as data
# ----------------------------------------------------------------------


class TestFaultRule:
    def test_validates_action(self):
        with pytest.raises(ReproError, match="action"):
            FaultRule(site="results.sink.write", action="explode")

    def test_validates_error_kind(self):
        with pytest.raises(ReproError, match="error kind"):
            FaultRule(site="results.sink.write", action="error",
                      error="eperm")

    def test_validates_ordinals(self):
        with pytest.raises(ReproError, match="1-based"):
            FaultRule(site="results.sink.write", action="error", at=(0,))
        with pytest.raises(ReproError, match="1-based"):
            FaultRule(site="results.sink.write", action="error", at=())

    def test_validates_delay(self):
        with pytest.raises(ReproError, match="delay"):
            FaultRule(site="serve.http.request", action="stall",
                      delay=-0.1)
        with pytest.raises(ReproError, match="delay"):
            FaultRule(site="serve.http.request", action="stall",
                      delay=float("nan"))

    def test_match_accepts_mapping(self):
        rule = FaultRule(site="exper.shard.record", action="crash",
                         match={"shard": 1, "attempt": 0})
        assert rule.match == (("attempt", "0"), ("shard", "1"))
        assert rule.matches(
            "exper.shard.record", {"shard": 1, "attempt": 0}
        )
        assert not rule.matches(
            "exper.shard.record", {"shard": 2, "attempt": 0}
        )
        assert not rule.matches("results.sink.write", {"shard": 1})


class TestFaultPlan:
    def test_json_round_trip(self):
        plan = FaultPlan(
            rules=(
                FaultRule(site="results.sink.write", action="error",
                          at=(2, 5), error="enospc",
                          match=(("path", "/tmp/x"),)),
                FaultRule(site="serve.http.request", action="stall",
                          delay=0.01),
            ),
            seed=13,
        )
        parsed = FaultPlan.from_json(plan.to_json())
        assert parsed.rules == plan.rules
        assert parsed.seed == plan.seed
        assert parsed.to_json() == plan.to_json()

    def test_from_json_rejects_garbage(self):
        with pytest.raises(ReproError, match="JSON"):
            FaultPlan.from_json("{nope")
        with pytest.raises(ReproError, match="repro.faults/plan"):
            FaultPlan.from_json('{"kind": "other"}')
        with pytest.raises(ReproError, match="schema"):
            FaultPlan.from_json(
                '{"kind": "repro.faults/plan", "schema": 99}'
            )

    _RULE = '{"site": "exper.shard.record", "action": "stall", "delay": 0.5'

    @pytest.mark.parametrize("text,field", [
        pytest.param(_RULE + ', "at": ["3"]}', "at", id="at-string"),
        pytest.param(_RULE + ', "at": [2.9]}', "at", id="at-float"),
        pytest.param(_RULE + ', "at": [true]}', "at", id="at-bool"),
        pytest.param(
            '{"site": "x", "action": "stall", "delay": "0.5"}', "delay",
            id="delay-string",
        ),
        pytest.param(
            '{"site": "x", "action": "stall", "delay": NaN}', "delay",
            id="delay-nan",
        ),
        pytest.param(
            '{"site": "x", "action": "stall", "delay": Infinity}', "delay",
            id="delay-infinity",
        ),
        pytest.param(
            '{"site": 5, "action": "crash"}', "site", id="site-int",
        ),
        pytest.param(_RULE + ', "att": [4]}', "att", id="unknown-key"),
        pytest.param(
            _RULE + ', "match": {"ab": "x"}}', "match", id="match-object",
        ),
        pytest.param(
            _RULE + ', "match": [["shard", 1]]}', "match", id="match-int",
        ),
        pytest.param(
            _RULE + ', "match": [["a", "b", "c"]]}', "match",
            id="match-triple",
        ),
    ])
    def test_rules_decode_exactly(self, text, field):
        """A rule's wire form is exactly what ``to_json`` writes: no
        ``int("3")``, no ``str(5)``, no non-finite delay (``time.sleep``
        would raise it untyped at the site), and no object iterated
        into a ``match`` that never fires."""
        plan = '{"kind": "repro.faults/plan", "schema": 1, "rules": [%s]}'
        with pytest.raises(ReproError, match=field):
            FaultPlan.from_json(plan % text)

    @pytest.mark.parametrize("fields,field", [
        pytest.param('"seed": 7.9', "seed", id="seed-float"),
        pytest.param('"seed": "7"', "seed", id="seed-string"),
        pytest.param('"schema": true', "schema", id="schema-bool"),
        pytest.param('"rules": [], "ruls": []', "ruls", id="unknown-key"),
    ])
    def test_plan_decodes_exactly(self, fields, field):
        # A repeated key reads as its last value.
        text = '{"kind": "repro.faults/plan", "schema": 1, %s}' % fields
        with pytest.raises(ReproError, match=field):
            FaultPlan.from_json(text)

    def test_generate_is_deterministic(self):
        first = FaultPlan.generate(7, shards=3)
        again = FaultPlan.generate(7, shards=3)
        assert first.to_json() == again.to_json()
        # Not a constant: some nearby seed must produce a different
        # schedule (all-equal would mean the seed is ignored).
        assert any(
            FaultPlan.generate(seed, shards=3).to_json()
            != first.to_json()
            for seed in range(8, 16)
        )

    def test_generate_profiles(self):
        sharded = FaultPlan.generate(3, shards=2, rules=4)
        assert all(
            rule.site == "exper.shard.record" for rule in sharded.rules
        )
        assert all(
            ("attempt", "0") in rule.match for rule in sharded.rules
        )
        serve = FaultPlan.generate(3, rules=4, profile="serve")
        assert all(
            rule.site == "serve.http.request" for rule in serve.rules
        )
        with pytest.raises(ReproError, match="profile"):
            FaultPlan.generate(3, profile="nope")

    def test_sites_cover_generated_plans(self):
        for profile in ("sharded", "serve"):
            for rule in FaultPlan.generate(1, profile=profile).rules:
                assert rule.site in SITES


# ----------------------------------------------------------------------
# Firing semantics
# ----------------------------------------------------------------------


class TestFire:
    def test_inert_without_plan(self):
        assert active_plan() is None
        fire("results.sink.write", path="x")  # must not raise

    def test_install_uninstall(self):
        plan = install(FaultPlan())
        assert active_plan() is plan
        uninstall()
        assert active_plan() is None

    def test_at_ordinal_and_errno(self):
        install(FaultPlan(rules=(
            FaultRule(site="results.sink.write", action="error",
                      at=(3,), error="enospc"),
        )))
        fire("results.sink.write")
        fire("results.sink.write")
        with pytest.raises(OSError) as caught:
            fire("results.sink.write")
        assert caught.value.errno == errno.ENOSPC
        fire("results.sink.write")  # ordinal passed; inert again

    def test_match_filters_context(self):
        plan = install(FaultPlan(rules=(
            FaultRule(site="exper.shard.record", action="error",
                      at=(1,), match=(("shard", "1"),)),
        )))
        fire("exper.shard.record", shard=0)  # no match, no hit
        fire("other.site", shard=1)
        with pytest.raises(OSError) as caught:
            fire("exper.shard.record", shard=1)
        assert caught.value.errno == errno.EIO
        assert len(plan.fired) == 1
        event = plan.fired[0]
        assert event["site"] == "exper.shard.record"
        assert event["action"] == "error"
        assert event["hit"] == 1
        assert event["context"] == {"shard": "1"}

    def test_injections_counted_in_registry(self):
        registry = MetricsRegistry()
        with use_registry(registry):
            install(FaultPlan(rules=(
                FaultRule(site="results.sink.write", action="error"),
            )))
            with pytest.raises(OSError):
                fire("results.sink.write")
        assert registry.snapshot()["faults.injected"] == 1

    def test_injected_delay_reset(self):
        install(FaultPlan(rules=(
            FaultRule(site="serve.http.request", action="reset"),
        )))
        with pytest.raises(ConnectionResetError):
            injected_delay("serve.http.request", path="/validity")

    def test_stall_returns_after_delay(self):
        install(FaultPlan(rules=(
            FaultRule(site="serve.http.request", action="stall",
                      delay=0.001),
        )))
        fire("serve.http.request")  # sleeps, then continues

    def test_install_from_env(self, monkeypatch):
        plan = FaultPlan.generate(5, shards=2)
        monkeypatch.setenv(PLAN_ENV, plan.to_json())
        installed = install_from_env()
        assert installed is not None
        assert installed.to_json() == plan.to_json()
        assert active_plan() is installed
        monkeypatch.delenv(PLAN_ENV)
        # Without the variable the active plan is left untouched.
        assert install_from_env() is None
        assert active_plan() is installed


# ----------------------------------------------------------------------
# RetryPolicy
# ----------------------------------------------------------------------


class TestRetryPolicy:
    def test_allows_counts_attempts(self):
        policy = RetryPolicy(retries=2)
        assert policy.allows(1)
        assert policy.allows(2)
        assert not policy.allows(3)
        assert not RetryPolicy(retries=0).allows(1)

    def test_default_has_zero_delay(self):
        assert RetryPolicy().backoff(1) == 0.0
        assert RetryPolicy().backoff(5) == 0.0

    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(retries=8, base_delay=1.0, multiplier=2.0,
                             max_delay=5.0)
        assert policy.backoff(1) == 1.0
        assert policy.backoff(2) == 2.0
        assert policy.backoff(3) == 4.0
        assert policy.backoff(4) == 5.0  # capped
        assert policy.backoff(8) == 5.0

    def test_jitter_is_deterministic_and_token_keyed(self):
        policy = RetryPolicy(retries=4, base_delay=1.0, jitter=0.5)
        one = policy.backoff(2, token="run:0")
        assert one == policy.backoff(2, token="run:0")
        assert one != policy.backoff(2, token="run:1")
        # Jitter only adds, bounded by the fraction and the cap.
        base = RetryPolicy(retries=4, base_delay=1.0).backoff(2)
        assert base <= one <= base * 1.5

    def test_validation(self):
        with pytest.raises(ReproError):
            RetryPolicy(retries=-1)
        with pytest.raises(ReproError):
            RetryPolicy(base_delay=-0.1)
        with pytest.raises(ReproError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ReproError):
            RetryPolicy(jitter=1.5)


# ----------------------------------------------------------------------
# Chaos equivalence: faulted sharded run == fault-free serial run
# ----------------------------------------------------------------------


class TestChaosEquivalence:
    def test_hand_built_plan_preserves_bytes(
        self, topology, tmp_path, monkeypatch
    ):
        """Crash + IO-error faults on first attempts change nothing."""
        spec = small_spec()
        serial, serial_bytes = run_recorded(
            topology, spec, tmp_path / "serial.jsonl", executor="serial"
        )
        plan = FaultPlan(rules=(
            FaultRule(site="exper.shard.record", action="error",
                      at=(3,), error="enospc",
                      match=(("shard", "1"), ("attempt", "0"))),
            FaultRule(site="exper.shard.record", action="crash",
                      at=(2,),
                      match=(("shard", "0"), ("attempt", "0"))),
        ))
        monkeypatch.setenv(PLAN_ENV, plan.to_json())
        chaotic, chaotic_bytes = run_recorded(
            topology, spec, tmp_path / "chaos.jsonl",
            executor="sharded", shards=3,
        )
        assert chaotic_bytes == serial_bytes
        assert chaotic.trial_counts == serial.trial_counts
        assert [
            [stats.mean for stats in row] for row in chaotic.stats
        ] == [[stats.mean for stats in row] for row in serial.stats]

    def test_generated_plan_preserves_bytes(
        self, topology, tmp_path, monkeypatch
    ):
        """The CLI's seeded plan path: generate, ship via env, run."""
        spec = small_spec(trials=4)
        _, serial_bytes = run_recorded(
            topology, spec, tmp_path / "serial.jsonl", executor="serial"
        )
        plan = FaultPlan.generate(7, shards=3, max_hit=3)
        monkeypatch.setenv(PLAN_ENV, plan.to_json())
        _, chaotic_bytes = run_recorded(
            topology, spec, tmp_path / "chaos.jsonl",
            executor="sharded", shards=3,
        )
        assert chaotic_bytes == serial_bytes

    def test_killed_worker_under_early_stopping_preserves_bytes(
        self, topology, tmp_path, monkeypatch
    ):
        """The shard whose trials decide fraction 0's stop is SIGKILLed
        mid-trial; its retry still fixes the serial run's stop, and the
        chunks past it are skipped, not failed."""
        from repro.obs import MetricsRegistry

        spec = small_spec(
            trials=24, stopping="ci", stop_ci_width=0.4,
            stop_min_trials=3, stop_check_every=2,
        )
        serial, serial_bytes = run_recorded(
            topology, spec, tmp_path / "serial.jsonl", executor="serial"
        )
        assert max(serial.trial_counts) < spec.trials
        plan = FaultPlan(rules=(
            FaultRule(site="exper.shard.record", action="crash",
                      at=(3,),
                      match=(("shard", "0"), ("attempt", "0"))),
        ))
        monkeypatch.setenv(PLAN_ENV, plan.to_json())
        registry = MetricsRegistry()
        chaotic, chaotic_bytes = run_recorded(
            topology, spec, tmp_path / "chaos.jsonl",
            executor="sharded", shards=8, workers=2, registry=registry,
        )
        assert chaotic_bytes == serial_bytes
        assert chaotic.trial_counts == serial.trial_counts
        counters = registry.snapshot()
        # One death, one retry — and nothing else counted as either.
        assert counters["exper.shards_failed"] == 1
        assert counters["exper.shards_retried"] == 1
        assert counters["exper.shards_completed"] < 8


# ----------------------------------------------------------------------
# Sink fail-safe degradation
# ----------------------------------------------------------------------


class TestSinkFaults:
    def test_enospc_mid_write_degrades_then_resumes(
        self, topology, tmp_path
    ):
        spec = small_spec(trials=3, fractions=(None,))
        # The reference: an undisturbed recording of the same run.
        _, clean_bytes = run_recorded(
            topology, spec, tmp_path / "clean.jsonl", executor="serial"
        )
        install(FaultPlan(rules=(
            FaultRule(site="results.sink.write", action="error",
                      at=(3,), error="enospc"),
        )))
        sink = JsonlSink(tmp_path / "faulted.jsonl")
        runner = ExperimentRunner(
            topology, spec, sink=sink, executor="serial"
        )
        with pytest.raises(SinkWriteError) as caught:
            runner.run(bootstrap_resamples=200)
        sink.close()
        assert caught.value.errno == errno.ENOSPC
        assert caught.value.path == tmp_path / "faulted.jsonl"
        assert sink.dirty
        # A dirty sink refuses further use...
        with pytest.raises(ReproError, match="dirty"):
            sink.write(None)
        with pytest.raises(ReproError, match="dirty"):
            sink.begin(RunHeader.for_spec(spec, topology))
        # ...but never corrupted the prefix: the two records written
        # before the fault read back cleanly.
        header, records = read_run(tmp_path / "faulted.jsonl")
        assert header.spec_hash == spec.spec_hash()
        assert len(records) == 2
        # And the run stays resumable to byte-identical output.
        uninstall()
        fresh = JsonlSink(tmp_path / "faulted.jsonl")
        try:
            ExperimentRunner(
                topology, spec, sink=fresh, resume_from=fresh,
                executor="serial",
            ).run(bootstrap_resamples=200)
        finally:
            fresh.close()
        assert (tmp_path / "faulted.jsonl").read_bytes() == clean_bytes

    def test_write_failure_prefix_never_corrupted(self, tmp_path):
        """Every record so far survives whichever write the fault hits."""
        from repro.exper import TrialRecord

        def sample_record(trial_index: int) -> TrialRecord:
            return TrialRecord(
                fraction_index=0, trial_index=trial_index, cell_index=0,
                fraction=None,
                cell="forged-origin-subprefix/minimal", victim=111,
                attackers=(666,), attacker_fraction=0.25,
                victim_fraction=0.5, disconnected_fraction=0.25,
                attack_route_filtered=False,
            )

        spec = small_spec(trials=3, fractions=(None,))
        header = RunHeader.for_spec(spec)
        for fail_at in (1, 2, 4):
            install(FaultPlan(rules=(
                FaultRule(site="results.sink.write", action="error",
                          at=(fail_at,)),
            )))
            path = tmp_path / f"fail{fail_at}.jsonl"
            sink = JsonlSink(path)
            sink.begin(header)
            written = 0
            try:
                for trial in range(6):
                    sink.write(sample_record(trial))
                    written += 1
            except SinkWriteError:
                pass
            sink.close()
            uninstall()
            assert written == fail_at - 1
            got_header, records = read_run(path)
            assert got_header.spec_hash == header.spec_hash
            assert len(records) == written


# ----------------------------------------------------------------------
# The delay action: deterministic latency jitter
# ----------------------------------------------------------------------


class TestDelayFaults:
    def test_delay_rule_requires_positive_base(self):
        with pytest.raises(ReproError, match="positive"):
            FaultRule(site="serve.http.request", action="delay")
        FaultRule(site="serve.http.request", action="delay",
                  delay=0.01)  # fine

    def test_delay_for_is_deterministic_jitter(self):
        rule = FaultRule(site="serve.http.request", action="delay",
                         delay=0.01)
        plan = FaultPlan(rules=(rule,), seed=5)
        delays = [
            plan.delay_for(rule, "serve.http.request", hit)
            for hit in range(8)
        ]
        again = [
            plan.delay_for(rule, "serve.http.request", hit)
            for hit in range(8)
        ]
        assert delays == again
        # Jitter scales the base into [0.5, 1.5) and varies per hit
        # (a constant would be stall, not jitter).
        assert all(0.005 <= value < 0.015 for value in delays)
        assert len(set(delays)) > 1
        other = FaultPlan(rules=(rule,), seed=6)
        assert delays != [
            other.delay_for(rule, "serve.http.request", hit)
            for hit in range(8)
        ]

    def test_stall_stays_verbatim(self):
        rule = FaultRule(site="serve.http.request", action="stall",
                         delay=0.02)
        plan = FaultPlan(rules=(rule,), seed=5)
        assert plan.delay_for(rule, "serve.http.request", 3) == 0.02

    def test_fire_sleeps_the_jittered_delay_then_continues(self):
        registry = MetricsRegistry()
        with use_registry(registry):
            install(FaultPlan(rules=(
                FaultRule(site="results.sink.write", action="delay",
                          delay=0.001, at=(1, 2, 3)),
            ), seed=1))
            for _ in range(3):
                fire("results.sink.write")  # delayed, never raises
        assert registry.snapshot()["faults.injected"] == 3

    def test_generated_serve_plans_include_delay(self):
        actions = {
            rule.action
            for seed in range(12)
            for rule in FaultPlan.generate(
                seed, rules=6, profile="serve"
            ).rules
        }
        assert "delay" in actions

    def test_chaos_grid_is_the_experiment_default_grid(self, capsys):
        """``chaos --drill experiment`` runs the grid ``experiment
        --trials N --seed S`` runs, so its output compares 1:1."""
        from repro.cli import build_parser, main
        from repro.cli.chaos import _chaos_spec
        from repro.exper import ExperimentSpec

        for trials, seed in ((12, 0), (5, 3)):
            args = build_parser().parse_args([
                "chaos", "--drill", "experiment", "--trials", str(trials),
                "--spec-seed", str(seed),
            ])
            assert main([
                "experiment", "--trials", str(trials), "--seed", str(seed),
                "--emit-spec",
            ]) == 0
            emitted = ExperimentSpec.from_json(capsys.readouterr().out)
            assert _chaos_spec(args).spec_hash() == emitted.spec_hash()

    def test_chaos_emit_plan_surfaces_delay_rules(self, capsys):
        from repro.cli import main

        for seed in range(12):
            assert main([
                "chaos", "--drill", "serve", "--seed", str(seed),
                "--emit-plan",
            ]) == 0
        emitted = capsys.readouterr().out
        assert '"action": "delay"' in emitted or '"delay"' in emitted
        plans = [
            FaultPlan.from_json(line)
            for line in emitted.splitlines() if line.strip()
        ]
        assert any(
            rule.action == "delay"
            for plan in plans for rule in plan.rules
        )


# ----------------------------------------------------------------------
# Client and transport fault sites (RTR client, HTTP shard transport)
# ----------------------------------------------------------------------


class TestClientAndTransportSites:
    def test_rtr_client_sites_registered(self):
        assert "rtr.client.send" in SITES
        assert "rtr.client.recv" in SITES
        assert "jobs.enqueue" in SITES
        assert "jobs.execute" in SITES

    def test_rtr_client_send_fault_injected(self):
        from repro.rtr import RtrClient
        from repro.serve import ThreadedRtrServer

        with ThreadedRtrServer([]) as server:
            install(FaultPlan(rules=(
                FaultRule(site="rtr.client.send", action="reset",
                          at=(1,)),
            )))
            with pytest.raises(ConnectionResetError, match="injected"):
                with RtrClient(server.host, server.port) as client:
                    client.sync()
            uninstall()
            with RtrClient(server.host, server.port) as client:
                client.sync()  # healthy again without the plan

    def test_rtr_client_recv_fault_injected(self):
        from repro.rtr import RtrClient
        from repro.serve import ThreadedRtrServer

        with ThreadedRtrServer([]) as server:
            install(FaultPlan(rules=(
                FaultRule(site="rtr.client.recv", action="error",
                          error="io", at=(1,)),
            )))
            with pytest.raises(OSError, match="injected"):
                with RtrClient(server.host, server.port) as client:
                    client.sync()

    def test_transport_retries_transient_request_faults(
        self, topology, tmp_path
    ):
        """A fault on the first HTTP round trip is absorbed by the
        transport's RetryPolicy pacing: the run completes and stays
        byte-identical to a fault-free serial recording."""
        from repro.serve import (
            HttpShardTransport,
            ThreadedShardWorkerServer,
        )

        spec = small_spec(trials=4, fractions=(None,), seed=6)
        _, serial_bytes = run_recorded(
            topology, spec, tmp_path / "serial.jsonl",
            executor="serial")
        with ThreadedShardWorkerServer(topology) as worker:
            transport = HttpShardTransport(
                [f"127.0.0.1:{worker.port}"],
                retry=RetryPolicy(retries=2, base_delay=0.01,
                                  jitter=0.5),
            )
            install(FaultPlan(rules=(
                FaultRule(site="serve.shards.request", action="error",
                          error="io", at=(1, 4)),
                FaultRule(site="serve.shards.request", action="reset",
                          at=(2,)),
            )))
            _, faulted_bytes = run_recorded(
                topology, spec, tmp_path / "faulted.jsonl",
                executor="sharded", shards=2,
                shard_transport=transport)
        assert faulted_bytes == serial_bytes

    def test_transport_gives_up_when_policy_exhausted(self, topology):
        from repro.serve import HttpShardTransport

        transport = HttpShardTransport(
            ["127.0.0.1:9"],
            retry=RetryPolicy(retries=1, base_delay=0.0),
            request_timeout=0.5,
        )
        install(FaultPlan(rules=(
            FaultRule(site="serve.shards.request", action="error",
                      error="io"),
        )))
        with pytest.raises(ReproError, match="injected|worker"):
            transport._request_raw("GET", "http://127.0.0.1:9/status")
