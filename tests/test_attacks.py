"""Tests for attack scenarios: the §4/§5 comparisons, deterministic."""

from __future__ import annotations

import random

import pytest

from repro.bgp import (
    AttackKind,
    AttackScenario,
    Seed,
    VrpIndex,
    evaluate_attack,
    evaluate_attack_seeds,
    reference_attack_seeds,
)
from repro.netbase import Prefix
from repro.netbase.errors import ReproError
from repro.rpki import Vrp


def p(text: str) -> Prefix:
    return Prefix.parse(text)


P16 = p("168.122.0.0/16")
P24 = p("168.122.0.0/24")

#: the non-minimal ROA of §4: (168.122.0.0/16-24, AS 111)
LOOSE = VrpIndex([Vrp(P16, 24, 111)])
#: the minimal ROA of §5: (168.122.0.0/16, AS 111)
MINIMAL = VrpIndex([Vrp(P16, 16, 111)])


class TestScenarioConstruction:
    def test_forged_origin_seed_includes_victim(self):
        scenario = AttackScenario(
            AttackKind.FORGED_ORIGIN_SUBPREFIX, 111, 666, P16, P24
        )
        assert scenario.attacker_seed().path == (666, 111)
        assert scenario.is_subprefix_attack

    def test_plain_hijack_seed_is_attacker_only(self):
        scenario = AttackScenario(AttackKind.SUBPREFIX_HIJACK, 111, 666, P16, P24)
        assert scenario.attacker_seed().path == (666,)

    def test_attack_prefix_must_be_covered(self):
        with pytest.raises(ReproError):
            AttackScenario(
                AttackKind.SUBPREFIX_HIJACK, 111, 666, P16, p("9.9.9.0/24")
            )

    def test_unknown_kind_rejected(self):
        """Regression: an unknown kind used to silently degrade to a
        plain-origin hijack; it must now fail loudly."""
        with pytest.raises(ReproError, match="unknown attack kind"):
            AttackScenario("fat-finger-hijack", 111, 666, P16, P24)

    def test_string_kind_coerced_to_enum(self):
        scenario = AttackScenario("forged-origin", 111, 666, P16, P16)
        assert scenario.kind is AttackKind.FORGED_ORIGIN
        assert scenario.attacker_seed().path == (666, 111)

    def test_kind_enum_semantics(self):
        assert AttackKind("subprefix-hijack") is AttackKind.SUBPREFIX_HIJACK
        assert str(AttackKind.FORGED_ORIGIN_SUBPREFIX) == (
            "forged-origin-subprefix"
        )
        assert AttackKind.FORGED_ORIGIN.forges_origin
        assert not AttackKind.FORGED_ORIGIN.is_subprefix
        assert AttackKind.SUBPREFIX_HIJACK.is_subprefix
        assert not AttackKind.PREFIX_HIJACK.forges_origin


class TestPaperClaims:
    """§4/§5 of the paper, quantified on the fixture topology."""

    def test_subprefix_hijack_without_rpki_captures_everything(
        self, chain_topology
    ):
        scenario = AttackScenario(AttackKind.SUBPREFIX_HIJACK, 111, 666, P16, P24)
        outcome = evaluate_attack(chain_topology, scenario)
        assert outcome.attacker_fraction == 1.0

    def test_rpki_stops_plain_subprefix_hijack(self, chain_topology):
        """§2: with any covering ROA, the hijack announcement is invalid."""
        scenario = AttackScenario(AttackKind.SUBPREFIX_HIJACK, 111, 666, P16, P24)
        outcome = evaluate_attack(chain_topology, scenario, vrp_index=MINIMAL)
        assert outcome.attacker_fraction == 0.0
        assert outcome.victim_fraction == 1.0
        assert outcome.attack_route_filtered

    def test_forged_origin_subprefix_beats_nonminimal_roa(self, chain_topology):
        """§4: the attack is as bad as an unprotected subprefix hijack."""
        scenario = AttackScenario(
            AttackKind.FORGED_ORIGIN_SUBPREFIX, 111, 666, P16, P24
        )
        outcome = evaluate_attack(chain_topology, scenario, vrp_index=LOOSE)
        assert outcome.attacker_fraction == 1.0
        assert not outcome.attack_route_filtered

    def test_minimal_roa_stops_forged_origin_subprefix(self, chain_topology):
        """§5: with a minimal ROA the hijacker's /24 is invalid."""
        scenario = AttackScenario(
            AttackKind.FORGED_ORIGIN_SUBPREFIX, 111, 666, P16, P24
        )
        outcome = evaluate_attack(chain_topology, scenario, vrp_index=MINIMAL)
        assert outcome.attacker_fraction == 0.0
        assert outcome.attack_route_filtered

    def test_fallback_same_prefix_attack_splits_traffic(self, chain_topology):
        """§5: "they must attack the whole /16" — and then traffic splits."""
        scenario = AttackScenario(AttackKind.FORGED_ORIGIN, 111, 666, P16, P16)
        outcome = evaluate_attack(chain_topology, scenario, vrp_index=MINIMAL)
        assert 0.0 < outcome.attacker_fraction < 1.0
        assert outcome.victim_fraction > outcome.attacker_fraction

    def test_attack_ordering_on_random_topology(self, small_topology):
        """The §4/§5 ordering must hold on a larger random graph too."""
        rng = random.Random(4)
        stubs = sorted(small_topology.stub_ases())
        victim, attacker = rng.sample(stubs, 2)
        loose = VrpIndex([Vrp(P16, 24, victim)])
        minimal = VrpIndex([Vrp(P16, 16, victim)])

        forged_sub = AttackScenario(
            AttackKind.FORGED_ORIGIN_SUBPREFIX, victim, attacker, P16, P24
        )
        forged_same = AttackScenario(
            AttackKind.FORGED_ORIGIN, victim, attacker, P16, P16
        )
        sub_loose = evaluate_attack(small_topology, forged_sub, vrp_index=loose)
        sub_minimal = evaluate_attack(small_topology, forged_sub, vrp_index=minimal)
        same_minimal = evaluate_attack(
            small_topology, forged_same, vrp_index=minimal
        )
        assert sub_loose.attacker_fraction == 1.0
        assert sub_minimal.attacker_fraction == 0.0
        assert same_minimal.attacker_fraction < sub_loose.attacker_fraction

    def test_outcome_fractions_sum_to_one(self, chain_topology):
        scenario = AttackScenario(AttackKind.FORGED_ORIGIN, 111, 666, P16, P16)
        outcome = evaluate_attack(chain_topology, scenario, vrp_index=MINIMAL)
        total = (
            outcome.attacker_fraction
            + outcome.victim_fraction
            + outcome.disconnected_fraction
        )
        assert total == pytest.approx(1.0)

    def test_partial_deployment_not_reported_filtered(self, chain_topology):
        """Regression: a same-prefix INVALID announcement used to be
        reported as filtered-everywhere even when only a handful of
        ASes validate."""
        scenario = AttackScenario(
            AttackKind.PREFIX_HIJACK, 111, 666, P16, P16
        )
        partial = evaluate_attack(
            chain_topology, scenario, vrp_index=MINIMAL,
            validating_ases=frozenset({10}),
        )
        assert not partial.attack_route_filtered
        assert partial.attacker_fraction > 0.0

        universal = evaluate_attack(
            chain_topology, scenario, vrp_index=MINIMAL,
        )
        assert universal.attack_route_filtered
        assert universal.attacker_fraction == 0.0

        explicit_all = evaluate_attack(
            chain_topology, scenario, vrp_index=MINIMAL,
            validating_ases=frozenset(chain_topology.ases),
        )
        assert explicit_all.attack_route_filtered

    def test_str_is_readable(self, chain_topology):
        scenario = AttackScenario(AttackKind.FORGED_ORIGIN, 111, 666, P16, P16)
        outcome = evaluate_attack(chain_topology, scenario, vrp_index=MINIMAL)
        assert "forged-origin" in str(outcome)


#: The measurement core by engine: the product path, and the object
#: engine kept as its oracle (architecture invariant 3).
MEASURES = {"object": reference_attack_seeds, "array": evaluate_attack_seeds}


def measure(engine, topology, scenario, **kwargs):
    """``evaluate_attack`` on either engine, as ``(fractions, filtered)``."""
    return MEASURES[engine](
        topology, scenario.victim, scenario.victim_prefix,
        scenario.attack_prefix, [scenario.attacker_seed()], **kwargs,
    )


@pytest.mark.parametrize("engine", ["object", "array"])
class TestPaperClaimsOnEachEngine:
    """TestPaperClaims runs the product path; the same §4/§5 numbers
    are pinned on each engine by name, so the object engine (the oracle
    of architecture invariant 3) keeps a direct pin of its own."""

    @pytest.mark.parametrize("kind, attack_prefix, vrps, captured, filtered", [
        (AttackKind.SUBPREFIX_HIJACK, P24, None, 1.0, False),
        (AttackKind.SUBPREFIX_HIJACK, P24, MINIMAL, 0.0, True),
        (AttackKind.FORGED_ORIGIN_SUBPREFIX, P24, LOOSE, 1.0, False),
        (AttackKind.FORGED_ORIGIN_SUBPREFIX, P24, MINIMAL, 0.0, True),
        (AttackKind.PREFIX_HIJACK, P16, MINIMAL, 0.0, True),
    ])
    def test_chain_topology_claims(
        self, chain_topology, engine, kind, attack_prefix, vrps, captured,
        filtered,
    ):
        scenario = AttackScenario(kind, 111, 666, P16, attack_prefix)
        fractions, was_filtered = measure(
            engine, chain_topology, scenario, vrp_index=vrps
        )
        assert fractions[0] == captured
        assert was_filtered == filtered

    def test_same_prefix_attack_matches_default_engine(
        self, chain_topology, engine
    ):
        """The tie-dependent cases: seeded, equal to the product run."""
        for kind, validators in (
            (AttackKind.FORGED_ORIGIN, None),
            (AttackKind.PREFIX_HIJACK, frozenset({10})),
        ):
            scenario = AttackScenario(kind, 111, 666, P16, P16)
            fractions, filtered = measure(
                engine, chain_topology, scenario, vrp_index=MINIMAL,
                validating_ases=validators, tie_seed=3,
            )
            outcome = evaluate_attack(
                chain_topology, scenario, vrp_index=MINIMAL,
                validating_ases=validators, tie_seed=3,
            )
            assert fractions == (
                outcome.attacker_fraction, outcome.victim_fraction,
                outcome.disconnected_fraction,
            )
            assert filtered == outcome.attack_route_filtered
            assert 0.0 < fractions[0] < 1.0

    def test_tie_seed_matters_only_where_seeds_compete(
        self, small_topology, engine
    ):
        """A lone announcement takes no tie-break that changes who
        adopts it: a one-attacker subprefix case is the same under
        every tie seed and none.  A same-prefix or two-attacker case
        races — to the object engine's result under each tie seed —
        and a same-prefix capture moves with the tie seed.  (Two
        attackers split the subprefix between them; the share they
        take together need not move.)"""
        stubs = sorted(small_topology.stub_ases())
        victim, attacker, second = stubs[1], stubs[-2], stubs[5]
        minimal = VrpIndex([Vrp(P16, 16, victim)])
        half = frozenset(
            random.Random(3).sample(sorted(small_topology.ases), 200)
        ) - {attacker, second}  # an invalid origin still announces
        forged = [Seed.forged_origin(attacker, victim)]

        def run(attack_prefix, seeds, tie_seed, engine=engine):
            return MEASURES[engine](
                small_topology, victim, P16, attack_prefix, seeds,
                vrp_index=minimal, validating_ases=half, tie_seed=tie_seed,
            )

        for seeds in (
            forged, [Seed.origin(attacker)], [Seed(attacker, (attacker,) * 3)]
        ):
            assert {
                run(P24, seeds, tie_seed) for tie_seed in (None, 5, 6, 7)
            } == {run(P24, seeds, None)}

        outcomes = {}
        for attack_prefix, seeds in (
            (P16, forged), (P24, forged + [Seed.origin(second)]),
        ):
            for tie_seed in range(8):
                outcome = run(attack_prefix, seeds, tie_seed)
                assert outcome == run(
                    attack_prefix, seeds, tie_seed, engine="object"
                )
                outcomes.setdefault(attack_prefix, set()).add(outcome)
        assert len(outcomes[P16]) > 1

    def test_attack_ordering_on_random_topology(self, small_topology, engine):
        rng = random.Random(4)
        victim, attacker = rng.sample(sorted(small_topology.stub_ases()), 2)
        loose = VrpIndex([Vrp(P16, 24, victim)])
        minimal = VrpIndex([Vrp(P16, 16, victim)])
        forged_sub = AttackScenario(
            AttackKind.FORGED_ORIGIN_SUBPREFIX, victim, attacker, P16, P24
        )
        forged_same = AttackScenario(
            AttackKind.FORGED_ORIGIN, victim, attacker, P16, P16
        )

        def captured(scenario, vrps):
            fractions, _filtered = measure(
                engine, small_topology, scenario, vrp_index=vrps
            )
            return fractions[0]

        assert captured(forged_sub, loose) == 1.0
        assert captured(forged_sub, minimal) == 0.0
        assert captured(forged_same, minimal) < 1.0
