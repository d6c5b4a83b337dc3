"""Shared fixtures: a small synthetic Internet, a topology, an RPKI tree,
and the reference engine as a test seam.

Session scope keeps the expensive generation (snapshot, key material)
to one run per test session; tests must treat these as read-only.
Seeded RSA keys are memoised for the modules that opt in with
``seeded_keys``.
"""

from __future__ import annotations

import contextlib
import random
import types

import pytest

import repro.bgp.simulation as simulation
import repro.crypto.rsa as rsa
import repro.exper.evaluate as evaluate
import repro.rpki.ca as ca
from repro.bgp.topology import AsTopology
from repro.data.asgraph import TopologyProfile, generate_topology
from repro.data.internet import GeneratorConfig, InternetSnapshot, generate_snapshot
from repro.netbase import Prefix
from repro.obs import MetricsRegistry, use_registry


@pytest.fixture(scope="session")
def small_snapshot() -> InternetSnapshot:
    """A 2%-scale Internet: ~15k BGP pairs, ~900 VRPs."""
    return generate_snapshot(GeneratorConfig(scale=0.02, seed=20170601))


@pytest.fixture(scope="session")
def tiny_snapshot() -> InternetSnapshot:
    """A 0.5%-scale Internet for the heavier per-test analyses."""
    return generate_snapshot(GeneratorConfig(scale=0.005, seed=7))


@pytest.fixture(scope="session")
def small_topology() -> AsTopology:
    """A 400-AS synthetic topology."""
    return generate_topology(
        TopologyProfile(ases=400, tier1=4, transit_fraction=0.15),
        random.Random(11),
    )


@pytest.fixture()
def example_prefix() -> Prefix:
    """The paper's running example prefix (BU's /16)."""
    return Prefix.parse("168.122.0.0/16")


@pytest.fixture(scope="session")
def chain_topology() -> AsTopology:
    """The small hand-built topology used in deterministic attack tests.

    ::

             1 ===== 2          (tier-1 peers)
            / \\       \\
          10   20      30       (transit)
          |     |      |
         111   666     40       (stubs; 111 victim, 666 attacker)
    """
    topology = AsTopology()
    topology.add_peering(1, 2)
    for customer, provider in [
        (10, 1), (20, 1), (30, 2), (111, 10), (666, 20), (40, 30),
    ]:
        topology.add_customer_provider(customer, provider)
    return topology


@contextlib.contextmanager
def _reference_engine():
    oracle = types.SimpleNamespace(propagations=0)
    propagate = simulation.propagate_prefix

    def counted(*args, **kwargs):
        oracle.propagations += 1
        return propagate(*args, **kwargs)

    def measure(topology, *args, workspace=None, **kwargs):
        return simulation.reference_attack_seeds(topology, *args, **kwargs)

    registry = MetricsRegistry()
    with pytest.MonkeyPatch.context() as patch, use_registry(registry):
        patch.setattr(simulation, "propagate_prefix", counted)
        patch.setattr(evaluate, "evaluate_attack_seeds", measure)
        yield oracle
    # Proof that the oracle, not the product, measured: without it a
    # broken seam would compare the array engine with itself and pass.
    counters = registry.snapshot()
    assert oracle.propagations > 0, "the reference engine never ran"
    assert counters.get("fastprop.closures", 0) == 0
    assert counters.get("fastprop.sweeps", 0) == 0


@pytest.fixture()
def reference_engine():
    """The object engine, kept as the oracle, as a test seam.

    A context manager: inside ``with reference_engine() as oracle:``,
    :mod:`repro.exper.evaluate` measures every cell with
    :func:`repro.bgp.simulation.reference_attack_seeds` instead of the
    product's :func:`repro.bgp.attacks.evaluate_attack_seeds` — so an
    ``ExperimentRunner`` or ``evaluate_trial`` run inside it is the
    reference run.  In-process and serial only, on the object
    topology.  On a clean exit it checks that the oracle ran:
    ``oracle.propagations`` (calls of ``propagate_prefix``) is
    positive, and the array engine computed no closure and ran no
    sweep.
    """
    return _reference_engine


#: Seeded RSA keys drawn so far: ``(bits, RNG state before)`` ->
#: ``(key, RNG state after)``.
_SEEDED_KEYS: dict = {}


def _seeded_keypair(bits: int = 1024, rng=None):
    """:func:`repro.crypto.rsa.generate_keypair`, memoised for a
    seeded ``random.Random``: a hit returns the key that state drew and
    moves the RNG to where drawing it left it, so every later draw,
    key and signed byte is what an unmemoised run produces."""
    if type(rng) is not random.Random:
        return rsa.generate_keypair(bits, rng)
    before = (bits, rng.getstate())
    if before not in _SEEDED_KEYS:
        key = rsa.generate_keypair(bits, rng)
        _SEEDED_KEYS[before] = key, rng.getstate()
    key, after = _SEEDED_KEYS[before]
    rng.setstate(after)
    return key


@pytest.fixture(scope="module")
def seeded_keys(request):
    """Opt-in (``pytestmark = pytest.mark.usefixtures("seeded_keys")``)
    for modules that build the same seeded keys again and again: CAs
    and the module's own ``generate_keypair`` draw through the memo.
    Module scope, so the module's own module-scoped fixtures use it."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ca, "generate_keypair", _seeded_keypair)
        if hasattr(request.module, "generate_keypair"):
            patch.setattr(
                request.module, "generate_keypair", _seeded_keypair)
        yield
