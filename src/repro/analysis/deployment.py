"""Partial-deployment sweeps: how much validation is enough?

§2 of the paper notes that "very few ASes make routing decisions based
on the validation state of a route" [9, 22].  This extension
quantifies what that costs: it sweeps the fraction of validating ASes
and measures the attacker's capture for the attacks the RPKI *can*
stop (plain subprefix hijacks, and forged-origin subprefix hijacks
against minimal ROAs).  Against a non-minimal ROA, validation never
helps — the attack is valid — which is the paper's point rendered as a
flat line at 100%.

:func:`run_deployment_sweep` is a thin adapter over the
:mod:`repro.exper` engine: the sweep is one
:class:`~repro.exper.ExperimentSpec` whose ``fractions`` axis is the
deployment level.  Pass ``executor="sharded"`` to spread the trials
over cores.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..bgp.topology import AsTopology
from ..exper.runner import ExperimentRunner
from ..exper.scenarios import MaxLengthLooseRoa, MinimalRoa, ScenarioCell
from ..exper.spec import ExperimentSpec
from ..netbase.prefix import Prefix

__all__ = ["DeploymentPoint", "DeploymentSweep", "run_deployment_sweep"]


@dataclass(frozen=True)
class DeploymentPoint:
    """Average capture fractions at one validation level."""

    validating_fraction: float
    subprefix_hijack: float
    forged_subprefix_vs_minimal: float
    forged_subprefix_vs_nonminimal: float


@dataclass(frozen=True)
class DeploymentSweep:
    """The full sweep, one point per validation level."""

    points: tuple[DeploymentPoint, ...]
    samples_per_point: int

    def render(self) -> str:
        lines = [
            f"{'validating':>11} {'subprefix':>10} {'fo-sub/min':>11} "
            f"{'fo-sub/loose':>13}",
        ]
        for point in self.points:
            lines.append(
                f"{100 * point.validating_fraction:>10.0f}% "
                f"{100 * point.subprefix_hijack:>9.1f}% "
                f"{100 * point.forged_subprefix_vs_minimal:>10.1f}% "
                f"{100 * point.forged_subprefix_vs_nonminimal:>12.1f}%"
            )
        return "\n".join(lines)


def deployment_sweep_spec(
    *,
    fractions: Sequence[float] = (0.0, 0.25, 0.5, 0.75, 1.0),
    samples: int = 20,
    seed: int = 0,
    victim_prefix: Prefix = Prefix.parse("168.122.0.0/16"),
) -> ExperimentSpec:
    """The sweep as a declarative spec: three cells × the fraction axis."""
    return ExperimentSpec(
        cells=(
            ScenarioCell("subprefix-hijack", MinimalRoa()),
            ScenarioCell("forged-origin-subprefix", MinimalRoa()),
            ScenarioCell("forged-origin-subprefix", MaxLengthLooseRoa()),
        ),
        trials=samples,
        seed=seed,
        fractions=tuple(fractions),
        victim_prefix=victim_prefix,
    )


def run_deployment_sweep(
    topology: AsTopology,
    *,
    fractions: Sequence[float] = (0.0, 0.25, 0.5, 0.75, 1.0),
    samples: int = 20,
    seed: int = 0,
    victim_prefix: Prefix = Prefix.parse("168.122.0.0/16"),
    executor: str = "serial",
    workers: Optional[int] = None,
) -> DeploymentSweep:
    """Sweep validation deployment against the three attack variants.

    Validating ASes are sampled uniformly per trial; each (victim,
    attacker) pair is a stub pair, as in the hijack study.
    """
    spec = deployment_sweep_spec(
        fractions=fractions, samples=samples, seed=seed,
        victim_prefix=victim_prefix,
    )
    result = ExperimentRunner(
        topology, spec, executor=executor, workers=workers
    ).run()
    points = tuple(
        DeploymentPoint(
            validating_fraction=fraction,
            subprefix_hijack=result.cell(
                "subprefix-hijack/minimal", fraction
            ).mean,
            forged_subprefix_vs_minimal=result.cell(
                "forged-origin-subprefix/minimal", fraction
            ).mean,
            forged_subprefix_vs_nonminimal=result.cell(
                "forged-origin-subprefix/maxlength-loose", fraction
            ).mean,
        )
        for fraction in spec.fractions
    )
    return DeploymentSweep(points=points, samples_per_point=samples)
