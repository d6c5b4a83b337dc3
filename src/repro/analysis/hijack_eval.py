"""Attack-effectiveness evaluation: quantifying §4 and §5.

The paper's argument rests on three comparative claims:

1. a forged-origin *subprefix* hijack against a non-minimal ROA
   captures (essentially) all traffic for the hijacked subprefix;
2. with a minimal ROA the same attacker is forced into a same-prefix
   forged-origin hijack, where traffic splits and "the majority of
   traffic (on average) is still forwarded on the legitimate route"
   ([16]);
3. plain (sub)prefix hijacks are RPKI-invalid and fully filtered.

:func:`run_hijack_study` is a thin adapter over the
:mod:`repro.exper` engine: it declares the four historical grid cells
as an :class:`~repro.exper.ExperimentSpec` and averages each cell's
capture.  Pass ``executor="sharded"`` to spread the trials over cores.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..bgp.topology import AsTopology
from ..exper.runner import ExperimentRunner
from ..exper.scenarios import (
    MaxLengthLooseRoa,
    MinimalRoa,
    NoRoa,
    ScenarioCell,
)
from ..exper.spec import ExperimentSpec
from ..netbase.prefix import Prefix

__all__ = ["HijackStudyResult", "run_hijack_study"]


@dataclass(frozen=True)
class HijackStudyResult:
    """Average attacker capture per configuration.

    Attributes:
        samples: number of (victim, attacker) pairs evaluated.
        subprefix_no_rpki: plain subprefix hijack, no RPKI at all.
        forged_subprefix_nonminimal: forged-origin subprefix hijack
            against a maxLength-using (non-minimal) ROA.
        forged_subprefix_minimal: the same attack against a minimal
            ROA (should be ~0: the announcement is invalid).
        forged_origin_minimal: the fallback same-prefix forged-origin
            hijack against a minimal ROA (should be well under 50%).
    """

    samples: int
    subprefix_no_rpki: float
    forged_subprefix_nonminimal: float
    forged_subprefix_minimal: float
    forged_origin_minimal: float

    def summary_lines(self) -> list[str]:
        return [
            f"samples: {self.samples} (victim, attacker) pairs",
            (
                "subprefix hijack, no RPKI:                 "
                f"{100 * self.subprefix_no_rpki:6.1f}% captured"
            ),
            (
                "forged-origin subprefix, non-minimal ROA:  "
                f"{100 * self.forged_subprefix_nonminimal:6.1f}% captured"
            ),
            (
                "forged-origin subprefix, minimal ROA:      "
                f"{100 * self.forged_subprefix_minimal:6.1f}% captured"
            ),
            (
                "forged-origin same-prefix, minimal ROA:    "
                f"{100 * self.forged_origin_minimal:6.1f}% captured"
            ),
        ]


def hijack_study_spec(
    *,
    samples: int = 50,
    seed: int = 0,
    victim_prefix: Prefix = Prefix.parse("168.122.0.0/16"),
) -> ExperimentSpec:
    """The study as a declarative spec: the four historical cells."""
    return ExperimentSpec(
        cells=(
            ScenarioCell("subprefix-hijack", NoRoa()),
            ScenarioCell("forged-origin-subprefix", MaxLengthLooseRoa()),
            ScenarioCell("forged-origin-subprefix", MinimalRoa()),
            ScenarioCell("forged-origin", MinimalRoa()),
        ),
        trials=samples,
        seed=seed,
        victim_prefix=victim_prefix,
    )


def run_hijack_study(
    topology: AsTopology,
    *,
    samples: int = 50,
    seed: int = 0,
    victim_prefix: Prefix = Prefix.parse("168.122.0.0/16"),
    executor: str = "serial",
    workers: Optional[int] = None,
) -> HijackStudyResult:
    """Sample attacks between random stub pairs and average capture.

    Each sample picks a distinct victim and attacker among the
    topology's stub ASes (hijacks are typically launched from and
    against the edge), gives the victim a /16 with either a minimal
    ROA ``(p, len(p))`` or a non-minimal ``(p, maxLength 24)``, and
    measures each attack variant's capture fraction.
    """
    if len(topology.stub_ases()) < 2:
        raise ValueError("topology has too few stub ASes for a study")

    spec = hijack_study_spec(
        samples=samples, seed=seed, victim_prefix=victim_prefix
    )
    result = ExperimentRunner(
        topology, spec, executor=executor, workers=workers
    ).run()
    return HijackStudyResult(
        samples=samples,
        subprefix_no_rpki=result.cell("subprefix-hijack/none").mean,
        forged_subprefix_nonminimal=result.cell(
            "forged-origin-subprefix/maxlength-loose"
        ).mean,
        forged_subprefix_minimal=result.cell(
            "forged-origin-subprefix/minimal"
        ).mean,
        forged_origin_minimal=result.cell("forged-origin/minimal").mean,
    )
