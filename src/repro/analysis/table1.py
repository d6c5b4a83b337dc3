"""Table 1: PDU counts routers process under seven scenarios.

The paper's central table (reproduced here with its 2017-06-01 values):

    scenario                                              # PDUs   secure?
    -----------------------------------------------------------------------
    Today                                                 39,949   no
    Today (compressed)                                    33,615   no
    Today, minimal ROAs, no maxLength                     52,745   yes
    Today, minimal ROAs, with maxLength (compressed)      49,308   yes
    Full deployment, minimal ROAs, no maxLength          776,945   yes
    Full deployment, minimal ROAs, with maxLength        730,008   yes
    Full deployment, lower bound (max permissive ROAs)   729,371   no

"Secure" means immune to forged-origin subprefix hijacks: the status
quo is vulnerable (its maxLength use is almost all non-minimal), and
the maximally-permissive bound is maximally vulnerable; every minimal
scenario is safe — including the compressed ones, because Algorithm 1
preserves minimality.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from ..core.compress import compress_vrps
from ..core.counts import pdu_counts
from ..core.minimal import OriginPair, minimal_pairs
from ..rpki.vrp import Vrp

__all__ = ["Table1Row", "Table1", "compute_table1", "PAPER_TABLE1"]


@dataclass(frozen=True)
class Table1Row:
    """One scenario row."""

    scenario: str
    pdus: int
    secure: bool

    def __str__(self) -> str:
        marker = "yes" if self.secure else "NO"
        return f"{self.scenario:<55} {self.pdus:>9,}   {marker}"


@dataclass(frozen=True)
class Table1:
    """All seven rows, in the paper's order."""

    rows: tuple[Table1Row, ...]

    def by_scenario(self, scenario: str) -> Table1Row:
        for row in self.rows:
            if row.scenario == scenario:
                return row
        raise KeyError(scenario)

    def render(self) -> str:
        header = f"{'scenario':<55} {'# PDUs':>9}   secure?"
        rule = "-" * len(header)
        lines = [header, rule] + [str(row) for row in self.rows]
        return "\n".join(lines)


#: Scenario names, used as stable keys by callers and tests.
TODAY = "Today"
TODAY_COMPRESSED = "Today (compressed)"
TODAY_MINIMAL = "Today, minimal ROAs, no maxLength"
TODAY_MINIMAL_COMPRESSED = "Today, minimal ROAs, with maxLength (compressed)"
FULL_MINIMAL = "Full deployment, minimal ROAs, no maxLength"
FULL_MINIMAL_COMPRESSED = "Full deployment, minimal ROAs, with maxLength"
FULL_LOWER_BOUND = "Full deployment, lower bound (max permissive ROAs)"

#: The paper's measured values (2017-06-01 dataset), for comparison.
PAPER_TABLE1 = {
    TODAY: 39_949,
    TODAY_COMPRESSED: 33_615,
    TODAY_MINIMAL: 52_745,
    TODAY_MINIMAL_COMPRESSED: 49_308,
    FULL_MINIMAL: 776_945,
    FULL_MINIMAL_COMPRESSED: 730_008,
    FULL_LOWER_BOUND: 729_371,
}


def compute_table1(
    vrps: Iterable[Vrp], announced: Iterable[OriginPair]
) -> Table1:
    """Compute all seven scenarios from one snapshot."""
    status_quo = list(vrps)
    announced_list = list(announced)

    # The minimal rows count pairs: the bound of the minimal set is
    # not a Table 1 row.
    today_minimal, today_minimal_compressed, _ = pdu_counts(
        minimal_pairs(status_quo, announced_list))
    full_minimal, full_minimal_compressed, bound = pdu_counts(announced_list)

    return Table1(
        rows=(
            Table1Row(TODAY, len(status_quo), secure=False),
            Table1Row(
                TODAY_COMPRESSED, len(compress_vrps(status_quo)), secure=False
            ),
            Table1Row(TODAY_MINIMAL, today_minimal, secure=True),
            Table1Row(
                TODAY_MINIMAL_COMPRESSED, today_minimal_compressed, secure=True
            ),
            Table1Row(FULL_MINIMAL, full_minimal, secure=True),
            Table1Row(
                FULL_MINIMAL_COMPRESSED, full_minimal_compressed, secure=True
            ),
            Table1Row(FULL_LOWER_BOUND, bound, secure=False),
        )
    )
