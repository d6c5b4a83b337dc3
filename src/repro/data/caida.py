"""CAIDA AS-relationship file format (serial-1) I/O.

Interdomain simulation studies conventionally load CAIDA's inferred
AS-relationship files.  The serial-1 format is line-oriented::

    # comment lines start with '#'
    <provider-as>|<customer-as>|-1      (provider-to-customer link)
    <peer-as>|<peer-as>|0               (peer-to-peer link)

Reading one of these (or writing our synthetic topologies in the same
format) lets this library interoperate with the usual research
tooling: a downstream user can drop in the real 2017 CAIDA file and
rerun the hijack study on the measured topology.
"""

from __future__ import annotations

from pathlib import Path
from typing import TextIO, Union

from ..bgp.topology import AsTopology, CompiledTopology
from ..netbase.errors import ReproError

__all__ = [
    "CaidaFormatError",
    "read_caida",
    "read_caida_compiled",
    "write_caida",
]


class CaidaFormatError(ReproError):
    """A serial-1 relationship line could not be parsed."""


def read_caida(source: Union[str, Path, TextIO]) -> AsTopology:
    """Load a serial-1 relationship file into an :class:`AsTopology`.

    Raises:
        CaidaFormatError: on malformed lines (with the line number).
    """
    own = isinstance(source, (str, Path))
    stream: TextIO = (
        open(source, "r", encoding="ascii") if own else source  # type: ignore[assignment]
    )
    topology = AsTopology()
    try:
        for line_number, line in enumerate(stream, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split("|")
            if len(fields) < 3:
                raise CaidaFormatError(
                    f"line {line_number}: expected a|b|relationship"
                )
            try:
                left, right, relationship = (
                    int(fields[0]),
                    int(fields[1]),
                    int(fields[2]),
                )
            except ValueError as exc:
                raise CaidaFormatError(f"line {line_number}: {exc}") from exc
            if relationship == -1:
                # left is the provider of right
                topology.add_customer_provider(right, left)
            elif relationship == 0:
                topology.add_peering(left, right)
            else:
                raise CaidaFormatError(
                    f"line {line_number}: unknown relationship {relationship}"
                )
    finally:
        if own:
            stream.close()
    return topology


def read_caida_compiled(
    source: Union[str, Path, TextIO]
) -> tuple[AsTopology, CompiledTopology]:
    """Load a serial-1 file and compile it for the array engine.

    Returns both forms: the mutable :class:`AsTopology` (for seeding
    and sampling) and its cached
    :class:`CompiledTopology` (flat CSR arrays for
    :mod:`repro.bgp.fastprop`).  One call site for CAIDA-scale runs:
    parse once, compile once, share everywhere.
    """
    topology = read_caida(source)
    return topology, topology.compiled()


def write_caida(
    topology: AsTopology, destination: Union[str, Path, TextIO]
) -> int:
    """Write a topology as serial-1 lines; returns the edge count."""
    own = isinstance(destination, (str, Path))
    stream: TextIO = (
        open(destination, "w", encoding="ascii")
        if own
        else destination  # type: ignore[assignment]
    )
    count = 0
    try:
        stream.write("# serial-1 AS relationships (repro synthetic)\n")
        stream.write("# provider|customer|-1  /  peer|peer|0\n")
        for a, b, kind in sorted(topology.edges()):
            if kind.value == "customer":
                # edges() yields (customer, provider, CUSTOMER)
                stream.write(f"{b}|{a}|-1\n")
            else:
                stream.write(f"{a}|{b}|0\n")
            count += 1
    finally:
        if own:
            stream.close()
    return count
