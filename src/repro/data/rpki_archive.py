"""Validated-ROA CSV archives.

Relying-party tools export their validated payloads in a simple CSV —
the de-facto interchange format (RIPE's validator, routinator's
``vrps`` command)::

    URI,ASN,IP Prefix,Max Length,Not Before,Not After
    rsync://rpki.example/repo/roa-0.roa,AS111,168.122.0.0/16,24,2017-01-01,2018-01-01

Only ASN, prefix, and maxLength carry measurement semantics; the rest
is preserved round-trip but ignored by the analysis code.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Iterable, Iterator, TextIO, Union

from ..netbase.asnum import is_ascii_digits
from ..netbase.errors import AsnError, PrefixError, PrefixLengthError, ReproError
from ..netbase.prefix import Prefix
from ..rpki.vrp import Vrp

__all__ = ["ArchiveFormatError", "write_vrp_csv", "read_vrp_csv"]

_HEADER = ["URI", "ASN", "IP Prefix", "Max Length", "Not Before", "Not After"]


class ArchiveFormatError(ReproError):
    """A CSV row could not be parsed as a VRP."""


def write_vrp_csv(
    vrps: Iterable[Vrp],
    destination: Union[str, Path, TextIO],
    *,
    uri_prefix: str = "rsync://rpki.example/repo",
    not_before: str = "2017-01-01",
    not_after: str = "2018-01-01",
) -> int:
    """Write VRPs in validator-CSV form; returns the row count."""
    own = isinstance(destination, (str, Path))
    stream: TextIO = (
        open(destination, "w", encoding="ascii", newline="")
        if own
        else destination  # type: ignore[assignment]
    )
    count = 0
    try:
        writer = csv.writer(stream)
        writer.writerow(_HEADER)
        for index, vrp in enumerate(vrps):
            writer.writerow(
                [
                    f"{uri_prefix}/roa-{index}.roa",
                    f"AS{vrp.asn}",
                    str(vrp.prefix),
                    str(vrp.max_length),
                    not_before,
                    not_after,
                ]
            )
            count += 1
    finally:
        if own:
            stream.close()
    return count


def read_vrp_csv(source: Union[str, Path, TextIO]) -> Iterator[Vrp]:
    """Read validator-CSV rows back into VRPs.

    ASN and maxLength are ASCII decimal digits (the ASN optionally
    after ``AS``): ``int`` alone would also take a sign, ``_`` and
    other scripts' digits.

    Raises:
        ArchiveFormatError: on malformed rows (with the row number).
    """
    own = isinstance(source, (str, Path))
    stream: TextIO = (
        open(source, "r", encoding="ascii", newline="")
        if own
        else source  # type: ignore[assignment]
    )
    parse = Prefix.parse
    try:
        reader = csv.reader(stream)
        for row_number, row in enumerate(reader, start=1):
            if not row or row[0] == _HEADER[0]:
                continue
            if len(row) < 4:
                raise ArchiveFormatError(f"row {row_number}: too few columns")
            asn_text, max_text = row[1].strip(), row[3].strip()
            if asn_text.upper().startswith("AS"):
                asn_text = asn_text[2:]
            try:
                if not is_ascii_digits(asn_text):
                    raise AsnError(f"bad AS number {asn_text!r}")
                if not is_ascii_digits(max_text):
                    raise PrefixLengthError(f"bad maxLength {max_text!r}")
                vrp = Vrp(parse(row[2]), int(max_text), int(asn_text))
            except (PrefixError, ValueError) as exc:  # AsnError is a ValueError
                raise ArchiveFormatError(f"row {row_number}: {exc}") from exc
            yield vrp
    finally:
        if own:
            stream.close()
