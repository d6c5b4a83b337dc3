"""RouteViews-style RIB table I/O.

The paper compares ROAs "against the routing entries in the BGP tables
of all Route Views collectors".  This module reads and writes a textual
RIB format modeled on the pipe-separated lines that RouteViews tooling
(``bgpdump -m``) emits::

    TABLE_DUMP2|1496275200|B|198.32.160.1|11537|168.122.0.0/16|11537 3356 111|IGP

Only the prefix and AS-path fields matter to origin-validation
measurements; the loader tolerates and preserves the rest.  A compact
``prefix|origin`` two-column format is also supported for synthetic
dumps where full paths would be noise.
"""

from __future__ import annotations

import io
from pathlib import Path
from typing import Iterable, Iterator, TextIO, Union

from ..netbase.asnum import validate_asn
from ..netbase.errors import PrefixError, ReproError
from ..netbase.prefix import Prefix
from ..bgp.announcement import Announcement

__all__ = [
    "RibFormatError",
    "write_rib",
    "read_rib",
    "write_origin_pairs",
    "read_origin_pairs",
]

_FIELDS = 7  # TABLE_DUMP2 fields before the optional IGP tail


class RibFormatError(ReproError):
    """A RIB line could not be parsed."""


def _open_for_read(source: Union[str, Path, TextIO]) -> TextIO:
    if isinstance(source, (str, Path)):
        return open(source, "r", encoding="ascii")
    return source


def write_rib(
    announcements: Iterable[Announcement],
    destination: Union[str, Path, TextIO],
    *,
    timestamp: int = 1496275200,  # 2017-06-01 00:00 UTC
    collector_ip: str = "198.32.160.1",
) -> int:
    """Write announcements as TABLE_DUMP2-style lines; returns count."""
    own = isinstance(destination, (str, Path))
    stream: TextIO = (
        open(destination, "w", encoding="ascii") if own else destination  # type: ignore[arg-type]
    )
    count = 0
    try:
        for announcement in announcements:
            path_text = " ".join(str(asn) for asn in announcement.as_path)
            peer_asn = announcement.as_path[0]
            stream.write(
                f"TABLE_DUMP2|{timestamp}|B|{collector_ip}|{peer_asn}|"
                f"{announcement.prefix}|{path_text}|IGP\n"
            )
            count += 1
    finally:
        if own:
            stream.close()
    return count


def read_rib(source: Union[str, Path, TextIO]) -> Iterator[Announcement]:
    """Parse TABLE_DUMP2-style lines back into announcements.

    Raises:
        RibFormatError: on malformed lines (with the line number).
    """
    stream = _open_for_read(source)
    own = isinstance(source, (str, Path))
    try:
        for line_number, line in enumerate(stream, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split("|")
            if len(fields) < _FIELDS:
                raise RibFormatError(
                    f"line {line_number}: expected >= {_FIELDS} fields"
                )
            try:
                prefix = Prefix.parse(fields[5])
                as_path = tuple(int(asn) for asn in fields[6].split())
            except (PrefixError, ValueError) as exc:
                raise RibFormatError(f"line {line_number}: {exc}") from exc
            if not as_path:
                raise RibFormatError(f"line {line_number}: empty AS path")
            yield Announcement(prefix, as_path)
    finally:
        if own:
            stream.close()


def write_origin_pairs(
    pairs: Iterable[tuple[Prefix, int]],
    destination: Union[str, Path, TextIO],
) -> int:
    """Write the compact ``prefix|origin`` form; returns count."""
    own = isinstance(destination, (str, Path))
    stream: TextIO = (
        open(destination, "w", encoding="ascii") if own else destination  # type: ignore[arg-type]
    )
    count = 0
    try:
        stream.write("# prefix|origin_as\n")
        for prefix, origin in pairs:
            stream.write(f"{prefix}|{origin}\n")
            count += 1
    finally:
        if own:
            stream.close()
    return count


def read_origin_pairs(
    source: Union[str, Path, TextIO],
) -> Iterator[tuple[Prefix, int]]:
    """Read the compact ``prefix|origin`` form."""
    stream = _open_for_read(source)
    own = isinstance(source, (str, Path))
    try:
        for line_number, line in enumerate(stream, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            prefix_text, _, origin_text = line.partition("|")
            try:
                pair = Prefix.parse(prefix_text), validate_asn(int(origin_text))
            except (PrefixError, ValueError) as exc:  # AsnError is a ValueError
                raise RibFormatError(f"line {line_number}: {exc}") from exc
            yield pair
    finally:
        if own:
            stream.close()


def dumps_rib(announcements: Iterable[Announcement]) -> str:
    """The RIB text as a string (convenience for tests)."""
    buffer = io.StringIO()
    write_rib(announcements, buffer)
    return buffer.getvalue()
