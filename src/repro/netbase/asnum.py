"""Autonomous System number handling.

AS numbers are 32-bit unsigned integers (RFC 6793).  We keep them as plain
``int`` throughout the library for speed, and use this module to validate
and format them at the edges (parsers, pretty-printers, generators).
"""

from __future__ import annotations

from .errors import AsnError

__all__ = [
    "MAX_ASN",
    "AS_TRANS",
    "validate_asn",
    "parse_asn",
    "format_asn",
    "is_private_asn",
    "is_reserved_asn",
]

MAX_ASN = 2**32 - 1

#: RFC 6793 transition AS number used by old 2-byte speakers.
AS_TRANS = 23456

_PRIVATE_RANGES = (
    (64512, 65534),          # RFC 6996 16-bit private use
    (4200000000, 4294967294),  # RFC 6996 32-bit private use
)

_RESERVED = frozenset({0, 65535, MAX_ASN})


def validate_asn(asn: int) -> int:
    """Return ``asn`` if it is a valid 32-bit AS number, else raise.

    Raises:
        AsnError: if ``asn`` is not an int in [0, 2^32 - 1].
    """
    if not isinstance(asn, int) or isinstance(asn, bool):
        raise AsnError(f"AS number must be an int, got {type(asn).__name__}")
    if not 0 <= asn <= MAX_ASN:
        raise AsnError(f"AS number {asn} out of 32-bit range")
    return asn


def parse_asn(text: str) -> int:
    """Parse ``"65000"``, ``"AS65000"``, or asdot ``"1.10"`` into an int.

    The asdot notation (RFC 5396) writes a 32-bit ASN as
    ``<high16>.<low16>``.  Digits are ASCII ``0``-``9`` only: no sign,
    no ``_`` separator, no other script's digits.

    Raises:
        AsnError: if ``text`` is not such a number or is out of range.
    """
    text = text.strip()
    if text.upper().startswith("AS"):
        text = text[2:]
    if "." in text:
        high_text, _, low_text = text.partition(".")
        if not (_is_ascii_digits(high_text) and _is_ascii_digits(low_text)):
            raise AsnError(f"bad asdot AS number {text!r}")
        high, low = int(high_text), int(low_text)
        if high > 0xFFFF or low > 0xFFFF:
            raise AsnError(f"asdot component out of range in {text!r}")
        return (high << 16) | low
    if not _is_ascii_digits(text):
        raise AsnError(f"bad AS number {text!r}")
    return validate_asn(int(text))


def _is_ascii_digits(text: str) -> bool:
    # str.isdigit alone admits "٣" (which int reads as 3) and "²"
    # (which int refuses).
    return text.isascii() and text.isdigit()


def format_asn(asn: int, asdot: bool = False) -> str:
    """Format an AS number as ``"AS65000"`` or asdot ``"AS1.10"``."""
    validate_asn(asn)
    if asdot and asn > 0xFFFF:
        return f"AS{asn >> 16}.{asn & 0xFFFF}"
    return f"AS{asn}"


def is_private_asn(asn: int) -> bool:
    """True for RFC 6996 private-use AS numbers."""
    validate_asn(asn)
    return any(low <= asn <= high for low, high in _PRIVATE_RANGES)


def is_reserved_asn(asn: int) -> bool:
    """True for AS 0 (RFC 7607), 65535, and 4294967295 (RFC 7300)."""
    validate_asn(asn)
    return asn in _RESERVED
