"""IP prefix primitives for IPv4 and IPv6.

This module implements :class:`Prefix`, the fundamental value type of the
whole library.  A prefix is an (address-family, network-bits, length)
triple; we store the network address as a plain Python integer, which makes
containment tests, sibling arithmetic, and trie keys cheap bit operations.

The implementation is self-contained (it does not wrap :mod:`ipaddress`)
because the compression algorithm of the paper (§7) and the RPKI data
structures need direct access to the bit-level representation: trie keys,
direct children, and sibling prefixes.

Examples:
    >>> p = Prefix.parse("168.122.0.0/16")
    >>> p.covers(Prefix.parse("168.122.225.0/24"))
    True
    >>> str(p.left_child())
    '168.122.0.0/17'
    >>> str(p.right_child())
    '168.122.128.0/17'
"""

from __future__ import annotations

# The C module behind ``socket``: importing ``socket`` itself would
# also load ``selectors`` and ``enum`` into every command.
from _socket import AF_INET as _SOCKET_AF_INET, inet_ntop, inet_pton
from functools import total_ordering
from typing import Iterator

from .asnum import is_ascii_digits
from .errors import PrefixLengthError, PrefixParseError

__all__ = ["Prefix", "AF_INET", "AF_INET6"]

AF_INET = 4
AF_INET6 = 6

_MAX_LENGTH = {AF_INET: 32, AF_INET6: 128}

_HEX_DIGITS = "0123456789abcdefABCDEF"

#: Canonical length texts, "0" to "128", to their values: one lookup
#: for every length a snapshot file holds.
_LENGTHS = {str(length): length for length in range(129)}


def _parse_ipv4(text: str) -> int:
    """Parse a dotted-quad IPv4 address into an integer.

    Raises:
        PrefixParseError: if the text is not a valid dotted quad.
    """
    parts = text.split(".")
    if len(parts) != 4:
        raise PrefixParseError(text, "IPv4 address must have four octets")
    value = 0
    for part in parts:
        if not is_ascii_digits(part) or (len(part) > 1 and part[0] == "0"):
            raise PrefixParseError(text, f"bad octet {part!r}")
        # Without a leading zero, four digits are past 255 already (and
        # int() of thousands of digits would raise a bare ValueError).
        octet = int(part) if len(part) <= 3 else 256
        if octet > 255:
            raise PrefixParseError(text, f"octet {part} out of range")
        value = (value << 8) | octet
    return value


def _parse_ipv4_canonical(text: str) -> int | None:
    """The value of ``text`` if it is a dotted quad as ``inet_ntop``
    writes it, else None.

    This is :func:`_parse_ipv4` for the texts snapshot files hold, in C.
    A text is taken only if it equals ``inet_ntop`` of its own parse, so
    the accepted language is a subset of :func:`_parse_ipv4`'s on any
    platform's ``inet_pton``; every other text, valid or not, is left
    to the full parser and its typed errors.
    """
    try:
        packed = inet_pton(_SOCKET_AF_INET, text)
    except (OSError, ValueError):  # ValueError: NUL or a lone surrogate
        return None
    if inet_ntop(_SOCKET_AF_INET, packed) != text:
        return None
    return int.from_bytes(packed, "big")


def _format_ipv4(value: int) -> str:
    # Dotted decimal, no leading zeros: the one text form of IPv4.
    return inet_ntop(_SOCKET_AF_INET, value.to_bytes(4, "big"))


def _parse_ipv6(text: str) -> int:
    """Parse an IPv6 address (RFC 4291 text form) into an integer.

    Supports ``::`` compression and an embedded IPv4 tail
    (e.g. ``::ffff:192.0.2.1``).
    """
    if text.count("::") > 1:
        raise PrefixParseError(text, "more than one '::'")

    head_text, sep, tail_text = text.partition("::")
    head = head_text.split(":") if head_text else []
    tail = tail_text.split(":") if tail_text else []
    if not sep and len(head) != 8 and not (head and "." in head[-1]):
        if len(head) != 8:
            raise PrefixParseError(text, "wrong number of groups")

    def expand(groups: list[str]) -> list[int]:
        words: list[int] = []
        for index, group in enumerate(groups):
            if "." in group:
                if index != len(groups) - 1:
                    raise PrefixParseError(text, "IPv4 tail must be last")
                v4 = _parse_ipv4(group)
                words.append(v4 >> 16)
                words.append(v4 & 0xFFFF)
                continue
            # ASCII hex digits only: int(group, 16) would also take a
            # sign, "_", "0x", blanks and other scripts' digits.
            if not group or len(group) > 4 or group.strip(_HEX_DIGITS):
                raise PrefixParseError(text, f"bad group {group!r}")
            words.append(int(group, 16))
        return words

    head_words = expand(head)
    tail_words = expand(tail)
    if sep:
        missing = 8 - len(head_words) - len(tail_words)
        if missing < 1:
            raise PrefixParseError(text, "'::' must compress at least one group")
        words = head_words + [0] * missing + tail_words
    else:
        words = head_words
    if len(words) != 8:
        raise PrefixParseError(text, "wrong number of groups")

    value = 0
    for word in words:
        value = (value << 16) | word
    return value


def _format_ipv6(value: int) -> str:
    """Format an integer as canonical (RFC 5952) IPv6 text."""
    words = [(value >> (16 * (7 - i))) & 0xFFFF for i in range(8)]

    # Find the longest run of zero words (length >= 2) for '::' compression.
    best_start, best_len = -1, 0
    run_start, run_len = -1, 0
    for index, word in enumerate(words):
        if word == 0:
            if run_start < 0:
                run_start, run_len = index, 0
            run_len += 1
            if run_len > best_len:
                best_start, best_len = run_start, run_len
        else:
            run_start, run_len = -1, 0

    if best_len >= 2:
        head = ":".join(f"{w:x}" for w in words[:best_start])
        tail = ":".join(f"{w:x}" for w in words[best_start + best_len:])
        return f"{head}::{tail}"
    return ":".join(f"{w:x}" for w in words)


@total_ordering
class Prefix:
    """An immutable IP prefix: address family, network address, length.

    The network address is normalized: any bits beyond ``length`` are
    cleared during construction, so two textual spellings of the same
    network compare equal.

    Ordering sorts by (family, network-integer, length), which groups
    covering prefixes immediately before their subprefixes — convenient
    for building tries and for deterministic output.
    """

    __slots__ = ("_family", "_value", "_length")

    def __init__(self, family: int, value: int, length: int) -> None:
        if family not in _MAX_LENGTH:
            raise PrefixParseError(str(value), f"unknown family {family}")
        max_length = _MAX_LENGTH[family]
        if not 0 <= length <= max_length:
            raise PrefixLengthError(
                f"length {length} out of range for IPv{family} (0..{max_length})"
            )
        if not 0 <= value < (1 << max_length):
            raise PrefixParseError(hex(value), "address out of range")
        mask = ((1 << length) - 1) << (max_length - length) if length else 0
        self._family = family
        self._value = value & mask
        self._length = length

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def parse(cls, text: str) -> "Prefix":
        """Parse ``"a.b.c.d/len"`` or ``"x:y::/len"`` into a Prefix.

        A bare address (no ``/len``) is treated as a host prefix
        (/32 for IPv4, /128 for IPv6).
        """
        text = text.strip()
        address_text, sep, length_text = text.partition("/")
        if ":" in address_text:
            family, value = AF_INET6, _parse_ipv6(address_text)
        else:
            family = AF_INET
            value = _parse_ipv4_canonical(address_text)
            if value is None:
                value = _parse_ipv4(address_text)
        max_length = _MAX_LENGTH[family]
        if not sep:
            length = max_length
        else:
            length = _LENGTHS.get(length_text)
            if length is None:
                if not is_ascii_digits(length_text):
                    raise PrefixParseError(text, "bad length")
                # Leading zeros, or past every family's width.
                length = _LENGTHS.get(length_text.lstrip("0") or "0", 129)
        if length > max_length:
            raise PrefixLengthError(
                f"length {length_text} out of range for IPv{family} in {text!r}"
            )
        # Everything __init__ checks holds by now, so only the host
        # bits are cleared here: calling it would add half again to a
        # parse, the bulk of loading a snapshot.
        prefix = object.__new__(cls)
        host_bits = max_length - length
        prefix._family = family
        prefix._value = value >> host_bits << host_bits
        prefix._length = length
        return prefix

    @classmethod
    def from_bits(cls, family: int, bits: str) -> "Prefix":
        """Build a prefix from a binary string of network bits.

        ``bits`` is the most-significant ``len(bits)`` bits of the network
        address; e.g. ``Prefix.from_bits(4, "1010")`` is ``160.0.0.0/4``.
        An empty string yields the default route ``0.0.0.0/0``.
        """
        max_length = _MAX_LENGTH[family]
        length = len(bits)
        if length > max_length:
            raise PrefixLengthError(f"{length} bits exceeds IPv{family} width")
        value = int(bits, 2) << (max_length - length) if bits else 0
        return cls(family, value, length)

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------

    @property
    def family(self) -> int:
        """Address family: 4 or 6."""
        return self._family

    @property
    def value(self) -> int:
        """The network address as an integer (host bits are zero)."""
        return self._value

    @property
    def length(self) -> int:
        """The prefix length in bits."""
        return self._length

    @property
    def max_family_length(self) -> int:
        """32 for IPv4, 128 for IPv6."""
        return _MAX_LENGTH[self._family]

    @property
    def is_ipv4(self) -> bool:
        return self._family == AF_INET

    @property
    def is_ipv6(self) -> bool:
        return self._family == AF_INET6

    def bits(self) -> str:
        """The network bits as a binary string of length ``self.length``."""
        if self._length == 0:
            return ""
        shifted = self._value >> (self.max_family_length - self._length)
        return format(shifted, f"0{self._length}b")

    def network_address(self) -> str:
        """Dotted-quad / RFC 5952 text of the network address."""
        if self._family == AF_INET:
            return _format_ipv4(self._value)
        return _format_ipv6(self._value)

    # ------------------------------------------------------------------
    # Containment and relations
    # ------------------------------------------------------------------

    def covers(self, other: "Prefix") -> bool:
        """True if ``other`` is equal to or a subprefix of this prefix.

        This is the RPKI "covering" relation (RFC 6811): the families
        match, this prefix is no longer than ``other``, and the first
        ``self.length`` bits agree.
        """
        if self._family != other._family:
            return False
        if self._length > other._length:
            return False
        if self._length == 0:
            return True
        shift = self.max_family_length - self._length
        return (self._value >> shift) == (other._value >> shift)

    def covers_properly(self, other: "Prefix") -> bool:
        """True if ``other`` is a strict subprefix (longer and covered)."""
        return self._length < other._length and self.covers(other)

    def overlaps(self, other: "Prefix") -> bool:
        """True if the address ranges intersect (one covers the other)."""
        return self.covers(other) or other.covers(self)

    def parent(self) -> "Prefix":
        """The covering prefix one bit shorter.

        Raises:
            PrefixLengthError: for the zero-length (default) route.
        """
        if self._length == 0:
            raise PrefixLengthError("the default route has no parent")
        return Prefix(self._family, self._value, self._length - 1)

    def sibling(self) -> "Prefix":
        """The other child of this prefix's parent (flip the last bit)."""
        if self._length == 0:
            raise PrefixLengthError("the default route has no sibling")
        bit = 1 << (self.max_family_length - self._length)
        return Prefix(self._family, self._value ^ bit, self._length)

    def left_child(self) -> "Prefix":
        """The subprefix one bit longer with the new bit = 0."""
        if self._length >= self.max_family_length:
            raise PrefixLengthError("host prefix has no children")
        return Prefix(self._family, self._value, self._length + 1)

    def right_child(self) -> "Prefix":
        """The subprefix one bit longer with the new bit = 1."""
        if self._length >= self.max_family_length:
            raise PrefixLengthError("host prefix has no children")
        bit = 1 << (self.max_family_length - self._length - 1)
        return Prefix(self._family, self._value | bit, self._length + 1)

    def is_left_child(self) -> bool:
        """True if this prefix is the 0-side child of its parent."""
        if self._length == 0:
            return False
        bit = 1 << (self.max_family_length - self._length)
        return not (self._value & bit)

    def subprefixes(self, length: int) -> Iterator["Prefix"]:
        """Iterate all subprefixes of exactly the given length, in order.

        ``length`` must be >= ``self.length``.  The number of results is
        ``2 ** (length - self.length)``; callers sweeping to /32 should
        beware exponential blowup.
        """
        if length < self._length:
            raise PrefixLengthError(
                f"cannot enumerate shorter ({length}) subprefixes of /{self._length}"
            )
        if length > self.max_family_length:
            raise PrefixLengthError(f"length {length} exceeds family width")
        step = 1 << (self.max_family_length - length)
        count = 1 << (length - self._length)
        for index in range(count):
            yield Prefix(self._family, self._value + index * step, length)

    def count_subprefixes(self, length: int) -> int:
        """Number of subprefixes of exactly the given length (no iteration)."""
        if length < self._length:
            return 0
        if length > self.max_family_length:
            raise PrefixLengthError(f"length {length} exceeds family width")
        return 1 << (length - self._length)

    def first_address(self) -> int:
        """Integer of the lowest address in this prefix."""
        return self._value

    def last_address(self) -> int:
        """Integer of the highest address in this prefix."""
        host_bits = self.max_family_length - self._length
        return self._value | ((1 << host_bits) - 1)

    def truncate(self, length: int) -> "Prefix":
        """The covering prefix of the given (shorter or equal) length."""
        if length > self._length:
            raise PrefixLengthError(
                f"cannot truncate /{self._length} to longer /{length}"
            )
        return Prefix(self._family, self._value, length)

    # ------------------------------------------------------------------
    # Dunder protocol
    # ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Prefix):
            return NotImplemented
        return (
            self._family == other._family
            and self._value == other._value
            and self._length == other._length
        )

    def __lt__(self, other: "Prefix") -> bool:
        if not isinstance(other, Prefix):
            return NotImplemented
        return (self._family, self._value, self._length) < (
            other._family,
            other._value,
            other._length,
        )

    def __hash__(self) -> int:
        return hash((self._family, self._value, self._length))

    def __str__(self) -> str:
        return f"{self.network_address()}/{self._length}"

    def __repr__(self) -> str:
        return f"Prefix({str(self)!r})"
