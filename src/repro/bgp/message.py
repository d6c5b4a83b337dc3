"""BGP-4 wire messages (RFC 4271, with RFC 4760 IPv6 and RFC 6793 AS4).

The simulation layer works on abstract announcements, but a credible
BGP substrate should also speak the wire format: route collectors
(RouteViews) store UPDATE messages, and origin-validation measurement
pipelines parse them.  This module implements the subset needed to
serialize and parse our announcements:

* the common 19-byte header with the 16-byte marker;
* OPEN (version 4, AS, hold time, BGP identifier, capabilities as an
  opaque blob);
* UPDATE with withdrawn routes, path attributes — ORIGIN, AS_PATH
  (AS_SET / AS_SEQUENCE segments, 4-byte ASNs), NEXT_HOP,
  MP_REACH_NLRI for IPv6 — and IPv4 NLRI;
* KEEPALIVE and NOTIFICATION.

Prefixes use the standard (length-byte, truncated-address) NLRI
encoding for both families.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import ClassVar, Optional, Union

from ..netbase.asnum import validate_asn
from ..netbase.errors import ReproError
from ..netbase.prefix import AF_INET, AF_INET6, Prefix
from .announcement import Announcement

__all__ = [
    "BgpMessageError",
    "BgpHeader",
    "OpenMessage",
    "UpdateMessage",
    "KeepaliveMessage",
    "NotificationMessage",
    "BgpMessage",
    "AsPathSegment",
    "encode_message",
    "decode_message",
    "announcement_to_update",
    "update_to_announcements",
]

MARKER = b"\xff" * 16
HEADER_LENGTH = 19

TYPE_OPEN = 1
TYPE_UPDATE = 2
TYPE_NOTIFICATION = 3
TYPE_KEEPALIVE = 4

ATTR_ORIGIN = 1
ATTR_AS_PATH = 2
ATTR_NEXT_HOP = 3
ATTR_MP_REACH_NLRI = 14

ORIGIN_IGP = 0
ORIGIN_EGP = 1
ORIGIN_INCOMPLETE = 2

SEGMENT_AS_SET = 1
SEGMENT_AS_SEQUENCE = 2

FLAG_OPTIONAL = 0x80
FLAG_TRANSITIVE = 0x40
FLAG_EXTENDED_LENGTH = 0x10

AFI_IPV4 = 1
AFI_IPV6 = 2
SAFI_UNICAST = 1


class BgpMessageError(ReproError):
    """Malformed BGP message bytes or an unencodable message."""


@dataclass(frozen=True)
class BgpHeader:
    """The 19-byte header preceding every message."""

    length: int
    message_type: int

    def encode(self) -> bytes:
        return MARKER + struct.pack("!HB", self.length, self.message_type)

    @classmethod
    def decode(cls, data: bytes) -> "BgpHeader":
        if len(data) < HEADER_LENGTH:
            raise BgpMessageError("truncated BGP header")
        if data[:16] != MARKER:
            raise BgpMessageError("bad BGP marker")
        length, message_type = struct.unpack("!HB", data[16:19])
        if not HEADER_LENGTH <= length <= 4096:
            raise BgpMessageError(f"implausible BGP length {length}")
        return cls(length, message_type)


@dataclass(frozen=True)
class OpenMessage:
    """BGP OPEN (RFC 4271 §4.2)."""

    asn: int
    hold_time: int
    bgp_identifier: int
    capabilities: bytes = b""
    version: int = 4
    message_type: ClassVar[int] = TYPE_OPEN

    def body(self) -> bytes:
        # 2-byte AS field carries AS_TRANS for 4-byte ASNs (RFC 6793).
        two_byte = self.asn if self.asn <= 0xFFFF else 23456
        optional = (
            bytes([2, len(self.capabilities)]) + self.capabilities
            if self.capabilities
            else b""
        )
        return (
            struct.pack(
                "!BHHI", self.version, two_byte, self.hold_time,
                self.bgp_identifier,
            )
            + bytes([len(optional)])
            + optional
        )

    @classmethod
    def from_body(cls, body: bytes) -> "OpenMessage":
        if len(body) < 10:
            raise BgpMessageError("truncated OPEN body")
        version, asn, hold_time, identifier = struct.unpack("!BHHI", body[:9])
        optional_length = body[9]
        optional = body[10:10 + optional_length]
        if len(optional) != optional_length:
            raise BgpMessageError("truncated OPEN optional parameters")
        capabilities = b""
        if optional:
            if len(optional) < 2 or optional[0] != 2:
                raise BgpMessageError("unsupported OPEN optional parameter")
            capabilities = optional[2:2 + optional[1]]
        return cls(asn, hold_time, identifier, capabilities, version)


@dataclass(frozen=True)
class AsPathSegment:
    """One AS_PATH segment: an ordered sequence or an unordered set."""

    segment_type: int
    asns: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.segment_type not in (SEGMENT_AS_SET, SEGMENT_AS_SEQUENCE):
            raise BgpMessageError(f"bad segment type {self.segment_type}")
        if not 0 < len(self.asns) <= 255:
            raise BgpMessageError("segment must hold 1..255 ASNs")
        for asn in self.asns:
            validate_asn(asn)

    def encode(self) -> bytes:
        body = struct.pack("!BB", self.segment_type, len(self.asns))
        for asn in self.asns:
            body += struct.pack("!I", asn)
        return body


def _encode_nlri(prefix: Prefix) -> bytes:
    """(length, truncated network bytes) NLRI form."""
    byte_count = (prefix.length + 7) // 8
    width = prefix.max_family_length // 8
    address = prefix.value.to_bytes(width, "big")
    return bytes([prefix.length]) + address[:byte_count]


def _decode_nlri(data: bytes, offset: int, family: int) -> tuple[Prefix, int]:
    if offset >= len(data):
        raise BgpMessageError("truncated NLRI")
    length = data[offset]
    width = 32 if family == AF_INET else 128
    if length > width:
        raise BgpMessageError(f"NLRI length {length} too long for family")
    byte_count = (length + 7) // 8
    chunk = data[offset + 1:offset + 1 + byte_count]
    if len(chunk) != byte_count:
        raise BgpMessageError("truncated NLRI address")
    value = int.from_bytes(chunk + b"\x00" * (width // 8 - byte_count), "big")
    return Prefix(family, value, length), offset + 1 + byte_count


@dataclass(frozen=True)
class UpdateMessage:
    """BGP UPDATE carrying withdrawals and/or one set of reachable NLRI.

    Attributes:
        withdrawn: IPv4 prefixes being withdrawn.
        origin: ORIGIN attribute value (IGP/EGP/INCOMPLETE).
        as_path: AS_PATH segments (empty for pure withdrawals).
        next_hop: IPv4 next hop as an int (None to omit).
        nlri: announced IPv4 prefixes.
        nlri_v6: announced IPv6 prefixes (MP_REACH_NLRI).
        next_hop_v6: IPv6 next hop as an int (used with ``nlri_v6``).
    """

    withdrawn: tuple[Prefix, ...] = ()
    origin: Optional[int] = None
    as_path: tuple[AsPathSegment, ...] = ()
    next_hop: Optional[int] = None
    nlri: tuple[Prefix, ...] = ()
    nlri_v6: tuple[Prefix, ...] = ()
    next_hop_v6: int = 0
    message_type: ClassVar[int] = TYPE_UPDATE

    def flat_as_path(self) -> tuple[int, ...]:
        """The concatenated AS_SEQUENCE view (sets flattened sorted)."""
        path: list[int] = []
        for segment in self.as_path:
            asns = (
                segment.asns
                if segment.segment_type == SEGMENT_AS_SEQUENCE
                else tuple(sorted(segment.asns))
            )
            path.extend(asns)
        return tuple(path)

    # ------------------------------------------------------------------
    # Encoding
    # ------------------------------------------------------------------

    def _encode_attribute(self, type_code: int, value: bytes,
                          flags: int = FLAG_TRANSITIVE) -> bytes:
        if len(value) > 255:
            flags |= FLAG_EXTENDED_LENGTH
            return struct.pack("!BBH", flags, type_code, len(value)) + value
        return struct.pack("!BBB", flags, type_code, len(value)) + value

    def body(self) -> bytes:
        withdrawn = b"".join(_encode_nlri(p) for p in self.withdrawn)
        attributes = b""
        if self.origin is not None:
            attributes += self._encode_attribute(ATTR_ORIGIN, bytes([self.origin]))
        if self.as_path:
            attributes += self._encode_attribute(
                ATTR_AS_PATH,
                b"".join(segment.encode() for segment in self.as_path),
            )
        if self.next_hop is not None:
            attributes += self._encode_attribute(
                ATTR_NEXT_HOP, self.next_hop.to_bytes(4, "big")
            )
        if self.nlri_v6:
            mp = struct.pack("!HBB", AFI_IPV6, SAFI_UNICAST, 16)
            mp += self.next_hop_v6.to_bytes(16, "big")
            mp += b"\x00"  # reserved
            mp += b"".join(_encode_nlri(p) for p in self.nlri_v6)
            attributes += self._encode_attribute(
                ATTR_MP_REACH_NLRI, mp, flags=FLAG_OPTIONAL
            )
        nlri = b"".join(_encode_nlri(p) for p in self.nlri)
        return (
            struct.pack("!H", len(withdrawn))
            + withdrawn
            + struct.pack("!H", len(attributes))
            + attributes
            + nlri
        )

    # ------------------------------------------------------------------
    # Decoding
    # ------------------------------------------------------------------

    @classmethod
    def from_body(cls, body: bytes) -> "UpdateMessage":
        if len(body) < 4:
            raise BgpMessageError("truncated UPDATE body")
        withdrawn_length = struct.unpack_from("!H", body, 0)[0]
        offset = 2
        end_withdrawn = offset + withdrawn_length
        if end_withdrawn + 2 > len(body):
            raise BgpMessageError("withdrawn length overruns body")
        withdrawn: list[Prefix] = []
        while offset < end_withdrawn:
            prefix, offset = _decode_nlri(body, offset, AF_INET)
            withdrawn.append(prefix)

        attributes_length = struct.unpack_from("!H", body, offset)[0]
        offset += 2
        end_attributes = offset + attributes_length
        if end_attributes > len(body):
            raise BgpMessageError("attributes length overruns body")

        origin: Optional[int] = None
        segments: list[AsPathSegment] = []
        next_hop: Optional[int] = None
        nlri_v6: list[Prefix] = []
        next_hop_v6 = 0
        while offset < end_attributes:
            if offset + 3 > end_attributes:
                raise BgpMessageError("truncated path attribute header")
            flags, type_code = body[offset], body[offset + 1]
            offset += 2
            if flags & FLAG_EXTENDED_LENGTH:
                if offset + 2 > end_attributes:
                    raise BgpMessageError("truncated extended length")
                value_length = struct.unpack_from("!H", body, offset)[0]
                offset += 2
            else:
                value_length = body[offset]
                offset += 1
            value = body[offset:offset + value_length]
            if len(value) != value_length:
                raise BgpMessageError("truncated attribute value")
            offset += value_length

            if type_code == ATTR_ORIGIN:
                if value_length != 1 or value[0] > 2:
                    raise BgpMessageError("bad ORIGIN attribute")
                origin = value[0]
            elif type_code == ATTR_AS_PATH:
                segments.extend(cls._decode_as_path(value))
            elif type_code == ATTR_NEXT_HOP:
                if value_length != 4:
                    raise BgpMessageError("bad NEXT_HOP attribute")
                next_hop = int.from_bytes(value, "big")
            elif type_code == ATTR_MP_REACH_NLRI:
                nlri_v6, next_hop_v6 = cls._decode_mp_reach(value)
            # unknown attributes are skipped (tolerant reader)

        nlri: list[Prefix] = []
        while offset < len(body):
            prefix, offset = _decode_nlri(body, offset, AF_INET)
            nlri.append(prefix)
        return cls(
            withdrawn=tuple(withdrawn),
            origin=origin,
            as_path=tuple(segments),
            next_hop=next_hop,
            nlri=tuple(nlri),
            nlri_v6=tuple(nlri_v6),
            next_hop_v6=next_hop_v6,
        )

    @staticmethod
    def _decode_as_path(value: bytes) -> list[AsPathSegment]:
        segments = []
        offset = 0
        while offset < len(value):
            if offset + 2 > len(value):
                raise BgpMessageError("truncated AS_PATH segment header")
            segment_type, count = value[offset], value[offset + 1]
            offset += 2
            needed = 4 * count
            chunk = value[offset:offset + needed]
            if len(chunk) != needed:
                raise BgpMessageError("truncated AS_PATH segment")
            asns = struct.unpack(f"!{count}I", chunk)
            segments.append(AsPathSegment(segment_type, asns))
            offset += needed
        return segments

    @staticmethod
    def _decode_mp_reach(value: bytes) -> tuple[list[Prefix], int]:
        if len(value) < 5:
            raise BgpMessageError("truncated MP_REACH_NLRI")
        afi, safi, next_hop_length = struct.unpack_from("!HBB", value, 0)
        if afi != AFI_IPV6 or safi != SAFI_UNICAST:
            raise BgpMessageError(f"unsupported AFI/SAFI {afi}/{safi}")
        offset = 4
        next_hop_bytes = value[offset:offset + next_hop_length]
        if len(next_hop_bytes) != next_hop_length:
            raise BgpMessageError("truncated MP next hop")
        next_hop = int.from_bytes(next_hop_bytes[:16].ljust(16, b"\x00"), "big")
        offset += next_hop_length + 1  # +1 reserved byte
        prefixes: list[Prefix] = []
        while offset < len(value):
            prefix, offset = _decode_nlri(value, offset, AF_INET6)
            prefixes.append(prefix)
        return prefixes, next_hop


@dataclass(frozen=True)
class KeepaliveMessage:
    """BGP KEEPALIVE (RFC 4271 §4.4): header only, empty body."""

    message_type: ClassVar[int] = TYPE_KEEPALIVE

    def body(self) -> bytes:
        return b""

    @classmethod
    def from_body(cls, body: bytes) -> "KeepaliveMessage":
        if body:
            raise BgpMessageError("KEEPALIVE must have an empty body")
        return cls()


@dataclass(frozen=True)
class NotificationMessage:
    """BGP NOTIFICATION (RFC 4271 §4.5): error code, subcode, data."""

    error_code: int
    error_subcode: int = 0
    data: bytes = b""
    message_type: ClassVar[int] = TYPE_NOTIFICATION

    def body(self) -> bytes:
        return bytes([self.error_code, self.error_subcode]) + self.data

    @classmethod
    def from_body(cls, body: bytes) -> "NotificationMessage":
        if len(body) < 2:
            raise BgpMessageError("truncated NOTIFICATION body")
        return cls(body[0], body[1], body[2:])


BgpMessage = Union[OpenMessage, UpdateMessage, KeepaliveMessage, NotificationMessage]

_BODY_PARSERS = {
    TYPE_OPEN: OpenMessage.from_body,
    TYPE_UPDATE: UpdateMessage.from_body,
    TYPE_KEEPALIVE: KeepaliveMessage.from_body,
    TYPE_NOTIFICATION: NotificationMessage.from_body,
}


def encode_message(message: BgpMessage) -> bytes:
    """Serialize a message with its header."""
    body = message.body()
    length = HEADER_LENGTH + len(body)
    if length > 4096:
        raise BgpMessageError(f"message of {length} bytes exceeds BGP maximum")
    return BgpHeader(length, message.message_type).encode() + body


def decode_message(data: bytes) -> tuple[BgpMessage, int]:
    """Decode one message from the head of ``data``.

    Returns (message, bytes consumed).
    """
    header = BgpHeader.decode(data)
    if len(data) < header.length:
        raise BgpMessageError("truncated BGP message body")
    body = data[HEADER_LENGTH:header.length]
    parser = _BODY_PARSERS.get(header.message_type)
    if parser is None:
        raise BgpMessageError(f"unknown message type {header.message_type}")
    return parser(body), header.length


# ----------------------------------------------------------------------
# Announcement bridging
# ----------------------------------------------------------------------


def announcement_to_update(
    announcement: Announcement, *, next_hop: int = 0xC0000201
) -> UpdateMessage:
    """The UPDATE a neighbor would receive for this announcement."""
    segment = AsPathSegment(SEGMENT_AS_SEQUENCE, announcement.as_path)
    if announcement.prefix.family == AF_INET:
        return UpdateMessage(
            origin=ORIGIN_IGP,
            as_path=(segment,),
            next_hop=next_hop,
            nlri=(announcement.prefix,),
        )
    return UpdateMessage(
        origin=ORIGIN_IGP,
        as_path=(segment,),
        nlri_v6=(announcement.prefix,),
        next_hop_v6=next_hop,
    )


def update_to_announcements(update: UpdateMessage) -> list[Announcement]:
    """All announcements carried by an UPDATE (both families)."""
    path = update.flat_as_path()
    if not path:
        return []
    return [Announcement(p, path) for p in update.nlri + update.nlri_v6]
