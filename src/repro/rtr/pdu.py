"""RPKI-to-Router protocol data units (RFC 6810 / RFC 8210).

The local cache speaks this binary protocol to routers (Figure 1 of the
paper).  Each VRP travels as one IPv4 or IPv6 Prefix PDU — which is why
the paper measures RPKI overhead in "number of PDUs processed by
routers" and why ``compress_roas`` targets exactly this count.

Wire formats follow RFC 6810 §5 byte-for-byte (version 0); the v1
(RFC 8210) differences are limited to fields we do not exercise.  All
integers are network byte order.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import ClassVar, Optional, Union

from ..netbase.errors import ReproError
from ..netbase.prefix import AF_INET, AF_INET6, Prefix
from ..rpki.vrp import Vrp

__all__ = [
    "PduError",
    "PROTOCOL_VERSION",
    "PROTOCOL_VERSION_1",
    "RouterKeyPdu",
    "SerialNotifyPdu",
    "SerialQueryPdu",
    "ResetQueryPdu",
    "CacheResponsePdu",
    "Ipv4PrefixPdu",
    "Ipv6PrefixPdu",
    "EndOfDataPdu",
    "CacheResetPdu",
    "ErrorReportPdu",
    "Pdu",
    "PduBuffer",
    "FLAG_ANNOUNCE",
    "FLAG_WITHDRAW",
    "encode_pdu",
    "decode_pdu",
    "decode_stream",
    "vrp_to_pdu",
    "pdu_to_vrp",
]

PROTOCOL_VERSION = 0

#: RFC 8210 revision: adds Router Key PDUs and End-of-Data timing
#: parameters.  Both versions share the framing.
PROTOCOL_VERSION_1 = 1

FLAG_ANNOUNCE = 1
FLAG_WITHDRAW = 0

_HEADER = struct.Struct("!BBHI")  # version, type, session/flags, length

# Bodies of the fixed-layout PDUs, unpacked in place at ``offset + 8``.
_SERIAL_BODY = struct.Struct("!I")        # Serial Notify/Query, End of Data
_INTERVALS_BODY = struct.Struct("!IIII")  # End of Data, version 1
_IPV4_BODY = struct.Struct("!BBBxII")     # flags, length, maxLength, -, address, asn
_IPV6_BODY = struct.Struct("!BBBxQQI")    # ... address as two 64-bit halves


class PduError(ReproError):
    """Malformed or unsupported PDU bytes."""


@dataclass(frozen=True)
class SerialNotifyPdu:
    """Cache → router: new data is available (type 0)."""

    session_id: int
    serial: int
    pdu_type: ClassVar[int] = 0


@dataclass(frozen=True)
class SerialQueryPdu:
    """Router → cache: send changes since ``serial`` (type 1)."""

    session_id: int
    serial: int
    pdu_type: ClassVar[int] = 1


@dataclass(frozen=True)
class ResetQueryPdu:
    """Router → cache: send everything (type 2)."""

    pdu_type: ClassVar[int] = 2


@dataclass(frozen=True)
class CacheResponsePdu:
    """Cache → router: data follows (type 3)."""

    session_id: int
    pdu_type: ClassVar[int] = 3


@dataclass(frozen=True)
class Ipv4PrefixPdu:
    """One IPv4 VRP announce/withdraw (type 4)."""

    flags: int
    prefix_length: int
    max_length: int
    prefix_value: int  # 32-bit network address
    asn: int
    pdu_type: ClassVar[int] = 4


@dataclass(frozen=True)
class Ipv6PrefixPdu:
    """One IPv6 VRP announce/withdraw (type 6)."""

    flags: int
    prefix_length: int
    max_length: int
    prefix_value: int  # 128-bit network address
    asn: int
    pdu_type: ClassVar[int] = 6


@dataclass(frozen=True)
class EndOfDataPdu:
    """Cache → router: data complete, current serial (type 7).

    Version 1 (RFC 8210 §5.8) appends three timing parameters telling
    the router how often to poll (refresh), how fast to retry after a
    failure (retry), and when to discard stale data (expire); they are
    None on version-0 sessions.
    """

    session_id: int
    serial: int
    refresh_interval: Optional[int] = None
    retry_interval: Optional[int] = None
    expire_interval: Optional[int] = None
    pdu_type: ClassVar[int] = 7

    @property
    def has_intervals(self) -> bool:
        return self.refresh_interval is not None


@dataclass(frozen=True)
class RouterKeyPdu:
    """One BGPsec router key (type 3 in RFC 8210 numbering is Cache
    Response; Router Key is type 9, version 1 only)."""

    flags: int
    subject_key_identifier: bytes  # 20 bytes (SHA-1 of the SPKI)
    asn: int
    spki: bytes
    pdu_type: ClassVar[int] = 9

    def __post_init__(self) -> None:
        if len(self.subject_key_identifier) != 20:
            raise PduError("subject key identifier must be 20 bytes")


@dataclass(frozen=True)
class CacheResetPdu:
    """Cache → router: cannot do incremental, reset (type 8)."""

    pdu_type: ClassVar[int] = 8


@dataclass(frozen=True)
class ErrorReportPdu:
    """Either direction: protocol error (type 10)."""

    error_code: int
    encapsulated: bytes = b""
    text: str = ""
    pdu_type: ClassVar[int] = 10

    # RFC 6810 §10 error codes used here.
    CORRUPT_DATA: ClassVar[int] = 0
    NO_DATA_AVAILABLE: ClassVar[int] = 2
    INVALID_REQUEST: ClassVar[int] = 3
    UNSUPPORTED_VERSION: ClassVar[int] = 4
    UNSUPPORTED_PDU: ClassVar[int] = 5


Pdu = Union[
    SerialNotifyPdu,
    SerialQueryPdu,
    ResetQueryPdu,
    CacheResponsePdu,
    Ipv4PrefixPdu,
    Ipv6PrefixPdu,
    EndOfDataPdu,
    CacheResetPdu,
    RouterKeyPdu,
    ErrorReportPdu,
]


# ----------------------------------------------------------------------
# VRP conversion
# ----------------------------------------------------------------------


def vrp_to_pdu(vrp: Vrp, announce: bool = True) -> Pdu:
    """The prefix PDU announcing (or withdrawing) one VRP."""
    flags = FLAG_ANNOUNCE if announce else FLAG_WITHDRAW
    if vrp.prefix.family == AF_INET:
        return Ipv4PrefixPdu(
            flags=flags,
            prefix_length=vrp.prefix.length,
            max_length=vrp.max_length,
            prefix_value=vrp.prefix.value,
            asn=vrp.asn,
        )
    return Ipv6PrefixPdu(
        flags=flags,
        prefix_length=vrp.prefix.length,
        max_length=vrp.max_length,
        prefix_value=vrp.prefix.value,
        asn=vrp.asn,
    )


def pdu_to_vrp(pdu: Pdu) -> Vrp:
    """Recover the VRP from a prefix PDU."""
    if isinstance(pdu, Ipv4PrefixPdu):
        return Vrp(Prefix(AF_INET, pdu.prefix_value, pdu.prefix_length),
                   pdu.max_length, pdu.asn)
    if isinstance(pdu, Ipv6PrefixPdu):
        return Vrp(Prefix(AF_INET6, pdu.prefix_value, pdu.prefix_length),
                   pdu.max_length, pdu.asn)
    raise PduError(f"{type(pdu).__name__} carries no VRP")


# ----------------------------------------------------------------------
# Encoding
# ----------------------------------------------------------------------


def encode_pdu(pdu: Pdu, version: int = PROTOCOL_VERSION) -> bytes:
    """Serialize one PDU to its RFC 6810/8210 wire form.

    ``version`` selects the protocol revision stamped in the header;
    End-of-Data interval fields and Router Key PDUs require version 1.
    """
    if version not in (PROTOCOL_VERSION, PROTOCOL_VERSION_1):
        raise PduError(f"unsupported protocol version {version}")
    if isinstance(pdu, (SerialNotifyPdu, SerialQueryPdu)):
        return _HEADER.pack(version, pdu.pdu_type, pdu.session_id, 12) \
            + struct.pack("!I", pdu.serial)
    if isinstance(pdu, (ResetQueryPdu, CacheResetPdu)):
        return _HEADER.pack(version, pdu.pdu_type, 0, 8)
    if isinstance(pdu, CacheResponsePdu):
        return _HEADER.pack(version, pdu.pdu_type, pdu.session_id, 8)
    if isinstance(pdu, RouterKeyPdu):
        if version != PROTOCOL_VERSION_1:
            raise PduError("Router Key PDUs require protocol version 1")
        body = (
            pdu.subject_key_identifier
            + struct.pack("!I", pdu.asn)
            + pdu.spki
        )
        return _HEADER.pack(
            version, pdu.pdu_type, pdu.flags << 8, 8 + len(body)
        ) + body
    if isinstance(pdu, Ipv4PrefixPdu):
        return _HEADER.pack(version, pdu.pdu_type, 0, 20) + struct.pack(
            "!BBBB4sI",
            pdu.flags,
            pdu.prefix_length,
            pdu.max_length,
            0,
            pdu.prefix_value.to_bytes(4, "big"),
            pdu.asn,
        )
    if isinstance(pdu, Ipv6PrefixPdu):
        return _HEADER.pack(version, pdu.pdu_type, 0, 32) + struct.pack(
            "!BBBB16sI",
            pdu.flags,
            pdu.prefix_length,
            pdu.max_length,
            0,
            pdu.prefix_value.to_bytes(16, "big"),
            pdu.asn,
        )
    if isinstance(pdu, EndOfDataPdu):
        if version == PROTOCOL_VERSION_1 and pdu.has_intervals:
            return _HEADER.pack(version, pdu.pdu_type, pdu.session_id, 24) \
                + struct.pack(
                    "!IIII", pdu.serial, pdu.refresh_interval,
                    pdu.retry_interval, pdu.expire_interval,
                )
        return _HEADER.pack(version, pdu.pdu_type, pdu.session_id, 12) \
            + struct.pack("!I", pdu.serial)
    if isinstance(pdu, ErrorReportPdu):
        text_bytes = pdu.text.encode("utf-8")
        body = (
            struct.pack("!I", len(pdu.encapsulated))
            + pdu.encapsulated
            + struct.pack("!I", len(text_bytes))
            + text_bytes
        )
        return _HEADER.pack(
            version, pdu.pdu_type, pdu.error_code, 8 + len(body)
        ) + body
    raise PduError(f"cannot encode {type(pdu).__name__}")


# ----------------------------------------------------------------------
# Decoding
# ----------------------------------------------------------------------


def decode_pdu(data: bytes, offset: int = 0) -> tuple[Pdu, int]:
    """Decode one PDU starting at ``offset`` into ``data``.

    Returns (pdu, bytes_consumed).  Taking an offset (instead of
    requiring callers to slice) lets :func:`decode_stream` walk a large
    receive buffer without copying the remainder once per PDU.

    Raises:
        PduError: on malformed bytes or an unsupported type/version.
        IncompletePdu: when more bytes are needed.
    """
    available = len(data) - offset
    if available < 8:
        raise IncompletePdu(8 - available)
    version, pdu_type, session_field, length = _HEADER.unpack_from(data, offset)
    if version not in (PROTOCOL_VERSION, PROTOCOL_VERSION_1):
        raise PduError(f"unsupported protocol version {version}")
    if length < 8 or length > 1 << 20:
        raise PduError(f"implausible PDU length {length}")
    if available < length:
        raise IncompletePdu(length - available)
    body_length = length - 8
    at = offset + 8

    if pdu_type == Ipv4PrefixPdu.pdu_type:
        _expect(body_length, 12, "IPv4 Prefix")
        return Ipv4PrefixPdu(*_IPV4_BODY.unpack_from(data, at)), length
    if pdu_type == Ipv6PrefixPdu.pdu_type:
        _expect(body_length, 24, "IPv6 Prefix")
        flags, plen, mlen, high, low, asn = _IPV6_BODY.unpack_from(data, at)
        return Ipv6PrefixPdu(flags, plen, mlen, high << 64 | low, asn), length
    if pdu_type == SerialNotifyPdu.pdu_type:
        _expect(body_length, 4, "Serial Notify")
        return SerialNotifyPdu(
            session_field, *_SERIAL_BODY.unpack_from(data, at)), length
    if pdu_type == SerialQueryPdu.pdu_type:
        _expect(body_length, 4, "Serial Query")
        return SerialQueryPdu(
            session_field, *_SERIAL_BODY.unpack_from(data, at)), length
    if pdu_type == ResetQueryPdu.pdu_type:
        _expect(body_length, 0, "Reset Query")
        return ResetQueryPdu(), length
    if pdu_type == CacheResponsePdu.pdu_type:
        _expect(body_length, 0, "Cache Response")
        return CacheResponsePdu(session_field), length
    if pdu_type == EndOfDataPdu.pdu_type:
        if body_length == 16:
            return EndOfDataPdu(
                session_field, *_INTERVALS_BODY.unpack_from(data, at)), length
        _expect(body_length, 4, "End of Data")
        return EndOfDataPdu(
            session_field, *_SERIAL_BODY.unpack_from(data, at)), length
    if pdu_type == CacheResetPdu.pdu_type:
        _expect(body_length, 0, "Cache Reset")
        return CacheResetPdu(), length

    body = data[at:offset + length]
    if pdu_type == RouterKeyPdu.pdu_type:
        if version != PROTOCOL_VERSION_1:
            raise PduError("Router Key PDU on a version-0 session")
        if len(body) < 24:
            raise PduError("truncated Router Key PDU")
        ski = body[:20]
        asn = _u32(body[20:24])
        spki = body[24:]
        return RouterKeyPdu(session_field >> 8, ski, asn, spki), length
    if pdu_type == ErrorReportPdu.pdu_type:
        if len(body) < 8:
            raise PduError("truncated Error Report")
        encapsulated_length = _u32(body[0:4])
        offset = 4 + encapsulated_length
        if len(body) < offset + 4:
            raise PduError("truncated Error Report payload")
        encapsulated = body[4:offset]
        text_length = _u32(body[offset:offset + 4])
        text_bytes = body[offset + 4:offset + 4 + text_length]
        if len(text_bytes) != text_length:
            raise PduError("truncated Error Report text")
        return (
            ErrorReportPdu(session_field, encapsulated,
                           text_bytes.decode("utf-8", "replace")),
            length,
        )
    raise PduError(f"unsupported PDU type {pdu_type}")


class IncompletePdu(PduError):
    """More bytes are required to decode the pending PDU."""

    def __init__(self, missing: int) -> None:
        self.missing = missing
        super().__init__(f"need {missing} more bytes")


def decode_stream(data: bytes) -> tuple[list[Pdu], bytes]:
    """Decode as many PDUs as ``data`` holds; returns (pdus, remainder).

    The remainder is whatever trails the last complete PDU — typically
    a frame split mid-header (or mid-body) by the transport; prepend
    the next read to it and call again.  Decoding walks the buffer by
    offset, so a full-table blob decodes in linear time rather than
    re-copying the tail once per PDU.
    """
    pdus: list[Pdu] = []
    offset = 0
    while offset < len(data):
        try:
            pdu, consumed = decode_pdu(data, offset)
        except IncompletePdu:
            break
        pdus.append(pdu)
        offset += consumed
    return pdus, data[offset:]


class PduBuffer:
    """Incremental decode state for one PDU byte stream.

    ``feed()`` the bytes as they arrive; ``next()`` yields complete
    PDUs (or None when more bytes are needed).  Consumption advances
    an offset and the spent prefix is trimmed only on the next feed,
    so decoding a full-table stream stays linear instead of re-copying
    the tail once per PDU.  Shared by the synchronous and asyncio RTR
    clients so the buffer-management subtleties live in one place.
    """

    __slots__ = ("_data", "_pos")

    def __init__(self) -> None:
        self._data = b""
        self._pos = 0

    def feed(self, chunk: bytes) -> None:
        if self._pos:
            self._data = self._data[self._pos:]
            self._pos = 0
        self._data += chunk

    def next(self) -> Optional[Pdu]:
        """The next complete PDU, or None when more bytes are needed.

        Raises PduError on malformed bytes, like :func:`decode_pdu`.
        """
        try:
            pdu, consumed = decode_pdu(self._data, self._pos)
        except IncompletePdu:
            return None
        self._pos += consumed
        return pdu


def _u32(body: bytes) -> int:
    return struct.unpack("!I", body[:4])[0]


def _expect(body_length: int, size: int, name: str) -> None:
    if body_length != size:
        raise PduError(f"{name} body must be {size} bytes, got {body_length}")
