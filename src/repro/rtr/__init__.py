"""RPKI-to-Router protocol (RFC 6810/8210): PDUs, cache state, client.

The server side lives in :mod:`repro.serve.rtr_async`.
"""

from .client import RtrClient, RtrClientError
from .pdu import (
    CacheResetPdu,
    CacheResponsePdu,
    EndOfDataPdu,
    ErrorReportPdu,
    FLAG_ANNOUNCE,
    FLAG_WITHDRAW,
    IncompletePdu,
    Ipv4PrefixPdu,
    Ipv6PrefixPdu,
    Pdu,
    PduError,
    PROTOCOL_VERSION,
    PROTOCOL_VERSION_1,
    PduBuffer,
    RouterKeyPdu,
    ResetQueryPdu,
    SerialNotifyPdu,
    SerialQueryPdu,
    decode_pdu,
    decode_stream,
    encode_pdu,
    pdu_to_vrp,
    vrp_to_pdu,
)
from .session import CacheState, VrpDiff

__all__ = [
    "CacheResetPdu",
    "CacheResponsePdu",
    "CacheState",
    "EndOfDataPdu",
    "ErrorReportPdu",
    "FLAG_ANNOUNCE",
    "FLAG_WITHDRAW",
    "IncompletePdu",
    "Ipv4PrefixPdu",
    "Ipv6PrefixPdu",
    "PROTOCOL_VERSION",
    "PROTOCOL_VERSION_1",
    "RouterKeyPdu",
    "Pdu",
    "PduBuffer",
    "PduError",
    "ResetQueryPdu",
    "RtrClient",
    "RtrClientError",
    "SerialNotifyPdu",
    "SerialQueryPdu",
    "VrpDiff",
    "decode_pdu",
    "decode_stream",
    "encode_pdu",
    "pdu_to_vrp",
    "vrp_to_pdu",
]
