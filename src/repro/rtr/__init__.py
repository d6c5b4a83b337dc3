"""RPKI-to-Router protocol (RFC 6810/8210): PDUs, cache state, client.

The server side lives in :mod:`repro.serve.rtr_async`.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "client": ("RtrClient", "RtrClientError"),
    "pdu": (
        "CacheResetPdu", "CacheResponsePdu", "EndOfDataPdu", "ErrorReportPdu",
        "FLAG_ANNOUNCE", "FLAG_WITHDRAW", "IncompletePdu", "Ipv4PrefixPdu",
        "Ipv6PrefixPdu", "PROTOCOL_VERSION", "PROTOCOL_VERSION_1", "Pdu",
        "PduBuffer", "PduError", "ResetQueryPdu", "RouterKeyPdu",
        "SerialNotifyPdu", "SerialQueryPdu", "decode_pdu", "decode_stream",
        "encode_pdu", "pdu_to_vrp", "vrp_to_pdu",
    ),
    "session": ("CacheState", "VrpDiff"),
})
