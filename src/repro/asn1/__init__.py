"""Minimal DER (X.690) encoder/decoder for RPKI object profiles."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "der": (
        "Asn1Error", "Asn1Value", "BitString", "ContextTag", "Integer",
        "Null", "ObjectIdentifier", "OctetString", "Sequence_", "Set_",
        "Utf8String", "decode", "decode_all", "encode",
    ),
})
