"""Network primitives: prefixes, AS numbers, the prefix table, the
record codec.

This subpackage is dependency-free (standard library only) and provides
the value types everything else is built on.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "asnum": (
        "AS_TRANS", "MAX_ASN", "format_asn", "is_ascii_digits",
        "is_private_asn", "is_reserved_asn", "parse_asn", "validate_asn",
    ),
    "errors": (
        "AsnError", "PrefixError", "PrefixLengthError", "PrefixParseError",
        "ReproError", "TrieError", "ValidationError",
    ),
    "prefix": ("AF_INET", "AF_INET6", "Prefix"),
    "prefixtable": ("PrefixTable",),
})
