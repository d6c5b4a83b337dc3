"""Pure-Python cryptography for the simulated RPKI (RSA + SHA-256)."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "rsa": (
        "RsaPrivateKey", "RsaPublicKey", "SignatureError", "generate_keypair",
    ),
})
