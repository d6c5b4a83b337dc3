"""Object identifiers used by the simulated RPKI profiles."""

from ..asn1.der import ObjectIdentifier

#: RFC 6482: id-ct-routeOriginAuthz
OID_ROA_ECONTENT = ObjectIdentifier("1.2.840.113549.1.9.16.1.24")

#: RFC 6486: id-ct-rpkiManifest
OID_MANIFEST_ECONTENT = ObjectIdentifier("1.2.840.113549.1.9.16.1.26")

#: RFC 8017: sha256WithRSAEncryption
OID_SHA256_RSA = ObjectIdentifier("1.2.840.113549.1.1.11")

#: RFC 3779: id-pe-ipAddrBlocks
OID_IP_RESOURCES = ObjectIdentifier("1.3.6.1.5.5.7.1.7")

#: RFC 3779: id-pe-autonomousSysIds
OID_AS_RESOURCES = ObjectIdentifier("1.3.6.1.5.5.7.1.8")
