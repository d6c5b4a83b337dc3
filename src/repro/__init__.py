"""repro — a reproduction of "MaxLength Considered Harmful to the RPKI".

Gilad, Sagga, Goldberg — CoNEXT 2017, DOI 10.1145/3143361.3143363.

The package layers, bottom to top:

* :mod:`repro.netbase` — IP prefixes, AS numbers, the per-length prefix
  table, the record codec.
* :mod:`repro.asn1` — minimal DER encoder/decoder.
* :mod:`repro.crypto` — pure-Python RSA signatures.
* :mod:`repro.rpki` — ROAs, certificates, repositories, validation.
* :mod:`repro.rtr` — RPKI-to-Router protocol (RFC 6810/8210).
* :mod:`repro.bgp` — announcements, RIBs, origin validation (RFC 6811),
  Gao–Rexford route propagation, hijack attacks.
* :mod:`repro.core` — the paper's contribution: minimal-ROA conversion,
  the ``compress_roas`` algorithm, vulnerability analysis, bounds,
  the local-cache pipeline.
* :mod:`repro.data` — synthetic Internet: AS graphs, address allocation,
  BGP tables, ROA issuance, weekly snapshots, archive formats.
* :mod:`repro.analysis` — the measurement suite behind every table and
  figure of the paper.
* :mod:`repro.exper` — the unified, parallel experiment engine: a
  declarative scenario grammar plus serial/multiprocessing runners and
  bootstrap-CI aggregation behind every statistical study.
* :mod:`repro.serve` — the serving tier: async high-fanout RTR
  distribution and the origin-validation query service.
"""

from ._lazy import lazy_exports

#: The one version literal: ``setup.py`` reads it with a regex and
#: ``repro-roa --version`` prints it.
__version__ = "1.0.0"

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "netbase": ("Prefix",),
})
__all__.append("__version__")
