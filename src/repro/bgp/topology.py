"""AS-level Internet topology with business relationships.

Interdomain routing policy is driven by the Gao–Rexford model: each
inter-AS link is either *customer–provider* (the customer pays) or
*peer–peer* (settlement-free).  The topology stores the directed
customer→provider relation plus the symmetric peer relation, and offers
the neighbor views the propagation simulator needs.
"""

from __future__ import annotations

import enum
import struct
import sys
from array import array
from typing import Iterable, Iterator, Optional, Union

from ..netbase.errors import ReproError

__all__ = [
    "Relationship",
    "AsTopology",
    "CompiledTopology",
    "TopologyError",
]


class TopologyError(ReproError):
    """Inconsistent topology construction (conflicting edge types)."""


class Relationship(enum.Enum):
    """The three ways a route can arrive, in preference order."""

    CUSTOMER = "customer"  # learned from a customer (they pay us)
    PEER = "peer"
    PROVIDER = "provider"  # learned from a provider (we pay them)


class AsTopology:
    """A multigraph-free AS topology.

    Edges are added with :meth:`add_customer_provider` and
    :meth:`add_peering`; an AS pair can have only one relationship.
    """

    def __init__(self) -> None:
        self._providers: dict[int, set[int]] = {}
        self._customers: dict[int, set[int]] = {}
        self._peers: dict[int, set[int]] = {}
        self._nodes: set[int] = set()
        self._compiled: Optional["CompiledTopology"] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def add_as(self, asn: int) -> None:
        self._nodes.add(asn)
        self._invalidate()

    def add_customer_provider(self, customer: int, provider: int) -> None:
        """Record that ``customer`` buys transit from ``provider``."""
        if customer == provider:
            raise TopologyError(f"AS{customer} cannot be its own provider")
        if self._has_edge(customer, provider):
            raise TopologyError(
                f"AS{customer}-AS{provider} already has a relationship"
            )
        self._nodes.update((customer, provider))
        self._providers.setdefault(customer, set()).add(provider)
        self._customers.setdefault(provider, set()).add(customer)
        self._invalidate()

    def add_peering(self, left: int, right: int) -> None:
        """Record a settlement-free peering between two ASes."""
        if left == right:
            raise TopologyError(f"AS{left} cannot peer with itself")
        if self._has_edge(left, right):
            raise TopologyError(f"AS{left}-AS{right} already has a relationship")
        self._nodes.update((left, right))
        self._peers.setdefault(left, set()).add(right)
        self._peers.setdefault(right, set()).add(left)
        self._invalidate()

    def _invalidate(self) -> None:
        self._compiled = None

    def __getstate__(self) -> dict:
        # The compiled form is cheap to rebuild and can be large; keep
        # pickles (multiprocessing workers receive one topology each)
        # lean by letting every process compile its own.
        state = self.__dict__.copy()
        state["_compiled"] = None
        return state

    def compiled(self) -> "CompiledTopology":
        """The flat-array form of this topology, compiled once.

        The result is cached until the next mutating call; the cache is
        not pickled, so multiprocessing workers compile independently.
        """
        if self._compiled is None:
            self._compiled = CompiledTopology.from_topology(self)
        return self._compiled

    def _has_edge(self, a: int, b: int) -> bool:
        return (
            b in self._providers.get(a, ())
            or b in self._customers.get(a, ())
            or b in self._peers.get(a, ())
        )

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------

    @property
    def ases(self) -> frozenset[int]:
        return frozenset(self._nodes)

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, asn: int) -> bool:
        return asn in self._nodes

    def providers_of(self, asn: int) -> frozenset[int]:
        return frozenset(self._providers.get(asn, ()))

    def customers_of(self, asn: int) -> frozenset[int]:
        return frozenset(self._customers.get(asn, ()))

    def peers_of(self, asn: int) -> frozenset[int]:
        return frozenset(self._peers.get(asn, ()))

    def neighbors_of(self, asn: int) -> frozenset[int]:
        return (
            self.providers_of(asn) | self.customers_of(asn) | self.peers_of(asn)
        )

    def relationship(self, asn: int, neighbor: int) -> Relationship:
        """How a route from ``neighbor`` arrives at ``asn``."""
        if neighbor in self._customers.get(asn, ()):
            return Relationship.CUSTOMER
        if neighbor in self._peers.get(asn, ()):
            return Relationship.PEER
        if neighbor in self._providers.get(asn, ()):
            return Relationship.PROVIDER
        raise TopologyError(f"AS{asn} and AS{neighbor} are not neighbors")

    def edges(self) -> Iterator[tuple[int, int, Relationship]]:
        """All edges once: (customer, provider, CUSTOMER) and
        (low, high, PEER) tuples."""
        for customer, providers in self._providers.items():
            for provider in providers:
                yield (customer, provider, Relationship.CUSTOMER)
        for left, peers in self._peers.items():
            for right in peers:
                if left < right:
                    yield (left, right, Relationship.PEER)

    def edge_count(self) -> int:
        return sum(1 for _ in self.edges())

    def stub_ases(self) -> frozenset[int]:
        """ASes with no customers — the topology's leaves."""
        return frozenset(
            asn for asn in self._nodes if not self._customers.get(asn)
        )

    def tier1_ases(self) -> frozenset[int]:
        """ASes with no providers — the provider-free core."""
        return frozenset(
            asn for asn in self._nodes if not self._providers.get(asn)
        )

    @classmethod
    def from_edges(
        cls, edges: Iterable[tuple[int, int, str]]
    ) -> "AsTopology":
        """Build from (a, b, kind) tuples; kind is "c2p" (a is customer
        of b) or "p2p" (peers) — the CAIDA serialization convention."""
        topology = cls()
        for a, b, kind in edges:
            if kind == "c2p":
                topology.add_customer_provider(a, b)
            elif kind == "p2p":
                topology.add_peering(a, b)
            else:
                raise TopologyError(f"unknown edge kind {kind!r}")
        return topology


#: Blob header: magic, then the element counts of the seven int64
#: buffers (asns + three CSR (indptr, indices) pairs).  The whole
#: blob — header and payload — is little-endian; big-endian hosts
#: byteswap on the way in and out (losing zero-copy, keeping
#: cross-architecture pickles correct).
_BLOB_MAGIC = b"RPROCT1\x00"
_BLOB_HEADER = struct.Struct("<8s7Q")
_LITTLE_ENDIAN = sys.byteorder == "little"

#: Anything the int64 buffer views can be built from.
_IntBuffer = Union[array, memoryview]


def _as_int64(values: Iterable[int]) -> array:
    return array("q", values)


def _buffer_bytes(buf: _IntBuffer) -> bytes:
    """Native int64 buffer → little-endian payload bytes."""
    if _LITTLE_ENDIAN:
        return buf.tobytes() if isinstance(buf, array) else bytes(buf)
    swapped = array("q", buf)
    swapped.byteswap()
    return swapped.tobytes()


def _payload_view(payload: memoryview) -> _IntBuffer:
    """Little-endian payload bytes → native int64 buffer (a zero-copy
    cast on little-endian hosts, a byteswapped copy elsewhere)."""
    if _LITTLE_ENDIAN:
        return payload.cast("q")
    native = array("q")
    native.frombytes(bytes(payload))
    native.byteswap()
    return native


class CompiledTopology:
    """An :class:`AsTopology` frozen into flat integer buffers.

    ASes get dense indices 0..n-1 in ascending ASN order, so index
    order and ASN order agree.  Each of the three neighbor relations
    is stored CSR-style: one flat ``indices`` buffer of neighbor
    indices (each row ascending) plus an ``indptr`` offset buffer, with
    per-row tuples derived once so the hot loops iterate rows without
    slicing.

    The seven backing buffers are flat int64 sequences —
    :class:`array.array` when compiled in-process, zero-copy
    :class:`memoryview` casts when attached to a pickled blob or a
    :mod:`multiprocessing.shared_memory` segment via
    :meth:`from_blob`.  Pickling goes through :meth:`to_blob`, so a
    compiled topology crosses process boundaries as one flat byte
    string instead of an object graph.

    Instances are immutable snapshots; get one via
    :meth:`AsTopology.compiled`, which caches until the next mutation.
    """

    __slots__ = (
        "asns",
        "as_set",
        "index_of",
        "provider_indptr",
        "provider_indices",
        "customer_indptr",
        "customer_indices",
        "peer_indptr",
        "peer_indices",
        "provider_rows",
        "customer_rows",
        "peer_rows",
    )

    def __init__(
        self,
        asns: Union[tuple[int, ...], _IntBuffer],
        provider_csr: tuple[_IntBuffer, _IntBuffer],
        customer_csr: tuple[_IntBuffer, _IntBuffer],
        peer_csr: tuple[_IntBuffer, _IntBuffer],
    ) -> None:
        if isinstance(asns, tuple):
            asns = _as_int64(asns)
        self.asns = asns
        self.as_set = frozenset(asns)
        self.index_of = {asn: i for i, asn in enumerate(asns)}
        self.provider_indptr, self.provider_indices = provider_csr
        self.customer_indptr, self.customer_indices = customer_csr
        self.peer_indptr, self.peer_indices = peer_csr
        self.provider_rows = self._rows(*provider_csr)
        self.customer_rows = self._rows(*customer_csr)
        self.peer_rows = self._rows(*peer_csr)

    @staticmethod
    def _rows(
        indptr: _IntBuffer, indices: _IntBuffer
    ) -> tuple[tuple[int, ...], ...]:
        return tuple(
            tuple(indices[indptr[i]:indptr[i + 1]])
            for i in range(len(indptr) - 1)
        )

    @classmethod
    def from_topology(cls, topology: AsTopology) -> "CompiledTopology":
        """Compile ``topology``; O(V + E log E) once, reused per trial."""
        asns = tuple(sorted(topology.ases))
        index_of = {asn: i for i, asn in enumerate(asns)}

        def csr(neighbor_sets: dict[int, set[int]]) -> tuple[array, array]:
            indptr = array("q", [0])
            indices = array("q")
            for asn in asns:
                for neighbor in sorted(neighbor_sets.get(asn, ())):
                    indices.append(index_of[neighbor])
                indptr.append(len(indices))
            return indptr, indices

        return cls(
            asns,
            csr(topology._providers),
            csr(topology._customers),
            csr(topology._peers),
        )

    # ------------------------------------------------------------------
    # The flat-blob form (pickling, shared memory)
    # ------------------------------------------------------------------

    def to_blob(self) -> bytes:
        """Serialize to one flat byte string: header + int64 buffers.

        The layout is what :meth:`from_blob` attaches to zero-copy; it
        is also the pickle payload (see :meth:`__reduce__`), so a
        compiled topology ships between processes as a single buffer
        copy with no per-object pickling.
        """
        buffers = (
            self.asns,
            self.provider_indptr, self.provider_indices,
            self.customer_indptr, self.customer_indices,
            self.peer_indptr, self.peer_indices,
        )
        header = _BLOB_HEADER.pack(
            _BLOB_MAGIC, *(len(buf) for buf in buffers)
        )
        return header + b"".join(_buffer_bytes(buf) for buf in buffers)

    @classmethod
    def from_blob(
        cls, blob: Union[bytes, bytearray, memoryview]
    ) -> "CompiledTopology":
        """Attach to a :meth:`to_blob` payload without copying it.

        The seven buffers become ``memoryview`` casts into ``blob``;
        only the derived lookup structures (index map, row tuples) are
        built per attach.  Trailing bytes beyond the recorded lengths
        are ignored, so a page-rounded shared-memory segment attaches
        as-is.
        """
        view = memoryview(blob)
        if len(view) < _BLOB_HEADER.size:
            raise TopologyError("compiled-topology blob too short")
        magic, *counts = _BLOB_HEADER.unpack_from(view, 0)
        if magic != _BLOB_MAGIC:
            raise TopologyError("not a compiled-topology blob")
        offset = _BLOB_HEADER.size
        buffers: list[_IntBuffer] = []
        for count in counts:
            end = offset + 8 * count
            if end > len(view):
                raise TopologyError("truncated compiled-topology blob")
            buffers.append(_payload_view(view[offset:end]))
            offset = end
        return cls(
            buffers[0],
            (buffers[1], buffers[2]),
            (buffers[3], buffers[4]),
            (buffers[5], buffers[6]),
        )

    def __reduce__(self):
        return (CompiledTopology.from_blob, (self.to_blob(),))

    def to_topology(self) -> AsTopology:
        """Rebuild the mutable object form (for trial sampling).

        Workers receive only the compiled blob; they draw their trials
        from an equivalent :class:`AsTopology` reconstructed from it —
        same ASes, same relationships — instead of shipping the object
        graph through the pickle path.
        """
        topology = AsTopology()
        asns = self.asns
        for asn in asns:
            topology.add_as(asn)
        for i, row in enumerate(self.customer_rows):
            provider = asns[i]
            for j in row:
                topology.add_customer_provider(asns[j], provider)
        for i, row in enumerate(self.peer_rows):
            left = asns[i]
            for j in row:
                if i < j:
                    topology.add_peering(left, asns[j])
        return topology

    def __len__(self) -> int:
        return len(self.asns)

    def __contains__(self, asn: int) -> bool:
        return asn in self.index_of

    def edge_count(self) -> int:
        """Undirected edge count (each c2p and p2p edge once)."""
        return len(self.provider_indices) + len(self.peer_indices) // 2
