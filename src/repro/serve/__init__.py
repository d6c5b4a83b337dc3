"""``repro.serve`` — the production serving tier of the local cache.

Figure 1 of the paper places a *local cache* between the global RPKI
and an AS's routers::

      RPKI repositories                      (global, cryptographic)
            |
            v
      relying-party validation   repro.rpki.scan_roas
            |
            v
      compress_roas (optional)   repro.core.compress
            |
            v
    +---------------------------------------------------------+
    |                 THE LOCAL CACHE  (this package)          |
    |                                                          |
    |  CacheState ── FrameCache ── AsyncRtrServer ──► routers  |
    |      |          (encode      (RTR, RFC 6810,   over RTR  |
    |      |           once per     thousands of               |
    |      |           serial)      sessions)                  |
    |      v                                                   |
    |  QueryService ── QueryHttpServer ──► operators, tooling  |
    |  (RFC 6811       (HTTP/JSON)         and software        |
    |   validity)                          routers             |
    |                                                          |
    |  ServeMetrics — connections, PDUs/s, frame encodes vs    |
    |  cache hits, query latency histogram                     |
    +---------------------------------------------------------+

§6 argues operators deploy the RPKI only when the cache path is cheap
at scale; this package is that argument as code.  The two outputs of
the cache are served by two cooperating components over one VRP set:

* **RTR distribution** (:mod:`repro.serve.rtr_async`).  An asyncio
  server fans the validated table out to routers.  Responses are
  pre-encoded per serial by :class:`~repro.serve.frames.FrameCache`,
  so 1,000 routers requesting serial *S* trigger one table encode and
  1,000 buffer writes; writes are backpressure-aware (``drain()`` per
  client) and every data refresh broadcasts Serial Notify.  Use
  :class:`~repro.serve.rtr_async.ThreadedRtrServer` from synchronous
  code — :meth:`repro.core.pipeline.LocalCache.serve` does.
* **Origin validation queries** (:mod:`repro.serve.query` +
  :mod:`repro.serve.http`).  An indexed VRP snapshot answers
  ``validity(asn, prefix)`` per RFC 6811 — ``valid`` / ``invalid``
  (with an ``invalid-length`` vs ``invalid-origin`` reason) /
  ``notfound`` — in-process, in batch, or over ``GET /validity``.
* **Metrics** (:mod:`repro.serve.metrics`).  Shared counters and a
  latency histogram; ``GET /metrics`` exposes them as JSON.
* **Experiment shard workers** (:mod:`repro.serve.shards`).  The
  multi-host half of the sharded experiment executor: a
  :class:`~repro.serve.shards.ShardWorkerServer` holds a topology and
  executes dispatched grid shards over HTTP, and
  :class:`~repro.serve.shards.HttpShardTransport` is the
  coordinator-side client that makes a pool of such hosts look like
  local worker processes (see :mod:`repro.exper.sharded`).

Quick start (see ``examples/serve_quickstart.py`` for the full tour)::

    from repro.serve import ThreadedRtrServer, QueryService

    with ThreadedRtrServer(vrps) as server:      # routers: RTR on server.port
        service = QueryService(vrps)             # operators: validity queries
        result = service.validity(65000, Prefix.parse("10.0.0.0/24"))

Or from the command line::

    repro-roa serve vrps.csv --rtr-port 8282 --http-port 8080
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "frames": ("FrameCache",),
    "http": ("HttpRequestError", "HttpServerBase", "QueryHttpServer"),
    "metrics": ("LatencyHistogram", "ServeMetrics"),
    "query": ("QueryService", "ValidityResult"),
    "rtr_async": ("AsyncRtrClient", "AsyncRtrServer", "ThreadedRtrServer"),
    "shards": (
        "HttpShardTransport", "ShardWorkerServer",
        "ThreadedShardWorkerServer",
    ),
})
