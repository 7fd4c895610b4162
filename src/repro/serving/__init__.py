"""Concurrent multi-venue serving layer.

The production-shaped top of the stack: many venues (airport terminals,
malls, campuses), many concurrent users. Three explicit layers, each
usable alone:

* **Protocol** (:mod:`~repro.serving.protocol`) — the one request/
  response shape every transport speaks: :class:`Request` (exported as
  ``ServingRequest`` too) / :class:`Response` / :class:`ErrorResponse`
  plus a length-prefixed canonical-JSON wire codec with bit-exact
  packed numerics. A query answered over a socket is element-wise
  identical to the same query answered in-process.
* **Workers** — :class:`~repro.serving.shard.ShardWorker` /
  :class:`~repro.serving.shard.ShardProcess`, **one process per
  shard**: a router behind a socket, requests multiplexed with
  per-request futures, a background
  :class:`~repro.serving.router.PeriodicFlusher` for durability, and
  flush-on-drain.
* **Cluster** (:class:`ClusterFrontend`) — hash-partitions venue
  fingerprints across N shard processes: true multi-core scaling for
  the CPU-bound query math, crash restart from catalog snapshots (the
  flush interval bounds the durability window), backpressure, graceful
  drain, and optional per-venue **admission control**
  (:class:`AdmissionController`: token-bucket rate limiting +
  queue-depth shedding; shed requests raise a typed
  :class:`~repro.exceptions.OverloadedError` with a retry-after hint).
* **Front door** (:class:`AsyncFrontDoor`) — one asyncio event loop
  multiplexing every TCP client over the framed protocol: single
  frames exactly as before, plus multi-request **batch frames**
  (:class:`~repro.serving.protocol.BatchRequest`) answered in order
  with per-element error isolation. :class:`FrontDoorClient` is the
  matching synchronous client. ``python -m repro.serving`` serves a
  catalog this way over TCP.

:class:`VenueRouter` — a bounded LRU pool of **thread-safe**
:class:`~repro.engine.engine.QueryEngine` instances keyed by venue
fingerprint, lazily warm-started from a
:class:`~repro.storage.catalog.SnapshotCatalog` with eviction
write-back — is the per-process serving unit: its thread-safe
:meth:`VenueRouter.execute` is the one in-process entry point, and
every shard process runs one. :func:`concurrent_replay` /
:func:`sequential_replay` drive multi-venue workloads; concurrent
replay is guaranteed (and CI-checked by ``benchmarks/bench_serving.py``
and ``tests/test_serving.py``) to return element-wise identical answers
to sequential replay, across the cluster and over threads sharing one
router alike.

Thread-safety model (details in ``docs/serving.md``): engines guard
object updates with a :class:`~repro.engine.locking.RWLock` (queries
read-side, updates write-side) and their caches with a mutex; the
router adds one mutex of its own. Lock ordering is router ->
engine/catalog, strictly acyclic. Every public method in this package
is safe to call from any thread; per-method guarantees are documented
on the methods themselves.

Quickstart (in-process)::

    from repro.serving import Request, VenueRouter
    from repro.storage import SnapshotCatalog

    router = VenueRouter(SnapshotCatalog("snapshots/"), capacity=8)
    vid = router.add_venue(space, objects=objects)
    neighbors = router.execute(Request(venue=vid, kind="knn",
                                       source=point, k=5))

Quickstart (sharded cluster — same requests, N processes)::

    from repro.serving import ClusterFrontend

    with ClusterFrontend("snapshots/", shards=4) as cluster:
        vid = cluster.add_venue(space, objects=objects)
        neighbors = cluster.request(vid, "knn", source=point, k=5).result()
"""

from .admission import AdmissionController, AdmissionStats, TokenBucket
from .async_frontend import AsyncFrontDoor
from .client import FrontDoorClient
from .cluster import ClusterFrontend, ClusterStats
from .protocol import (
    CONTROL_KINDS,
    BatchRequest,
    BatchResponse,
    ErrorResponse,
    FAULT_KINDS,
    MAX_BATCH_REQUESTS,
    QUERY_KINDS,
    READ_KINDS,
    Request,
    Response,
    stats_from_doc,
    stats_to_doc,
)
from .replay import ServingReport, concurrent_replay, sequential_replay
from .ring import DEFAULT_VNODES, HashRing
from .router import (
    PeriodicFlusher,
    REQUEST_KINDS,
    RouterStats,
    ServingRequest,
    VENUE_ROLES,
    VenueRouter,
)
from .shard import ShardProcess, ShardStats, ShardWorker

__all__ = [
    "AdmissionController",
    "AdmissionStats",
    "AsyncFrontDoor",
    "BatchRequest",
    "BatchResponse",
    "CONTROL_KINDS",
    "ClusterFrontend",
    "ClusterStats",
    "DEFAULT_VNODES",
    "ErrorResponse",
    "FAULT_KINDS",
    "FrontDoorClient",
    "HashRing",
    "MAX_BATCH_REQUESTS",
    "PeriodicFlusher",
    "QUERY_KINDS",
    "READ_KINDS",
    "REQUEST_KINDS",
    "Request",
    "Response",
    "RouterStats",
    "ServingReport",
    "ServingRequest",
    "ShardProcess",
    "ShardStats",
    "ShardWorker",
    "TokenBucket",
    "VENUE_ROLES",
    "VenueRouter",
    "concurrent_replay",
    "sequential_replay",
    "stats_from_doc",
    "stats_to_doc",
]
