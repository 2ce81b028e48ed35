"""Concurrent SPARQL serving over a SuccinctEdge (or sharded) store.

The front door of the scale-out layer (``docs/operations.md``):

* :class:`~repro.serve.service.QueryService` — the transport-independent
  core: admission control (bounded worker slots + bounded wait queue),
  per-query cooperative timeouts, an LRU result cache keyed on
  ``(query, reasoning, snapshot epoch)`` that the store's epoch accounting
  invalidates on writes, and serving metrics (p50/p99 latency, hit rate);
* :class:`~repro.serve.server.QueryServer` — SPARQL over HTTP on a
  threading server whose handlers route through one shared
  :class:`QueryService`;
* :class:`~repro.serve.server.SparqlClient` — a dependency-free client for
  examples, tests and the throughput benchmark.

The store underneath can be a single :class:`~repro.store.succinct_edge.SuccinctEdge`,
an updatable one, or a :class:`~repro.store.sharding.ShardedStore` with the
:class:`~repro.query.parallel.ParallelQueryEngine` fanning scans across
shards.

The distributed tier lives in :mod:`repro.serve.cluster`: read replicas
bootstrap from a shipped store image and tail the primary's write log
(:class:`~repro.serve.cluster.ReplicationSource` /
:class:`~repro.serve.cluster.ClusterReplica`), and a scatter-gather
coordinator (:class:`~repro.serve.cluster.ClusterQueryEngine`) fans
epoch-pinned work units across them with health-checked failover and
hedged, deadline-bounded retries.
"""

from repro.serve.cache import ResultCache
from repro.serve.cluster import (
    ClusterError,
    ClusterQueryEngine,
    ClusterReplica,
    ClusterTimeout,
    EpochConflict,
    HttpReplicationClient,
    LocalReplicationClient,
    ReplicaSet,
    ReplicationSource,
    ReplicaUnavailable,
)
from repro.serve.metrics import ServingMetrics
from repro.serve.server import QueryServer, SparqlClient
from repro.serve.service import (
    QueryOutcome,
    QueryRejected,
    QueryService,
    QueryTimeout,
)

__all__ = [
    "ClusterError",
    "ClusterQueryEngine",
    "ClusterReplica",
    "ClusterTimeout",
    "EpochConflict",
    "HttpReplicationClient",
    "LocalReplicationClient",
    "QueryOutcome",
    "QueryRejected",
    "QueryServer",
    "QueryService",
    "QueryTimeout",
    "ReplicaSet",
    "ReplicaUnavailable",
    "ReplicationSource",
    "ServingMetrics",
    "SparqlClient",
]
