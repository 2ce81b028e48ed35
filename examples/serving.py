"""Scale-out serving, end to end: shards, HTTP server, mixed workload.

Builds a 4-shard :class:`~repro.store.sharding.ShardedStore` from a LUBM
dataset, starts the SPARQL-over-HTTP :class:`~repro.serve.server.QueryServer`
on it (parallel engine, bounded worker pool, result cache), then replays a
mixed read/write workload: client threads page through the interactive query
mix over HTTP while writes from the ingestion path land on the shards —
each write bumps the aggregated snapshot epoch and invalidates the cache.

Prints the cache hit rate, the p50/p99 query latency, and the per-shard
breakdown at the end.  Run with::

    python examples/serving.py [operations]
"""

from __future__ import annotations

import sys
import threading

from repro.serve import QueryServer, QueryService, SparqlClient
from repro.store.sharding import ShardedStore
from repro.workloads.lubm import generate_lubm
from repro.workloads.serving import ServingWorkload

CLIENTS = 4
SHARDS = 4


def main() -> None:
    operations = int(sys.argv[1]) if len(sys.argv) > 1 else 120

    dataset = generate_lubm(departments=2, seed=7)
    store = ShardedStore.from_graph(
        dataset.graph, ontology=dataset.ontology, shards=SHARDS, updatable=True
    )
    print(f"Store: {store!r}")

    workload = ServingWorkload(dataset)
    ops = list(workload.mixed_ops(operations, write_ratio=0.15))
    reads = [op for op in ops if op.kind == "query"]
    writes = [op for op in ops if op.kind != "query"]
    print(f"Workload: {len(reads)} queries, {len(writes)} writes ({operations} operations)")

    service = QueryService(
        store, backend="threads", worker_slots=4, cache_capacity=128, default_timeout_s=30
    )
    with QueryServer(service) as server:
        print(f"Serving SPARQL on {server.url}/sparql")

        def run_queries(chunk) -> None:
            client = SparqlClient(server.url)
            for op in chunk:
                client.query(op.query.sparql, reasoning=op.query.requires_reasoning)

        def run_writes() -> None:
            # Writes arrive through the ingestion path (routed to the owning
            # shard), concurrently with the HTTP readers.
            for op in writes:
                if op.kind == "insert":
                    store.insert(op.triple)
                else:
                    store.delete(op.triple)

        chunk_size = max(1, (len(reads) + CLIENTS - 1) // CLIENTS)
        threads = [
            threading.Thread(
                target=run_queries, args=(reads[i : i + chunk_size],), daemon=True
            )
            for i in range(0, len(reads), chunk_size)
        ]
        threads.append(threading.Thread(target=run_writes, daemon=True))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        metrics = service.metrics.snapshot()
        cache = service.cache.info()
        print(
            f"\nServed {metrics['completed']:.0f} queries "
            f"({metrics['rejected']:.0f} rejected, {metrics['errors']:.0f} errors)"
        )
        print(f"Cache hit rate: {cache['hit_rate']:.0%} ({cache['hits']} hits)")
        print(
            f"Latency p50/p99: {metrics['latency_p50_ms']:.2f} / "
            f"{metrics['latency_p99_ms']:.2f} ms"
        )
        info = store.snapshot_info()
        print(
            f"Epochs after the write trickle: compaction={info['compaction_epoch']}, "
            f"data={info['data_epoch']} (each write invalidated the cache)"
        )
        for row in store.shard_summary():
            low, high = row["subjects"]
            interval = f"[{low}, {'∞' if high is None else high})"
            print(
                f"  shard {row['shard']}: subjects {interval:>16} "
                f"{row['triples']:>6} triples, epoch {row['epoch']}"
            )
    service.close()


if __name__ == "__main__":
    main()
