"""Serving throughput: queries/sec vs worker count and shard count.

The scale-out PR's headline experiment.  A closed loop of client threads
replays the :class:`~repro.workloads.serving.ServingWorkload` interactive
mix over HTTP against a :class:`~repro.serve.server.QueryServer` whose
``worker_slots`` bound is the variable under test.

**Methodology (read before quoting the numbers).**  Responses are delivered
over a :class:`~repro.edge.device.SimulatedNetwork` with the ``EDGE_UPLINK``
profile (40 ms RTT, 0.5 Mbit/s) — the paper's deployment serves clients from a
constrained edge device, and response transmission is the dominant
per-request cost there.  A worker transmitting blocks with the GIL released
(in the simulation: a sleep; on real hardware: ``socket.send`` to a slow
client), which is precisely the time a worker pool overlaps.  On this
single-core CPython host the *compute* portion cannot scale with threads —
the LAN control rows make that visible (flat scaling, GIL-bound), and
``docs/performance.md`` explains how to read both tables together.

Experiments, all at LUBM medium scale:

1. queries/sec vs worker count (1/2/4) over the edge uplink + LAN control;
2. queries/sec vs shard count (1/2/4) at 4 workers (sharded stores run the
   :class:`~repro.query.parallel.ParallelQueryEngine`);
3. the result cache on the same mix (hit rate, speedup) and its epoch
   invalidation under a write trickle.

Results land in ``benchmarks/results/serving_throughput.txt``.
"""

from __future__ import annotations

import os
import queue
import threading
import time

import pytest

from repro.bench.harness import format_table, record_table
from repro.edge.device import EDGE_UPLINK, SimulatedNetwork
from repro.serve import QueryServer, QueryService, SparqlClient
from repro.store.sharding import ShardedStore
from repro.store.succinct_edge import SuccinctEdge
from repro.workloads.serving import ServingWorkload

#: Queries replayed per configuration (weighted sample with repetition).
_TOTAL_QUERIES = 48

#: Closed-loop client threads (kept above the largest worker count so the
#: server-side worker bound is what limits concurrency).
_CLIENTS = 8

_WORKER_COUNTS = (1, 2, 4)
_SHARD_COUNTS = (1, 2, 4)


def _drive(server_url: str, queries, clients: int):
    """Replay ``queries`` through ``clients`` closed-loop threads."""
    work: "queue.Queue" = queue.Queue()
    for query in queries:
        work.put(query)
    errors = []

    def client_loop() -> None:
        client = SparqlClient(server_url, timeout_s=600)
        while True:
            try:
                query = work.get_nowait()
            except queue.Empty:
                return
            document = client.query(query.sparql, reasoning=query.requires_reasoning)
            if document["_status"] != 200:
                errors.append(document)

    threads = [threading.Thread(target=client_loop, daemon=True) for _ in range(clients)]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started
    assert not errors, f"{len(errors)} requests failed: {errors[:2]}"
    return elapsed


def _measure(store, queries, workers: int, cache: bool, network_profile,
             backend="sequential", process_workers=None):
    """One configuration: queries/sec plus the service's latency percentiles."""
    service = QueryService(
        store,
        backend=backend,
        process_workers=process_workers,
        worker_slots=workers,
        max_pending=len(queries) + _CLIENTS,
        cache_capacity=256 if cache else 0,
        default_timeout_s=600,
    )
    network = SimulatedNetwork(network_profile) if network_profile is not None else None
    try:
        with QueryServer(service, network=network) as server:
            elapsed = _drive(server.url, queries, _CLIENTS)
        snapshot = service.metrics.snapshot()
        return {
            "qps": len(queries) / elapsed,
            "p50": snapshot["latency_p50_ms"],
            "p99": snapshot["latency_p99_ms"],
            "hit_rate": (service.cache.hit_rate if service.cache else 0.0),
        }
    finally:
        service.close()


def test_serving_throughput(context, results_dir):
    workload = ServingWorkload(context.lubm)
    queries = workload.sample_queries(_TOTAL_QUERIES, seed=101)
    store = SuccinctEdge.from_graph(context.lubm.graph, ontology=context.lubm.ontology)

    # ---------------------------------------------------------------- #
    # 1. worker scaling, edge uplink + LAN control
    # ---------------------------------------------------------------- #
    edge_rows = {}
    lan_rows = {}
    # The LAN control has no transmission time, so a 10x larger sample keeps
    # its elapsed wall-clock well above scheduling noise.
    lan_queries = workload.sample_queries(_TOTAL_QUERIES * 10, seed=103)
    for workers in _WORKER_COUNTS:
        edge = _measure(store, queries, workers, cache=False,
                        network_profile=EDGE_UPLINK)
        edge_rows[f"{workers} worker(s)"] = [edge["qps"], edge["p50"], edge["p99"]]
        lan = _measure(store, lan_queries, workers, cache=False,
                       network_profile=None)
        lan_rows[f"{workers} worker(s)"] = [lan["qps"], lan["p50"], lan["p99"]]

    speedup = edge_rows["4 worker(s)"][0] / edge_rows["1 worker(s)"][0]
    assert speedup >= 2.0, (
        f"4 workers deliver {speedup:.2f}x the 1-worker throughput over the "
        "edge uplink; expected at least 2x from overlapped transmissions"
    )

    # ---------------------------------------------------------------- #
    # 2. shard scaling at 4 workers
    # ---------------------------------------------------------------- #
    shard_rows = {}
    for shards in _SHARD_COUNTS:
        if shards == 1:
            target, backend = store, "sequential"
        else:
            target, backend = ShardedStore.from_store(store, shards=shards), "threads"
        result = _measure(target, queries, workers=4, cache=False,
                          network_profile=EDGE_UPLINK, backend=backend)
        label = f"{shards} shard(s)" + (" +par" if backend == "threads" else "")
        shard_rows[label] = [result["qps"], result["p50"], result["p99"]]

    # ---------------------------------------------------------------- #
    # 3. the result cache on the same mix
    # ---------------------------------------------------------------- #
    cache_rows = {}
    for cache in (False, True):
        result = _measure(store, queries, workers=4, cache=cache,
                          network_profile=EDGE_UPLINK)
        cache_rows["cache on" if cache else "cache off"] = [
            result["qps"], result["p50"], result["p99"], result["hit_rate"],
        ]

    # ---------------------------------------------------------------- #
    # record
    # ---------------------------------------------------------------- #
    dataset_note = (
        f"LUBM medium scale: {len(context.lubm.graph)} triples, "
        f"{_TOTAL_QUERIES} queries from the interactive mix, "
        f"{_CLIENTS} closed-loop clients"
    )
    worker_table = format_table(
        f"Serving throughput vs worker count — edge uplink "
        f"({EDGE_UPLINK.rtt_ms:.0f}ms RTT, {EDGE_UPLINK.bandwidth_kbps:.0f}kbps)",
        ["queries/sec", "p50 ms", "p99 ms"],
        edge_rows,
    )
    lan_table = format_table(
        "Control: same run on an instant link (no transmission to overlap; "
        "compute serialises on the GIL of this single-core host)",
        ["queries/sec", "p50 ms", "p99 ms"],
        lan_rows,
    )
    shard_table = format_table(
        "Throughput vs shard count at 4 workers (ParallelQueryEngine on shards)",
        ["queries/sec", "p50 ms", "p99 ms"],
        shard_rows,
    )
    cache_table = format_table(
        "Result cache on the interactive mix (4 workers, edge uplink)",
        ["queries/sec", "p50 ms", "p99 ms", "hit rate"],
        cache_rows,
    )
    summary = "\n".join(
        [
            dataset_note,
            f"4-worker vs 1-worker speedup over the edge uplink: {speedup:.2f}x "
            "(acceptance bar: >= 2x)",
            "Interpretation: workers overlap response transmission (GIL released "
            "while blocked on the link); compute itself is GIL-serialised in "
            "CPython, so the LAN control stays flat — see docs/performance.md.",
        ]
    )
    record_table(
        results_dir,
        "serving_throughput",
        "\n\n".join([worker_table, lan_table, shard_table, cache_table, summary]),
    )


def test_serving_throughput_multiproc(context, results_dir):
    """Process-backend LAN control: compute scaling with worker processes.

    The thread benchmark above shows the LAN control flat — compute
    serialises on the GIL.  The process backend is the configuration that
    is *supposed* to move that row: worker processes mmap the store image
    and run the kernels on real cores.  Same workload, same instant link,
    variable = worker-process count; the acceptance bar (>= 2x at 4 vs 1
    process) only applies on a host with >= 4 CPUs — on fewer cores the
    table is still recorded, honestly labelled, and the bar is skipped.
    """
    workload = ServingWorkload(context.lubm)
    store = SuccinctEdge.from_graph(context.lubm.graph, ontology=context.lubm.ontology)
    lan_queries = workload.sample_queries(_TOTAL_QUERIES * 2, seed=107)

    rows = {}
    for processes in _WORKER_COUNTS:
        result = _measure(
            store, lan_queries, workers=4, cache=False,
            network_profile=None, backend="process", process_workers=processes,
        )
        rows[f"{processes} process(es)"] = [result["qps"], result["p50"], result["p99"]]

    speedup = rows["4 process(es)"][0] / rows["1 process(es)"][0]
    cpus = os.cpu_count() or 1
    table = format_table(
        "Process backend on an instant link (LAN control): queries/sec vs "
        f"worker processes, 4 worker slots, host has {cpus} CPU(s)",
        ["queries/sec", "p50 ms", "p99 ms"],
        rows,
    )
    summary = "\n".join(
        [
            f"LUBM scale: {len(context.lubm.graph)} triples, "
            f"{len(lan_queries)} queries, {_CLIENTS} closed-loop clients",
            f"4-process vs 1-process speedup on the LAN control: {speedup:.2f}x "
            f"(acceptance bar >= 2x, applied only on >= 4-CPU hosts; this host: {cpus})",
            "Interpretation: worker processes attach to the mmap'd store image and "
            "run the SDS kernels outside the coordinator's GIL — this is the row "
            "threads cannot move; see docs/performance.md (Multicore execution).",
        ]
    )
    # Record first: the table is evidence either way, including on hosts
    # where the scaling bar cannot honestly be applied.
    record_table(results_dir, "serving_throughput_multiproc", "\n\n".join([table, summary]))

    if cpus < 4:
        pytest.skip(
            f"process-scaling acceptance bar needs >= 4 CPUs; host has {cpus} "
            "(table recorded in serving_throughput_multiproc.txt)"
        )
    assert speedup >= 2.0, (
        f"4 worker processes deliver {speedup:.2f}x the 1-process throughput on "
        "an instant link; expected >= 2x from multi-core kernel execution"
    )
