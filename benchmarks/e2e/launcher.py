"""The server under test, in its own process.

``python launcher.py --workdir DIR --workload NAME`` generates the dataset,
builds the store, saves the v4 image, loads it back memory-mapped and serves
it with ``QueryService`` + ``QueryServer`` on a free loopback port.  When the
socket is listening it prints one JSON line (port, phase timings, image
size) on stdout and then serves until its stdin closes.

Only public entry points of ``repro`` are used.  The ``/bench/*`` routes ride
the server's public ``routes=`` hook; they give the benchmark what a remote
client could not otherwise see (peak RSS, compaction log) or do (write, load
the image once more for ``cold_start_ms``).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import threading
import time
from typing import List, Optional

import e2e_config as config
from repro.rdf.terms import Literal, Triple, URI
from repro.serve.server import QueryServer
from repro.serve.service import QueryService
from repro.store.delta import CompactionPolicy
from repro.store.succinct_edge import SuccinctEdge
from repro.workloads.lubm import generate_lubm
from repro.workloads.queries import QueryCatalog

def generate_dataset():
    """The fixed dataset every process of the benchmark regenerates."""
    return generate_lubm(departments=config.DATASET_DEPARTMENTS, seed=config.DATASET_SEED)


def open_store(image_path: str, workload: str) -> SuccinctEdge:
    """The image as the workload serves it: static, or updatable with a policy."""
    store = SuccinctEdge.load(image_path, mmap=True)
    if workload != "live_update_mix":
        return store
    policy = CompactionPolicy(
        max_delta_operations=config.COMPACT_EVERY_OPERATIONS, max_delta_ratio=None
    )
    return store.updatable(policy)


def open_service(store: SuccinctEdge, workload: str) -> QueryService:
    """``QueryService`` with the recorded settings (cache off on ``analytic_full``)."""
    return QueryService(
        store,
        worker_slots=config.WORKER_SLOTS,
        cache_capacity=0 if workload == "analytic_full" else config.RESULT_CACHE_CAPACITY,
        plan_cache_capacity=config.PLAN_CACHE_CAPACITY,
    )


def decode_triple(body: Optional[bytes]) -> Triple:
    """The triple of a ``/bench/insert`` or ``/bench/delete`` request body."""
    subject, predicate, obj = json.loads(body or b"null")
    # An integer object is a reading's value, anything else an IRI.
    term = Literal(obj) if isinstance(obj, int) else URI(obj)
    return Triple(URI(subject), URI(predicate), term)


def peak_rss_mb() -> float:
    """Peak resident set of this process, from ``VmHWM``.

    Not ``ru_maxrss``: that also covers the forked copy of the parent before
    ``exec``, so it reports the benchmark's own size whenever that is larger
    than the server's (it is, after a traced pass).
    """
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class BenchRoutes:
    """Handlers of the ``/bench/*`` routes over one served store."""

    def __init__(
        self, store: SuccinctEdge, image_path: str, first_query: str, background: bool = True
    ) -> None:
        self.store = store
        self.image_path = image_path
        self.first_query = first_query
        self.background = background
        self._lock = threading.Lock()
        self._triggered = 0
        self._seen_epoch = 0
        #: One entry per finished compaction: wall-clock end, duration, folded ops.
        self.compactions: List[dict] = []

    def routes(self) -> dict:
        return {
            "/bench/insert": self._insert,
            "/bench/delete": self._delete,
            "/bench/state": self._state,
            "/bench/cold_start": self._cold_start,
        }

    def _insert(self, _params, body):
        return self._write(self.store.insert, body)

    def _delete(self, _params, body):
        return self._write(self.store.delete, body)

    def _write(self, apply, body):
        changed = apply(decode_triple(body))
        if self.store.maybe_compact(background=self.background):
            with self._lock:
                self._triggered += 1
        self._note_compactions()
        return 200, {"changed": changed}

    def _note_compactions(self) -> None:
        """Copy a compaction report the store has published since the last look."""
        report = getattr(self.store, "last_compaction", None)
        with self._lock:
            if report is not None and report.epoch > self._seen_epoch:
                self._seen_epoch = report.epoch
                self.compactions.append(
                    {
                        "ended": time.time(),
                        "duration_ms": report.duration_ms,
                        "operations_folded": report.operations_folded,
                    }
                )

    def _state(self, _params, _body):
        self._note_compactions()
        with self._lock:
            return 200, {
                "peak_rss_mb": peak_rss_mb(),
                "compactions": list(self.compactions),
                # Each trigger ends in exactly one epoch bump; equal means quiet.
                "compacting": self._triggered > self.store.compaction_epoch,
                "epoch": list(self.store.snapshot_epoch),
                "triples": self.store.triple_count,
            }

    def _cold_start(self, _params, _body):
        """What a restart costs: map the image and answer the first query."""
        samples = []
        for _ in range(config.COLD_START_REPEATS):
            # Each sample starts from collected generations, so the collector
            # runs at the same points of every load instead of wherever the
            # previous sample's garbage left its counters.
            gc.collect()
            started = time.perf_counter()
            fresh = SuccinctEdge.load(self.image_path, mmap=True)
            fresh.query(self.first_query).to_tuples()
            samples.append((time.perf_counter() - started) * 1000.0)
        return 200, {"cold_start_ms": samples}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--workload", required=True, choices=config.WORKLOAD_NAMES)
    args = parser.parse_args(argv)

    image_path = os.path.join(args.workdir, "store.img")
    timings = {}
    started = time.perf_counter()
    dataset = generate_dataset()
    timings["generate_s"] = time.perf_counter() - started

    started = time.perf_counter()
    built = SuccinctEdge.from_graph(dataset.graph, dataset.ontology)
    timings["build_s"] = time.perf_counter() - started

    started = time.perf_counter()
    image_bytes = built.save_image(image_path)
    timings["save_image_s"] = time.perf_counter() - started
    triples = built.triple_count
    del built

    started = time.perf_counter()
    store = open_store(image_path, args.workload)
    timings["load_mmap_ms"] = (time.perf_counter() - started) * 1000.0

    first_query = QueryCatalog(dataset).by_identifier()["S1"].sparql
    # A server does not keep the graph it was built from; dropping it here
    # also keeps set-up garbage out of the collector's way while serving.
    del dataset
    gc.collect()
    bench = BenchRoutes(store, image_path, first_query)
    service = open_service(store, args.workload)
    server = QueryServer(service, routes=bench.routes()).start()
    try:
        ready = {
            "port": server.address[1],
            "image_path": image_path,
            "image_bytes": image_bytes,
            "triples": triples,
            "timings": timings,
        }
        sys.stdout.write(json.dumps(ready) + "\n")
        sys.stdout.flush()
        sys.stdin.read()  # serve until the parent closes our stdin
    finally:
        server.stop()
        service.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
