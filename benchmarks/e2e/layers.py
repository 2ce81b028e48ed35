"""The traced per-layer pass.

Nothing under ``src/`` is instrumented.  Layers are measured from outside:

* **Spans.**  :class:`Tracer` replaces the public entry points of each layer
  (``parse_query``, ``QueryEngine.compile_group`` / ``stream`` / ``ask``,
  ``TriplePatternEvaluator.evaluate_many``, ``QueryService.execute`` ...) with
  wrappers that record a span - layer, name, start, end, parent, operation
  id - for the duration of a replay, and puts the originals back afterwards.
  A function that returns a generator is charged only for the time spent
  inside its ``next()``; a layer's *self time* is its spans' busy time minus
  the part its child spans cover.  Spans stay in memory and are written to
  ``results/trace_<workload>.jsonl`` when the replay is over.
* **Replay.**  The first N operations of client 0 are replayed twice against
  an in-process ``QueryServer`` by a single sequential client - once untraced,
  once traced - so counts repeat exactly and the two timings give the tracing
  overhead.  Compaction runs synchronously here for the same reason.
* **Probes.**  Micro-measurements that do not depend on the traffic (rank and
  select on the store's own bitmaps, dictionary lookups, insert / compact
  cost, the scatter back ends) run once per traced pass with a fixed seed.
* **Window.**  What only a loaded server shows (cache hit ratios, completed
  compactions, generator health) is read from the measured window.
"""

from __future__ import annotations

import collections
import http.client
import itertools
import json
import pathlib
import random
import statistics
import sys
import threading
import time
from typing import Dict, Iterator, List, Optional, Tuple

import e2e_config as config
from launcher import BenchRoutes, decode_triple, open_service, open_store
from loadgen import Client
from traffic import Op, Traffic, first_ops

from repro.query.engine import QueryEngine
from repro.query.optimizer import CostBasedJoinOrderOptimizer
from repro.query.paths import PathEvaluator
from repro.query.tp_eval import TriplePatternEvaluator
from repro.rdf.namespaces import LUBM
from repro.rdf.terms import URI
from repro.sds.kernels import total_kernel_calls
from repro.serve.server import QueryServer
from repro.serve.service import QueryService
from repro.sparql import parser as sparql_parser
from repro.store.delta import MANUAL_COMPACTION
from repro.store.succinct_edge import SuccinctEdge
from repro.store.updatable import UpdatableSuccinctEdge


# --------------------------------------------------------------------------- #
# spans
# --------------------------------------------------------------------------- #


class Span:
    """One traced call (or one generator's whole life)."""

    __slots__ = ("id", "parent", "op", "layer", "name", "start", "end", "busy", "child", "rows")

    def __init__(self, identifier: int, parent: int, op: int, layer: str, name: str) -> None:
        self.id = identifier
        self.parent = parent
        self.op = op
        self.layer = layer
        self.name = name
        self.start = time.perf_counter()
        self.end = self.start
        self.busy = 0.0  #: time spent inside the call / inside ``next()``
        self.child = 0.0  #: the part of ``busy`` covered by child spans
        self.rows = 0  #: items a generator yielded

    @property
    def self_time(self) -> float:
        return self.busy - self.child

    def record(self) -> dict:
        return {
            "id": self.id, "parent": self.parent, "op": self.op, "layer": self.layer,
            "name": self.name, "start": self.start, "end": self.end,
            "busy": self.busy, "self": self.self_time, "rows": self.rows,
        }


class Tracer:
    """Span recorder over the layers' public callables (see module docstring).

    One operation is in flight at a time (the replay client is sequential),
    so the operation's root span is a plain attribute; each thread keeps its
    own stack of open spans, and a span opened on an empty stack (the HTTP
    handler thread) hangs under the root.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: collections.Counter = collections.Counter()
        self.root: Optional[Span] = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: List[Tuple[object, str, object]] = []

    # -- span bookkeeping ------------------------------------------------ #

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, layer: str, name: str) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else self.root
        op = self.root.op if self.root is not None else -1
        return Span(next(self._ids), parent.id if parent else 0, op, layer, name)

    def _enter(self, span: Span) -> float:
        self._stack().append(span)
        return time.perf_counter()

    def _leave(self, span: Span, entered: float) -> None:
        now = time.perf_counter()
        stack = self._stack()
        stack.pop()
        span.busy += now - entered
        span.end = now
        # Whoever is running us right now loses this interval from its self time.
        caller = stack[-1] if stack else self.root
        if caller is not None:
            caller.child += now - entered

    def begin_operation(self, op: int) -> Span:
        """Open the root span of operation ``op``: the client's HTTP round trip."""
        self.root = Span(next(self._ids), 0, op, "server", "http round trip")
        return self.root

    def end_operation(self) -> None:
        root, self.root = self.root, None
        root.end = time.perf_counter()
        root.busy = root.end - root.start
        self.spans.append(root)

    # -- wrappers ---------------------------------------------------------- #

    def _nested(self, layer: str) -> bool:
        """A call from inside the same layer adds nothing to the layer's self time."""
        stack = self._stack()
        return bool(stack) and stack[-1].layer == layer

    def function(self, layer: str, name: str, original):
        def traced(*args, **kwargs):
            self.counts[name] += 1
            if self._nested(layer):
                return original(*args, **kwargs)
            span = self._open(layer, name)
            entered = self._enter(span)
            try:
                return original(*args, **kwargs)
            finally:
                self._leave(span, entered)
                self.spans.append(span)

        return traced

    def iterator(self, layer: str, name: str, original):
        """For callables returning a generator/iterator: time the pulls, not the call."""

        def traced(*args, **kwargs):
            self.counts[name] += 1
            if self._nested(layer):
                return original(*args, **kwargs)
            span = self._open(layer, name)
            entered = self._enter(span)
            try:
                inner = iter(original(*args, **kwargs))
            finally:
                self._leave(span, entered)
            return self._pull(span, inner)

        return traced

    def _pull(self, span: Span, inner: Iterator) -> Iterator:
        try:
            while True:
                entered = self._enter(span)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self._leave(span, entered)
                span.rows += 1
                yield item
        finally:
            self.spans.append(span)

    def _service_execute(self, original):
        """``QueryService.execute`` with its ``deliver`` callback traced as ``server``."""

        def execute(service, query, reasoning=None, timeout_s=None, deliver=None):
            if deliver is not None:
                deliver = self.function("server", "serialise + transmit", deliver)
            return original(service, query, reasoning=reasoning, timeout_s=timeout_s, deliver=deliver)

        return self.function("service", "QueryService.execute", execute)

    # -- install / uninstall ------------------------------------------------ #

    def _patch(self, owner, attribute: str, replacement) -> None:
        self._patched.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, replacement)

    def install(self) -> None:
        parse = sparql_parser.parse_query
        traced_parse = self.function("sparql", "parse_query", parse)
        # ``from repro.sparql.parser import parse_query`` copies the name into
        # the importing module, so every copy has to be replaced.
        for name, module in list(sys.modules.items()):
            if name.startswith("repro") and getattr(module, "parse_query", None) is parse:
                self._patch(module, "parse_query", traced_parse)
        methods = [
            ("planner", QueryEngine, "compile_group", self.function),
            ("planner", QueryEngine, "pipeline_plan", self.function),
            ("planner", CostBasedJoinOrderOptimizer, "optimize", self.function),
            ("tp_eval", TriplePatternEvaluator, "evaluate", self.iterator),
            ("tp_eval", TriplePatternEvaluator, "evaluate_many", self.iterator),
            ("tp_eval", TriplePatternEvaluator, "expand_frontier", self.function),
            ("tp_eval", TriplePatternEvaluator, "estimate_cardinality", self.function),
            ("paths", PathEvaluator, "evaluate", self.iterator),
            ("paths", PathEvaluator, "evaluate_many", self.iterator),
            ("engine", QueryEngine, "execute", self.function),
            ("engine", QueryEngine, "ask", self.function),
            ("engine", QueryEngine, "stream", self.iterator),
            ("store", UpdatableSuccinctEdge, "insert", self.function),
            ("store", UpdatableSuccinctEdge, "delete", self.function),
            ("store", UpdatableSuccinctEdge, "compact", self.function),
        ]
        for layer, owner, attribute, wrap in methods:
            name = f"{owner.__name__}.{attribute}"
            self._patch(owner, attribute, wrap(layer, name, getattr(owner, attribute)))
        self._patch(QueryService, "execute", self._service_execute(QueryService.execute))

    def uninstall(self) -> None:
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)

    # -- reading the spans --------------------------------------------------- #

    def of(self, layer: str, name: Optional[str] = None) -> List[Span]:
        return [s for s in self.spans if s.layer == layer and (name is None or s.name == name)]

    def self_time_by_layer(self) -> Dict[str, float]:
        totals: Dict[str, float] = collections.defaultdict(float)
        for span in self.spans:
            totals[span.layer] += span.self_time
        return dict(totals)

    def write(self, path: pathlib.Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            for span in sorted(self.spans, key=lambda s: s.id):
                handle.write(json.dumps(span.record()) + "\n")


# --------------------------------------------------------------------------- #
# replay
# --------------------------------------------------------------------------- #


class Replay:
    """One sequential in-process replay: timings, bytes, rows, kernel calls."""

    def __init__(self) -> None:
        self.elapsed = 0.0
        self.kernel_calls = 0
        self.overhead_ms: List[float] = []  #: round trip minus ``X-Elapsed-Ms``
        self.body_bytes: List[int] = []
        self.rows = 0
        self.row_bytes = 0  #: bytes of the responses that carried rows


def replay(workload: str, ops: List[Op], image_path: str, tracer: Optional[Tracer]) -> Replay:
    """Send ``ops`` one after another to a fresh in-process server."""
    store = open_store(image_path, workload)
    service = open_service(store, workload)
    bench = BenchRoutes(store, image_path, first_query="", background=False)
    result = Replay()
    bodies = []
    with QueryServer(service, routes=bench.routes()) as server:
        client = Client(server.url)
        kernel_before = total_kernel_calls()
        if tracer is not None:
            tracer.install()
        try:
            began = time.perf_counter()
            for index, op in enumerate(ops):
                path, payload = client.encode(op)
                if tracer is not None:
                    tracer.begin_operation(index)
                started = time.perf_counter()
                status, headers, body = client.request("POST", path, payload)
                ended = time.perf_counter()
                if tracer is not None:
                    tracer.end_operation()
                if status != 200:
                    raise RuntimeError(f"replay of {workload} op {index} answered {status}: {body[:200]!r}")
                if op.kind == "query":
                    bodies.append(body)
                    result.overhead_ms.append(
                        (ended - started) * 1000.0 - float(headers.get("X-Elapsed-Ms", "0"))
                    )
            result.elapsed = time.perf_counter() - began
        finally:
            if tracer is not None:
                tracer.uninstall()
        result.kernel_calls = total_kernel_calls() - kernel_before
    service.close()
    for body in bodies:  # parsed off the clock
        document = json.loads(body)
        rows = len(document["results"]["rows"]) if "results" in document else 1
        result.body_bytes.append(len(body))
        result.rows += rows
        if rows:
            result.row_bytes += len(body)
    return result


# --------------------------------------------------------------------------- #
# probes (independent of the traffic seed)
# --------------------------------------------------------------------------- #


def _per_call(calls: int, started: float, scale: float) -> float:
    return (time.perf_counter() - started) / calls * scale


def probe_sds(store: SuccinctEdge, rng: random.Random) -> Dict[str, float]:
    """rank / select / rangeSearch on the object store's own PSO structures."""
    bitmap, tree = store.object_store.bm_so, store.object_store.wt_o
    count = config.KERNEL_PROBES
    positions = [rng.randrange(len(bitmap) + 1) for _ in range(count)]
    ones = bitmap.rank(len(bitmap))
    occurrences = [rng.randrange(1, ones + 1) for _ in range(count)]
    spots = [rng.randrange(len(tree)) for _ in range(count)]
    searches = [(max(0, spot - 64), spot + 64, tree.access(spot)) for spot in spots]

    started = time.perf_counter()
    for position in positions:
        bitmap.rank(position)
    rank_ns = _per_call(count, started, 1e9)
    started = time.perf_counter()
    for occurrence in occurrences:
        bitmap.select(occurrence)
    select_ns = _per_call(count, started, 1e9)
    started = time.perf_counter()
    for begin, end, symbol in searches:
        tree.range_search(begin, end, symbol)
    return {
        "sds.rank_ns": rank_ns,
        "sds.select_ns": select_ns,
        "sds.wt_range_search_us": _per_call(count, started, 1e6),
    }


def probe_store_and_dictionary(store: SuccinctEdge, traffic: Traffic, rng: random.Random) -> Dict[str, float]:
    """``match`` on the three pattern shapes; term->id and id->term lookups."""
    students = [URI(value) for value in rng.sample(traffic.pools["students"], 200)]
    courses = [URI(value) for value in rng.sample(traffic.pools["courses"], 200)]
    rows = 0
    started = time.perf_counter()
    for student in students:
        rows += len(list(store.match(student, LUBM.takesCourse, None)))
    for course in courses:
        rows += len(list(store.match(None, LUBM.takesCourse, course)))
    rows += len(list(store.match(None, LUBM.worksFor, None)))
    match_us = (time.perf_counter() - started) / rows * 1e6

    terms = [URI(value) for value in rng.choices(traffic.pools["students"], k=config.KERNEL_PROBES)]
    started = time.perf_counter()
    identifiers = [store.instances.locate(term) for term in terms]
    locate_us = _per_call(len(terms), started, 1e6)
    started = time.perf_counter()
    for identifier in identifiers:
        store.instances.extract(identifier)
    return {
        "store.match_us_per_row": match_us,
        "dictionary.locate_us": locate_us,
        "dictionary.extract_us": _per_call(len(identifiers), started, 1e6),
    }


def _best_ms(engine: QueryEngine, text: str, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        result = engine.execute(text)
        if hasattr(result, "to_tuples"):
            result.to_tuples()
        best = min(best, (time.perf_counter() - started) * 1000.0)
    return best


def probe_query_classes(store: SuccinctEdge, traffic: Traffic, rng: random.Random) -> Dict[str, float]:
    """Engine time per query class, path expansions, and what reasoning costs."""
    engines = {flag: QueryEngine(store, reasoning=flag) for flag in (False, True)}
    ops = traffic.analytic_queries()
    ops += list(itertools.islice(traffic.cold_stream(rng), 40))  # the point-lookup class
    by_class: Dict[str, List[float]] = collections.defaultdict(list)
    for op in ops:
        by_class[op.query_class].append(_best_ms(engines[op.reasoning], op.text))
    metrics = {
        f"engine.exec_ms_p50.{name}": statistics.median(by_class[name])
        for name in ("point", "scan", "bgp", "reasoning", "analytics")
    }
    metrics["paths.exec_ms_p50"] = statistics.median(by_class["path"])

    # BFS rounds per path query: counted in a separate, untimed run.
    paths = [op for op in ops if op.query_class == "path"]
    counter = Tracer()
    counter.install()
    try:
        for op in paths:
            engines[op.reasoning].execute(op.text).to_tuples()
    finally:
        counter.uninstall()
    metrics["paths.frontier_expansions_per_op"] = (
        counter.counts["TriplePatternEvaluator.expand_frontier"] / len(paths)
    )

    reasoning = [op for op in ops if op.query_class == "reasoning"]
    on = sum(_best_ms(engines[True], op.text) for op in reasoning)
    off = sum(_best_ms(engines[False], op.text) for op in reasoning)
    metrics["reasoning.on_off_ratio"] = on / off
    return metrics


def _reading(index: int) -> bytes:
    """A probe triple in the wire form ``decode_triple`` reads."""
    subject = f"http://serving.succinct-edge.example/probe/{index}"
    if index % 2:
        return json.dumps([subject, "http://serving.succinct-edge.example/value", index]).encode()
    return json.dumps([subject, "http://serving.succinct-edge.example/about",
                       "http://www.University0.edu/University0"]).encode()


def probe_updates(image_path: str, traffic: Traffic, rng: random.Random) -> Dict[str, float]:
    """Insert, delete and compact cost; reads through a pending delta; reads under compaction."""
    store = SuccinctEdge.load(image_path, mmap=True).updatable(MANUAL_COMPACTION)
    engine = QueryEngine(store, reasoning=False)
    reads = [op.text for op in itertools.islice(traffic.cold_stream(rng), 200)]

    def read_all() -> float:
        started = time.perf_counter()
        for text in reads:
            engine.execute(text)
        return time.perf_counter() - started

    batch = config.COMPACT_EVERY_OPERATIONS
    triples = [decode_triple(_reading(index)) for index in range(3 * batch)]
    inserts, compactions = [], []
    penalty = 0.0
    for round_index in range(3):
        if round_index == 0:
            read_all()  # warm the lazily built wavelet nodes
            empty = min(read_all(), read_all())
        for triple in triples[round_index * batch:(round_index + 1) * batch]:
            started = time.perf_counter()
            store.insert(triple)
            inserts.append(time.perf_counter() - started)
        if round_index == 0:
            penalty = min(read_all(), read_all()) / empty
        started = time.perf_counter()
        store.compact()
        compactions.append(time.perf_counter() - started)
    deletes = []
    for triple in triples[:batch]:
        started = time.perf_counter()
        store.delete(triple)
        deletes.append(time.perf_counter() - started)

    # Reads while a background compaction shares the interpreter, against
    # reads while none runs.
    during, outside = [], []
    for _ in range(2):
        for text in reads:
            started = time.perf_counter()
            engine.execute(text)
            outside.append(time.perf_counter() - started)
        thread = store.compact_in_background()
        while thread.is_alive():
            started = time.perf_counter()
            engine.execute(reads[len(during) % len(reads)])
            during.append(time.perf_counter() - started)
        thread.join()

    return {
        "store.insert_us_p50": statistics.median(inserts) * 1e6,
        "store.delete_us_p50": statistics.median(deletes) * 1e6,
        "store.compact_s_p50": statistics.median(compactions),
        "store.overlay_read_penalty": penalty,
        # Means, not the issue's p95s: the interpreter hands over every 5 ms,
        # which a 0.3 ms read meets about one time in twenty - a p95 flips
        # between "met it" and "did not" from run to run.
        "store.compact_read_stall_ratio": statistics.mean(during) / statistics.mean(outside),
    }


def probe_backends(image_path: str, traffic: Traffic, workdir: pathlib.Path) -> Dict[str, float]:
    """Thread, process and cluster scatter against the sequential engine.

    Two shards, two workers, two loopback replicas, the 16 cheapest analytic
    queries.  On this two-core host the ratios record coordination cost, not
    scaling; they exist so the one-executor refactor has a before and after.
    """
    from repro.query.multiproc import ProcessPoolQueryEngine, WorkerPool
    from repro.query.parallel import ParallelQueryEngine
    from repro.serve.cluster import (
        ClusterQueryEngine, ClusterReplica, HttpReplicationClient, ReplicaSet, ReplicationSource,
    )
    from repro.store.sharding import ShardedStore

    ops = [op for op in traffic.analytic_queries() if op.query_class != "path"]
    ops = sorted(ops, key=lambda op: op.text)[:16]
    store = ShardedStore.from_store(SuccinctEdge.load(image_path, mmap=True), shards=2, updatable=True)

    def run_all(engine_for) -> float:
        started = time.perf_counter()
        for op in ops:
            result = engine_for(op.reasoning).execute(op.text)
            if hasattr(result, "to_tuples"):
                result.to_tuples()
        return time.perf_counter() - started

    def measure(make_engine) -> float:
        engines = {flag: make_engine(flag) for flag in (False, True)}
        try:
            run_all(engines.__getitem__)  # attach workers, warm plans
            return run_all(engines.__getitem__)
        finally:
            for engine in engines.values():
                close = getattr(engine, "close", None)
                if close is not None:
                    close()

    sequential = measure(lambda flag: QueryEngine(store, reasoning=flag))
    metrics = {
        "parallel.exec_ratio_vs_sequential":
            measure(lambda flag: ParallelQueryEngine(store, reasoning=flag, max_workers=2)) / sequential,
    }

    pool = WorkerPool(max_workers=2, mp_context="spawn", task_timeout=60)
    try:
        pool.prime()
        pings = []
        for _ in range(50):
            started = time.perf_counter()
            pool.result(pool.submit(None, "ping", (), True))
            pings.append((time.perf_counter() - started) * 1000.0)
        submitted_before = pool.info()["tasks_submitted"]
        workspace = workdir / "multiproc"
        workspace.mkdir(parents=True, exist_ok=True)
        process_time = measure(
            lambda flag: ProcessPoolQueryEngine(store, reasoning=flag, pool=pool, workspace=str(workspace))
        )
        info = pool.info()
        metrics.update({
            "multiproc.exec_ratio_vs_sequential": process_time / sequential,
            # ``measure`` runs the query set twice.
            "multiproc.units_per_op": (info["tasks_submitted"] - submitted_before) / (2 * len(ops)),
            "multiproc.unit_roundtrip_ms_p50": statistics.median(pings),
            "multiproc.pool_restarts": info["restarts"],
        })
    finally:
        pool.close()

    source = ReplicationSource(store, workspace=str(workdir / "ship"))
    primary = QueryServer(QueryService(store), routes=source.routes()).start()
    replicas, servers, replica_set = [], [], None
    try:
        for index in range(2):
            replica = ClusterReplica(HttpReplicationClient(primary.url), str(workdir / f"replica{index}"))
            replicas.append(replica.bootstrap())
            servers.append(replica.serve())
        replica_set = ReplicaSet([server.url for server in servers])
        cluster_time = measure(
            lambda flag: ClusterQueryEngine(store, replica_set, source, reasoning=flag)
        )
        metrics["cluster.exec_ratio_vs_sequential"] = cluster_time / sequential
        syncs = []
        for round_index in range(5):
            for index in range(20):
                store.insert(decode_triple(_reading(10_000 + round_index * 20 + index)))
            for replica in replicas:
                started = time.perf_counter()
                replica.sync()
                syncs.append((time.perf_counter() - started) * 1000.0)
        metrics["cluster.sync_ms"] = statistics.median(syncs)
    finally:
        if replica_set is not None:
            replica_set.close()
        for server in servers:
            server.service.close()
            server.stop()
        primary.service.close()
        primary.stop()
        source.close()
    return metrics


def probe_keepalive(image_path: str, traffic: Traffic) -> Dict[str, float]:
    """Round trip of a cached answer over a *reused* connection (README, Findings)."""
    store = SuccinctEdge.load(image_path, mmap=True)
    op = traffic.hot_texts(config.PROBE_SEED)[0]
    client_path, payload = Client.encode(op)
    with QueryServer(open_service(store, "serve_hot")) as server:
        host, port = server.address[0], server.address[1]
        connection = http.client.HTTPConnection(host, port, timeout=config.REQUEST_TIMEOUT_SECONDS)
        try:
            times = []
            for _ in range(30):
                started = time.perf_counter()
                connection.request("POST", client_path, body=payload)
                connection.getresponse().read()
                times.append((time.perf_counter() - started) * 1000.0)
        finally:
            connection.close()
    return {"server.keepalive_ms_p50": statistics.median(times[5:])}


# --------------------------------------------------------------------------- #
# the pass
# --------------------------------------------------------------------------- #


def _median_or_zero(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def per_layer_pass(
    workload: str, seed: int, traffic: Traffic, observed: dict, quick: bool,
    trace_dir: pathlib.Path, workdir: pathlib.Path,
) -> Tuple[Dict[str, dict], Dict[str, float]]:
    """Every per-layer metric of one workload, plus the layers' self-time shares."""
    ready = observed["ready"]
    image_path = ready["image_path"]  # the image the measured server wrote
    store = SuccinctEdge.load(image_path, mmap=True)

    count = (config.QUICK_TRACE_OPS if quick else config.TRACE_OPS)[workload]
    ops = first_ops(traffic, workload, seed, count)
    # A throw-away pass first: whichever replay runs first also pays for
    # the interpreter specialising the code paths.
    replay(workload, ops[: max(1, count // 10)], image_path, tracer=None)
    plain = replay(workload, ops, image_path, tracer=None)
    tracer = Tracer()
    traced = replay(workload, ops, image_path, tracer=tracer)
    tracer.write(trace_dir / f"trace_{workload}.jsonl")

    rng = random.Random(config.PROBE_SEED)
    values: Dict[str, float] = {
        "store.build_s": ready["timings"]["build_s"],
        "store.save_image_s": ready["timings"]["save_image_s"],
        "store.load_mmap_ms": ready["timings"]["load_mmap_ms"],
    }
    values.update(probe_sds(store, rng))
    values.update(probe_store_and_dictionary(store, traffic, rng))
    values.update(probe_query_classes(store, traffic, rng))
    values.update(probe_updates(image_path, traffic, rng))
    values.update(probe_keepalive(image_path, traffic))
    values.update(probe_backends(image_path, traffic, workdir / f"{workload}-backends"))

    # -- spans ----------------------------------------------------------- #
    n = len(ops)
    self_by_layer = tracer.self_time_by_layer()
    parse = tracer.of("sparql")
    plans = tracer.of("planner")
    tp_rows = sum(s.rows for s in tracer.of("tp_eval"))
    engine_top = tracer.of("engine")
    result_rows = sum(s.rows for s in engine_top if s.name == "QueryEngine.stream")
    result_rows += sum(1 for s in engine_top if s.name == "QueryEngine.ask")
    service = tracer.of("service")
    values.update({
        "sparql.parse_us_p50": _median_or_zero([s.busy * 1e6 for s in parse]),
        "sparql.parse_calls_per_op": len(parse) / n,
        "planner.plan_us_p50": _median_or_zero([s.busy * 1e6 for s in plans]),
        "planner.plans_per_op": tracer.counts["CostBasedJoinOrderOptimizer.optimize"] / n,
        "sds.kernel_calls_per_op": plain.kernel_calls / n,
        "sds.kernel_calls_per_row": plain.kernel_calls / max(plain.rows, 1),
        "tp_eval.self_ms_per_op": self_by_layer.get("tp_eval", 0.0) * 1000.0 / n,
        "tp_eval.rows_out_per_op": tp_rows / n,
        "tp_eval.us_per_row": self_by_layer.get("tp_eval", 0.0) * 1e6 / max(tp_rows, 1),
        "engine.exec_ms_p50": _median_or_zero([s.busy * 1000.0 for s in engine_top]),
        "engine.self_ms_per_op": self_by_layer.get("engine", 0.0) * 1000.0 / n,
        "engine.rows_examined_per_result": tp_rows / max(result_rows, 1),
        "service.execute_ms_p50": _median_or_zero([s.busy * 1000.0 for s in service]),
        "service.self_us_p50": _median_or_zero([s.self_time * 1e6 for s in service]),
        "server.overhead_ms_p50": statistics.median(plain.overhead_ms),
        "server.response_bytes_p50": statistics.median(plain.body_bytes),
        "server.bytes_per_row": plain.row_bytes / max(plain.rows, 1),
        "trace.overhead_ratio": traced.elapsed / plain.elapsed,
    })

    # -- the loaded window ------------------------------------------------ #
    stats, window, timing = observed["stats"], observed["window"], observed["timing"]
    served = stats["metrics"]

    def ratio(info: Optional[dict]) -> float:
        return info["hits"] / max(info["hits"] + info["misses"], 1) if info else 0.0

    folded = [c["operations_folded"] for c in observed["compactions_in_window"]]
    values.update({
        "service.cache_hit_ratio": ratio(stats["cache"]),
        "service.parse_cache_hit_ratio": ratio(stats["parse_cache"]),
        "service.rejected": served["rejected"],
        "service.timeouts": served["timeouts"],
        "service.errors": served["errors"],
        "store.compactions": len(folded),
        "store.delta_ops_at_compact": statistics.mean(folded) if folded else 0.0,
        "loadgen.samples": len(window.measured()),
        "loadgen.read_p99_ms": timing["read_p99_ms"]["value"],
        "loadgen.client_busy_share": window.client_busy_share,
        "loadgen.slice_iqr_ratio": timing["qps"]["iqr"] / timing["qps"]["value"],
    })

    wall = sum(s.busy for s in tracer.of("server", "http round trip"))
    shares = {layer: value / wall for layer, value in self_by_layer.items()}
    shares["coverage"] = sum(self_by_layer.values()) / wall
    return {name: {"value": float(value)} for name, value in values.items()}, shares


def print_shares(workload: str, shares: Dict[str, float]) -> None:
    """Where the traced operations' wall time went, largest layer first."""
    print(f"\n{workload}: self-time share of the traced operations' wall time "
          f"(spans cover {shares['coverage']:.1%})")
    for layer, share in sorted(shares.items(), key=lambda item: -item[1]):
        if layer != "coverage":
            print(f"  {layer:<10} {share:>7.1%}")
