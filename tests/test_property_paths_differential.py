"""Differential tests: property paths must be byte-identical everywhere.

The property-path tentpole promises one observable semantics for every
execution tier.  The ground truth is :class:`NaivePathOracle` — the naive
repeated-join fixpoint inside the materializing engine, written without any
of the production machinery (no id-level relations, no probe-vs-scan, no
frontier BFS).  The matrix below checks **byte-identity** (same
variables, same rows, same order) between that oracle and

* the sequential streaming engine (the id-level path evaluator),
* the thread-parallel engine over a 4-shard store (frontier scatter),
* the process-pool engine over both the monolithic store and the 4-shard
  layout (``"expand"`` work units in mmap-attached workers),
* the cluster coordinator over HTTP replicas (epoch-pinned path units),

first on the base graph, then with a live delta overlay riding on an
updatable store (including a write that closes the whole chain into one
big cycle), and once more after compact-and-swap folded the delta.

The graph is adversarial on purpose: a chain feeding a cycle (the fixpoint
must terminate and not double-count), a high-fanout hub with a back edge
(a 2-cycle), literal-valued edges (datatype-layout frontiers), an rdf:type
hierarchy and a subproperty axiom (reasoning-aware link expansion).
"""

from __future__ import annotations

import pytest

from repro.query.engine import QueryEngine
from repro.query.materializing import MaterializingQueryEngine
from repro.query.multiproc import ProcessPoolQueryEngine, WorkerPool
from repro.query.parallel import ParallelQueryEngine
from repro.rdf.graph import Graph
from repro.rdf.namespaces import RDF, RDFS, Namespace
from repro.rdf.terms import Literal, Triple
from repro.serve.cluster import (
    ClusterQueryEngine,
    ClusterReplica,
    HttpReplicationClient,
    ReplicaSet,
    ReplicationSource,
)
from repro.serve.server import QueryServer
from repro.serve.service import QueryService
from repro.sparql.bindings import AskResult
from repro.store.delta import MANUAL_COMPACTION
from repro.store.sharding import ShardedStore
from repro.store.succinct_edge import SuccinctEdge
from repro.store.updatable import UpdatableSuccinctEdge
from types import SimpleNamespace

P = Namespace("http://paths.example.org/")

PREFIXES = (
    f"PREFIX p: <{P.prefix}>\n"
    "PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>\n"
)

#: Every path form of the grammar, plus the shapes that historically break
#: transitive-closure engines: bound/unbound endpoint mixes, the diagonal,
#: zero-length on a term absent from the graph, literal-reaching sequences,
#: rdf:type inside a path, and negated sets with inverse members.
PATH_QUERIES = {
    "plus-unbound": "SELECT ?s ?o WHERE { ?s p:next+ ?o }",
    "plus-bound-subject": "SELECT ?o WHERE { p:n0 p:next+ ?o }",
    "plus-bound-object": "SELECT ?s WHERE { ?s p:next+ p:c1 }",
    "star-bound-subject": "SELECT ?o WHERE { p:n0 p:next* ?o }",
    "star-unbound": "SELECT ?s ?o WHERE { ?s p:next* ?o }",
    "star-diagonal": "SELECT ?x WHERE { ?x p:next* ?x }",
    "star-absent-subject": "SELECT ?o WHERE { p:ghost p:next* ?o }",
    "opt-unbound": "SELECT ?x ?o WHERE { ?x p:alt? ?o }",
    "opt-bound-object": "SELECT ?x WHERE { ?x (p:next|p:alt)? p:n3 }",
    "seq": "SELECT ?x ?y WHERE { ?x p:next/p:next ?y }",
    "seq-closure-literal": "SELECT ?x ?l WHERE { ?x p:next+/p:label ?l }",
    "alt": "SELECT ?x ?y WHERE { ?x (p:next|p:alt) ?y }",
    "alt-closure": "SELECT ?o WHERE { p:hub (p:link|p:next)+ ?o }",
    "inverse": "SELECT ?x ?y WHERE { ?x ^p:next ?y }",
    "inverse-bound": "SELECT ?s WHERE { ?s ^p:link p:hub }",
    "inverse-closure": "SELECT ?s WHERE { ?s (^p:next)+ p:n0 }",
    "nps": "SELECT ?s ?o WHERE { ?s !(p:label|p:size|rdf:type) ?o }",
    "nps-inverse": "SELECT ?x ?y WHERE { ?x !(^p:next|p:label) ?y }",
    "nps-pure-inverse": "SELECT ?x ?y WHERE { ?x !(^p:label|^p:alt) ?y }",
    "nps-bound-object": "SELECT ?x WHERE { ?x !(p:next|p:label) p:n3 }",
    "type-seq": "SELECT ?x ?c WHERE { ?x p:next/rdf:type ?c }",
    "type-inverse-seq": "SELECT ?x ?y WHERE { ?x rdf:type/^rdf:type ?y }",
    "type-bound-seq": "SELECT ?c WHERE { p:n4 p:next/rdf:type ?c }",
    "type-bound-object-seq": "SELECT ?x WHERE { ?x rdf:type/^rdf:type p:c0 }",
    "type-zero-seq": "SELECT ?x ?y WHERE { ?x rdf:type/p:alt? ?y }",
    "type-zero-bound-seq": "SELECT ?y WHERE { p:n0 rdf:type/p:alt? ?y }",
    "subprop-closure": "SELECT ?o WHERE { p:n0 p:edge+ ?o }",
    "bgp-then-path": (
        "SELECT ?x ?o WHERE { ?x rdf:type p:CycleNode . ?x p:next+ ?o }"
    ),
    "path-ask": "ASK { p:n0 p:next+ p:c2 }",
}

ALL_QUERY_IDS = sorted(PATH_QUERIES)


def _rows(result):
    if isinstance(result, AskResult):
        return result.boolean
    return (result.variables, result.to_tuples())


def _sparql(identifier: str) -> str:
    return PREFIXES + PATH_QUERIES[identifier]


def build_path_graph():
    """Base graph, live triples and the ontology for the path matrix."""
    data = Graph()
    triples = [
        # A 5-node chain feeding a 3-cycle: n0 → … → n4 → c0 → c1 → c2 → c0.
        (P.n0, P.next, P.n1),
        (P.n1, P.next, P.n2),
        (P.n2, P.next, P.n3),
        (P.n3, P.next, P.n4),
        (P.n4, P.next, P.c0),
        (P.c0, P.next, P.c1),
        (P.c1, P.next, P.c2),
        (P.c2, P.next, P.c0),
        # A hub with fanout and one back edge (a 2-cycle through leaf0).
        (P.hub, P.link, P.leaf0),
        (P.hub, P.link, P.leaf1),
        (P.hub, P.link, P.leaf2),
        (P.hub, P.link, P.leaf3),
        (P.leaf0, P.link, P.hub),
        (P.leaf1, P.next, P.n0),
        # Alternation-only edges.
        (P.n0, P.alt, P.n3),
        (P.leaf2, P.alt, P.c1),
        # Literal-valued edges (datatype layout).
        (P.n0, P.label, Literal("n0")),
        (P.c0, P.label, Literal("c0")),
        (P.leaf1, P.label, Literal("leaf1")),
        (P.n1, P.size, Literal(5)),
        # Types under a small hierarchy.
        (P.n0, RDF.type, P.Node),
        (P.n1, RDF.type, P.Node),
        (P.c0, RDF.type, P.CycleNode),
        (P.c1, RDF.type, P.CycleNode),
        (P.c0, RDF.type, P.Hub),
        (P.hub, RDF.type, P.Hub),
    ]
    for subject, predicate, obj in triples:
        data.add(Triple(subject, predicate, obj))
    live = [
        # Closes the whole chain into one strongly connected component …
        Triple(P.c2, P.next, P.n0),
        # … grows the hub, and extends the literal frontier.
        Triple(P.hub, P.link, P.leaf4),
        Triple(P.leaf4, P.next, P.c2),
        Triple(P.n4, P.label, Literal("n4")),
        Triple(P.leaf4, RDF.type, P.CycleNode),
    ]
    ontology = Graph()
    ontology.add(Triple(P.CycleNode, RDFS.subClassOf, P.Node))
    ontology.add(Triple(P.Hub, RDFS.subClassOf, P.Node))
    ontology.add(Triple(P.Node, RDFS.subClassOf, P.Thing))
    ontology.add(Triple(P.next, RDFS.subPropertyOf, P.edge))
    ontology.add(Triple(P.link, RDFS.subPropertyOf, P.edge))
    return data, live, ontology


# --------------------------------------------------------------------------- #
# fixtures
# --------------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def dataset():
    return build_path_graph()


@pytest.fixture(scope="module")
def base_store(dataset):
    base, _, ontology = dataset
    return SuccinctEdge.from_graph(base, ontology=ontology)


@pytest.fixture(scope="module")
def live_store(dataset):
    """An updatable store with the live triples sitting in the delta."""
    base, live, ontology = dataset
    store = UpdatableSuccinctEdge.from_graph(
        base, ontology=ontology, policy=MANUAL_COMPACTION
    )
    for triple in live:
        assert store.insert(triple)
    assert store.delta_operation_count > 0
    return store


@pytest.fixture(scope="module")
def compacted_store(dataset):
    """The same live data after compact-and-swap folded the delta."""
    base, live, ontology = dataset
    store = UpdatableSuccinctEdge.from_graph(
        base, ontology=ontology, policy=MANUAL_COMPACTION
    )
    for triple in live:
        assert store.insert(triple)
    store.compact()
    assert store.delta_operation_count == 0
    return store


@pytest.fixture(scope="module")
def sharded_store(base_store):
    return ShardedStore.from_store(base_store, shards=4)


@pytest.fixture(scope="module")
def worker_pool():
    pool = WorkerPool(max_workers=2)
    yield pool
    pool.close()


@pytest.fixture(scope="module")
def cluster(dataset, tmp_path_factory):
    """Sharded updatable primary + shipping source + two HTTP replicas."""
    base, live, ontology = dataset
    store = ShardedStore.from_graph(base, ontology=ontology, shards=2, updatable=True)
    source = ReplicationSource(store, workspace=str(tmp_path_factory.mktemp("ship")))
    primary = QueryServer(QueryService(store), routes=source.routes()).start()
    replicas = []
    servers = []
    for index in range(2):
        workdir = str(tmp_path_factory.mktemp(f"replica{index}"))
        replica = ClusterReplica(HttpReplicationClient(primary.url), workdir).bootstrap()
        replicas.append(replica)
        servers.append(replica.serve())
    replica_set = ReplicaSet([server.url for server in servers])
    state = SimpleNamespace(
        store=store,
        source=source,
        primary=primary,
        replicas=replicas,
        servers=servers,
        replica_set=replica_set,
        live=live,
    )
    yield state
    replica_set.close()
    for server in servers:
        server.service.close()
        server.stop()
    primary.service.close()
    primary.stop()
    source.close()


def _cluster_engine(cluster, reasoning: bool) -> ClusterQueryEngine:
    return ClusterQueryEngine(
        cluster.store,
        cluster.replica_set,
        cluster.source,
        reasoning=reasoning,
    )


# --------------------------------------------------------------------------- #
# sequential engine vs the naive oracle
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize("reasoning", [False, True], ids=["plain", "reasoning"])
@pytest.mark.parametrize("identifier", ALL_QUERY_IDS)
def test_streaming_matches_oracle(base_store, identifier, reasoning):
    # The strongest single check: the id-level evaluator against the naive
    # repeated-join fixpoint, under both reasoning modes.
    oracle = MaterializingQueryEngine(base_store, reasoning=reasoning)
    streaming = QueryEngine(base_store, reasoning=reasoning)
    assert _rows(streaming.execute(_sparql(identifier))) == _rows(
        oracle.execute(_sparql(identifier))
    )


@pytest.mark.parametrize("identifier", ALL_QUERY_IDS)
def test_streaming_matches_oracle_on_live_delta(live_store, identifier):
    # Same contract with every path step seeing base + delta overlay rows —
    # including the write that fused chain and cycle into one SCC.
    oracle = MaterializingQueryEngine(live_store, reasoning=True)
    streaming = QueryEngine(live_store, reasoning=True)
    assert _rows(streaming.execute(_sparql(identifier))) == _rows(
        oracle.execute(_sparql(identifier))
    )


@pytest.mark.parametrize("identifier", ALL_QUERY_IDS)
def test_compact_and_swap_preserves_results(live_store, compacted_store, identifier):
    # Folding the delta must not change a single byte of any path answer.
    before = QueryEngine(live_store, reasoning=True)
    after = QueryEngine(compacted_store, reasoning=True)
    assert _rows(before.execute(_sparql(identifier))) == _rows(
        after.execute(_sparql(identifier))
    )


# --------------------------------------------------------------------------- #
# parallel / process backends
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize("identifier", ALL_QUERY_IDS)
def test_parallel_sharded_byte_identical(sharded_store, base_store, identifier):
    sequential = QueryEngine(base_store, reasoning=True)
    parallel = ParallelQueryEngine(sharded_store, reasoning=True)
    try:
        assert _rows(parallel.execute(_sparql(identifier))) == _rows(
            sequential.execute(_sparql(identifier))
        )
    finally:
        parallel.close()


@pytest.mark.parametrize("identifier", ALL_QUERY_IDS)
def test_process_monolithic_byte_identical(worker_pool, base_store, identifier):
    sequential = QueryEngine(base_store, reasoning=True)
    process = ProcessPoolQueryEngine(
        base_store, reasoning=True, pool=worker_pool
    )
    try:
        assert _rows(process.execute(_sparql(identifier))) == _rows(
            sequential.execute(_sparql(identifier))
        )
    finally:
        process.close()


@pytest.mark.parametrize("identifier", ALL_QUERY_IDS)
def test_process_sharded_byte_identical(worker_pool, sharded_store, base_store, identifier):
    # Path "expand" units fan out per holding shard; the coordinator merges
    # the id replies and must still equal the monolithic run.
    sequential = QueryEngine(base_store, reasoning=True)
    process = ProcessPoolQueryEngine(
        sharded_store, reasoning=True, pool=worker_pool
    )
    try:
        assert _rows(process.execute(_sparql(identifier))) == _rows(
            sequential.execute(_sparql(identifier))
        )
    finally:
        process.close()


@pytest.mark.parametrize("identifier", ALL_QUERY_IDS)
def test_process_live_delta_byte_identical(worker_pool, live_store, identifier):
    # Workers attach to the auto-saved base image and replay the delta-log
    # suffix, so their frontiers see exactly the coordinator's overlay.
    sequential = QueryEngine(live_store, reasoning=True)
    process = ProcessPoolQueryEngine(
        live_store, reasoning=True, pool=worker_pool
    )
    try:
        assert _rows(process.execute(_sparql(identifier))) == _rows(
            sequential.execute(_sparql(identifier))
        )
    finally:
        process.close()


# --------------------------------------------------------------------------- #
# the cluster coordinator
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize("identifier", ALL_QUERY_IDS)
def test_cluster_base_byte_identical(cluster, base_store, identifier):
    sequential = QueryEngine(base_store, reasoning=True)
    engine = _cluster_engine(cluster, reasoning=True)
    try:
        assert _rows(engine.execute(_sparql(identifier))) == _rows(
            sequential.execute(_sparql(identifier))
        )
    finally:
        engine.close()


def test_cluster_live_byte_identical(cluster):
    # Stream the live triples into the primary with a closure probe between
    # every write, so each path fixpoint runs against a fresher epoch and
    # the replicas converge through suffix replay mid-workload.
    probe_ids = ["plus-unbound", "star-unbound", "seq-closure-literal", "nps"]
    for index, triple in enumerate(cluster.live):
        assert cluster.store.insert(triple)
        identifier = probe_ids[index % len(probe_ids)]
        sequential = QueryEngine(cluster.store, reasoning=True)
        engine = _cluster_engine(cluster, reasoning=True)
        try:
            assert _rows(engine.execute(_sparql(identifier))) == _rows(
                sequential.execute(_sparql(identifier))
            )
        finally:
            engine.close()
    # After the write stream, the full matrix must agree on the live data.
    oracle = MaterializingQueryEngine(cluster.store, reasoning=True)
    for identifier in ALL_QUERY_IDS:
        engine = _cluster_engine(cluster, reasoning=True)
        try:
            assert _rows(engine.execute(_sparql(identifier))) == _rows(
                oracle.execute(_sparql(identifier))
            ), identifier
        finally:
            engine.close()
