"""Differential tests: the cluster coordinator must equal the monolithic engine.

The distributed tier's contract is the strongest one in the repo: the
scatter-gather coordinator of :mod:`repro.serve.cluster` — fanning
epoch-pinned work units over HTTP to replicas that bootstrapped from a
shipped image and tail the primary's delta log — must return results
**byte-identical** (same variables, same rows, same order) to a sequential
:class:`~repro.query.engine.QueryEngine` over a monolithic store holding
the same data.  The matrix checks the full paper workload (S1-S15, M1-M5,
R1-R6) plus the A1-A6 analytics at 1, 2 and 4 replicas, first over the
base 80% of the data, then again after the live 20% flowed through
replication — with queries interleaved *between write chunks*, so replicas
converge through on-demand suffix replay mid-run, not in one quiet batch —
and once more with a cold replica joining the set mid-workload.
"""

from __future__ import annotations

import itertools
from types import SimpleNamespace

import pytest

from repro.query.engine import QueryEngine
from repro.query.units import UNIT_OPS, execute_unit
from repro.rdf.graph import Graph
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
from repro.store.sharding import ShardedStore
from repro.store.succinct_edge import SuccinctEdge

ALL_QUERY_IDS = (
    [f"S{i}" for i in range(1, 16)]
    + [f"M{i}" for i in range(1, 6)]
    + [f"R{i}" for i in range(1, 7)]
    + [f"A{i}" for i in range(1, 7)]
)

REPLICA_COUNTS = (1, 2, 4)


def _rows(result):
    if isinstance(result, AskResult):
        return result.boolean
    return (result.variables, result.to_tuples())


def _cluster_engine(cluster, reasoning: bool) -> ClusterQueryEngine:
    # Every upstream batch of a bind join is one unit, so a multi-step query
    # sends several, and the windowed drain and the cross-replica rotation
    # get exercised.
    return ClusterQueryEngine(
        cluster.store,
        cluster.replica_set,
        cluster.source,
        reasoning=reasoning,
    )


# --------------------------------------------------------------------------- #
# fixtures
# --------------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def live_dataset(small_lubm):
    """~80/20 split: base graph plus the triples streamed in live."""
    base = Graph()
    live = []
    for index, triple in enumerate(small_lubm.graph):
        if index % 5 == 4:
            live.append(triple)
        else:
            base.add(triple)
    return base, live


@pytest.fixture(scope="module")
def base_reference(small_lubm, live_dataset):
    """Monolithic rebuild over the base 80% (the phase-1 ground truth)."""
    base, _ = live_dataset
    return SuccinctEdge.from_graph(base, ontology=small_lubm.ontology)


@pytest.fixture(scope="module")
def live_reference(small_lubm, live_dataset):
    """Monolithic rebuild over base-then-live data (matches insert order)."""
    base, live = live_dataset
    merged = Graph()
    for triple in base:
        merged.add(triple)
    for triple in live:
        merged.add(triple)
    return SuccinctEdge.from_graph(merged, ontology=small_lubm.ontology)


@pytest.fixture(scope="module", params=REPLICA_COUNTS)
def cluster(request, small_lubm, live_dataset, tmp_path_factory):
    """A live cluster: sharded primary, shipping source, N HTTP replicas."""
    base, live = live_dataset
    store = ShardedStore.from_graph(
        base, ontology=small_lubm.ontology, shards=4, updatable=True
    )
    source = ReplicationSource(store, workspace=str(tmp_path_factory.mktemp("ship")))
    primary = QueryServer(QueryService(store), routes=source.routes()).start()
    replicas = []
    servers = []
    for index in range(request.param):
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
        tmp=tmp_path_factory,
    )
    yield state
    replica_set.close()
    for server in servers:
        server.service.close()
        server.stop()
    primary.service.close()
    primary.stop()
    source.close()


@pytest.fixture(scope="module")
def cluster_live(cluster, small_lubm_catalog):
    """The cluster after the live 20% flowed through replication mid-run.

    Writes go in chunks with a cluster query between every chunk — each
    probe pins the primary's fresh epoch, forcing the replicas through an
    on-demand suffix replay *while the write stream is still flowing* —
    and every probe must already be byte-identical to the sequential
    engine over the live primary.
    """
    catalog = small_lubm_catalog.by_identifier()
    probes = itertools.cycle(["S1", "M2", "R2", "A4"])
    chunk = max(1, len(cluster.live) // 6)
    for start in range(0, len(cluster.live), chunk):
        for triple in cluster.live[start : start + chunk]:
            assert cluster.store.insert(triple)
        query = catalog[next(probes)]
        engine = _cluster_engine(cluster, query.requires_reasoning)
        sequential = QueryEngine(cluster.store, reasoning=query.requires_reasoning)
        try:
            assert _rows(engine.execute(query.sparql)) == _rows(
                sequential.execute(query.sparql)
            )
        finally:
            engine.close()
    # Every replica that served a probe converged onto the primary's log
    # position through suffix replay, never through a re-bootstrap.
    generation, epoch = cluster.source.position()
    for replica in cluster.replicas:
        assert replica.bootstraps == 1
        if replica.syncs:
            assert replica.generation == generation
            assert replica.epoch <= epoch
    return cluster


# --------------------------------------------------------------------------- #
# the differential matrix
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize("identifier", ALL_QUERY_IDS)
def test_cluster_base_byte_identical(
    cluster, base_reference, small_lubm_catalog, identifier
):
    # Phase 1: replicas serve exactly the bootstrapped image (no log yet);
    # every work unit is pinned at the bootstrap epoch.
    query = small_lubm_catalog.by_identifier()[identifier]
    sequential = QueryEngine(base_reference, reasoning=query.requires_reasoning)
    engine = _cluster_engine(cluster, query.requires_reasoning)
    try:
        assert _rows(engine.execute(query.sparql)) == _rows(sequential.execute(query.sparql))
    finally:
        engine.close()


@pytest.mark.parametrize("identifier", ALL_QUERY_IDS)
def test_cluster_live_byte_identical(
    cluster_live, live_reference, small_lubm_catalog, identifier
):
    # Phase 2: the live 20% has flowed through replication; replicas stand
    # on a mapped base plus a replayed suffix and must equal a monolithic
    # rebuild over the same data.
    query = small_lubm_catalog.by_identifier()[identifier]
    sequential = QueryEngine(live_reference, reasoning=query.requires_reasoning)
    engine = _cluster_engine(cluster_live, query.requires_reasoning)
    try:
        assert _rows(engine.execute(query.sparql)) == _rows(sequential.execute(query.sparql))
    finally:
        engine.close()


def test_replica_joins_mid_workload(
    cluster_live, live_reference, small_lubm_catalog, tmp_path
):
    """A cold replica bootstraps mid-workload and serves byte-identically.

    The newcomer downloads the *original* image (its generation never
    rotated) and must catch up on the whole live suffix through replay the
    first time a pinned unit reaches it.
    """
    newcomer = ClusterReplica(
        HttpReplicationClient(cluster_live.primary.url), str(tmp_path / "newcomer")
    ).bootstrap()
    server = newcomer.serve()
    # The joined set routes to old replicas *and* the newcomer.
    joined = ReplicaSet(
        [s.url for s in cluster_live.servers] + [server.url], hedge_after_s=5.0
    )
    catalog = small_lubm_catalog.by_identifier()
    try:
        for identifier in ALL_QUERY_IDS:
            query = catalog[identifier]
            sequential = QueryEngine(live_reference, reasoning=query.requires_reasoning)
            engine = ClusterQueryEngine(
                cluster_live.store,
                joined,
                cluster_live.source,
                reasoning=query.requires_reasoning,
            )
            try:
                assert _rows(engine.execute(query.sparql)) == _rows(
                    sequential.execute(query.sparql)
                )
            finally:
                engine.close()
        # The newcomer really served (shard affinity routes units to it) and
        # really converged: same position as the primary, via suffix replay.
        assert joined.info()["dispatches"][-1] > 0
        generation, epoch = cluster_live.source.position()
        assert (newcomer.generation, newcomer.epoch) == (generation, epoch)
        assert newcomer.bootstraps == 1
    finally:
        joined.close()
        server.service.close()
        server.stop()


def test_cluster_actually_fans_out(cluster_live):
    """Work units really crossed the network — this was never all-local."""
    dispatches = cluster_live.replica_set.info()["dispatches"]
    assert sum(dispatches) > 0
    # Shard affinity plus per-batch rotation touches every replica.
    assert all(count > 0 for count in dispatches)


# --------------------------------------------------------------------------- #
# the work-unit vocabulary through a loopback replica
# --------------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def unit_replica(two_shard_lubm, tmp_path_factory):
    """One loopback replica of the 2-shard store, and an engine routing to it."""
    source = ReplicationSource(two_shard_lubm, workspace=str(tmp_path_factory.mktemp("unit-ship")))
    primary = QueryServer(QueryService(two_shard_lubm), routes=source.routes()).start()
    replica = ClusterReplica(
        HttpReplicationClient(primary.url), str(tmp_path_factory.mktemp("unit-replica"))
    ).bootstrap()
    server = replica.serve()
    replica_set = ReplicaSet([server.url])
    engine = ClusterQueryEngine(two_shard_lubm, replica_set, source)
    yield engine
    engine.close()
    replica_set.close()
    for stopping in (server, primary):
        stopping.service.close()
        stopping.stop()
    source.close()


@pytest.mark.parametrize("op", UNIT_OPS)
def test_replica_unit_replies_equal_inline(op, unit_replica, unit_cases, comparable_reply, two_shard_lubm):
    # Each unit crosses HTTP as JSON, pinned at the replica's position, and
    # is decoded on the coordinator: the reply must equal the inline one.
    executor = unit_replica.evaluator
    pin = executor._session()
    [sent_before] = unit_replica.replicas.info()["dispatches"]
    for args in unit_cases[op]:
        reply = executor._await(executor._submit(pin, op, args))
        inline = execute_unit(two_shard_lubm, op, args, True)
        assert comparable_reply(op, reply) == comparable_reply(op, inline)
    assert unit_replica.replicas.info()["dispatches"] == [sent_before + len(unit_cases[op])]
