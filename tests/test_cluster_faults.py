"""Fault injection for the cluster: kills, partitions, lag and deadlines.

What the distributed tier must guarantee under failure, each proven here:

* a replica killed (or dropping packets) mid-query triggers failover to a
  peer and the query still returns **full, byte-identical rows** — or,
  with no peer left, a clean :class:`~repro.serve.cluster.ClusterError`;
  never partial rows;
* a partitioned replica is excluded by the health checks, receives no
  work while down, and **re-converges through suffix replay** (not a
  re-bootstrap) once the link heals;
* a replica lagging behind the pinned epoch never serves a stale read —
  it syncs forward on demand, refuses with 503 when it cannot reach the
  primary, and answers 409 when asked for a position it has moved past;
* the coordinator's deadline is respected under a slow replica:
  :class:`~repro.serve.cluster.ClusterTimeout` fires near the deadline
  and is never retried.

Faults are injected through :class:`~repro.edge.device.SimulatedNetwork`
(partition / drop-next knobs on every hop) and by stopping replica
servers outright.
"""

from __future__ import annotations

import os
import time
from types import SimpleNamespace

import pytest

from repro.edge.device import LOCAL_LAN, NetworkProfile, SimulatedNetwork
from repro.query.engine import QueryEngine
from repro.rdf.namespaces import Namespace
from repro.rdf.terms import Triple
from repro.serve.cluster import (
    ClusterError,
    ClusterQueryEngine,
    ClusterReplica,
    ClusterTimeout,
    EpochConflict,
    HttpReplicationClient,
    ReplicaSet,
    ReplicaUnavailable,
    ReplicationSource,
)
from repro.serve.server import QueryServer
from repro.serve.service import QueryService
from repro.sparql.bindings import AskResult
from repro.store.sharding import ShardedStore


def _rows(result):
    if isinstance(result, AskResult):
        return result.boolean
    return (result.variables, result.to_tuples())


@pytest.fixture()
def harness(small_lubm, tmp_path):
    """A 2-replica cluster with a simulated network on every hop.

    ``coordinator_links[i]`` sits on the coordinator→replica-``i`` hop;
    ``replication_links[i]`` on replica ``i``'s pull path to the primary.
    Function-scoped: every test gets pristine links and health state.
    """
    store = ShardedStore.from_graph(
        small_lubm.graph, ontology=small_lubm.ontology, shards=4, updatable=True
    )
    source = ReplicationSource(store, workspace=str(tmp_path / "ship"))
    primary = QueryServer(QueryService(store), routes=source.routes()).start()
    replication_links = [SimulatedNetwork(LOCAL_LAN), SimulatedNetwork(LOCAL_LAN)]
    replicas = [
        ClusterReplica(
            HttpReplicationClient(primary.url, network=replication_links[index]),
            str(tmp_path / f"replica{index}"),
        ).bootstrap()
        for index in range(2)
    ]
    servers = [replica.serve() for replica in replicas]
    coordinator_links = [SimulatedNetwork(LOCAL_LAN), SimulatedNetwork(LOCAL_LAN)]
    replica_set = ReplicaSet(
        [server.url for server in servers],
        networks=coordinator_links,
        hedge_after_s=0.2,
    )
    state = SimpleNamespace(
        store=store,
        source=source,
        primary=primary,
        replicas=replicas,
        servers=servers,
        replica_set=replica_set,
        coordinator_links=coordinator_links,
        replication_links=replication_links,
    )
    yield state
    replica_set.close()
    for server in servers:
        server.service.close()
        server.stop()
    primary.service.close()
    primary.stop()
    source.close()


def _engine(harness, **kwargs) -> ClusterQueryEngine:
    kwargs.setdefault("batch_size", 7)
    return ClusterQueryEngine(
        harness.store, harness.replica_set, harness.source, **kwargs
    )


def _expected(harness, sparql: str, reasoning: bool = True):
    return _rows(QueryEngine(harness.store, reasoning=reasoning).execute(sparql))


QUERY = "M2"  # multi-pattern: leaf scatter + several bind-join batches


def test_dropped_packets_fail_over_to_peer(harness, small_lubm_catalog):
    """Units lost on one link mid-query fail over; rows stay complete."""
    query = small_lubm_catalog.by_identifier()[QUERY]
    expected = _expected(harness, query.sparql, query.requires_reasoning)
    # Drop the next packet on the replica-0 hop: the first unit that hits it
    # dies mid-query, replica 0 is marked down, and its peer serves the rest.
    # (One drop is all the link gets — once marked down the replica receives
    # no more traffic, so a longer burst would survive into the health probe.)
    harness.coordinator_links[0].drop_next(1)
    engine = _engine(harness, reasoning=query.requires_reasoning)
    try:
        assert _rows(engine.execute(query.sparql)) == expected
    finally:
        engine.close()
    info = harness.replica_set.info()
    assert harness.coordinator_links[0].drops >= 1
    assert not info["healthy"][0]  # excluded after the transport failure
    # Health refresh readmits it (the link only dropped a burst, it is up).
    assert harness.replica_set.refresh_health() == [True, True]


def test_killed_replica_fails_over_or_errors_cleanly(harness, small_lubm_catalog):
    """A dead replica server: peer serves full rows; no peer → clean error."""
    query = small_lubm_catalog.by_identifier()[QUERY]
    expected = _expected(harness, query.sparql, query.requires_reasoning)
    harness.servers[0].stop()  # SIGKILL equivalent: the socket goes away
    engine = _engine(harness, reasoning=query.requires_reasoning)
    try:
        assert _rows(engine.execute(query.sparql)) == expected
        assert not harness.replica_set.info()["healthy"][0]
    finally:
        engine.close()
    # Now kill the last replica too: the query must raise a ClusterError —
    # materialized execution means the caller gets an exception, never a
    # partially filled result.
    harness.servers[1].stop()
    engine = _engine(harness, reasoning=query.requires_reasoning)
    try:
        with pytest.raises(ClusterError):
            engine.execute(query.sparql)
    finally:
        engine.close()


def test_partitioned_replica_excluded_then_reconverges(harness, small_lubm_catalog):
    """Partition → health exclusion → heal → suffix-replay re-convergence."""
    query = small_lubm_catalog.by_identifier()[QUERY]
    expected = _expected(harness, query.sparql, query.requires_reasoning)
    harness.coordinator_links[0].partition()
    engine = _engine(harness, reasoning=query.requires_reasoning)
    try:
        assert _rows(engine.execute(query.sparql)) == expected
        assert harness.replica_set.refresh_health() == [False, True]
        served_while_down = harness.replica_set.info()["dispatches"][0]
        # More queries while partitioned: replica 0 receives nothing.
        assert _rows(engine.execute(query.sparql)) == expected
        assert harness.replica_set.info()["dispatches"][0] == served_while_down
    finally:
        engine.close()
    # Heal the link and write through the primary: the replica re-converges
    # by replaying the missed log suffix, never by re-bootstrapping.
    harness.coordinator_links[0].heal()
    assert harness.replica_set.refresh_health() == [True, True]
    EX = Namespace("http://example.org/cluster-fault/")
    inserted = [
        Triple(EX[f"s{i}"], EX["links"], EX[f"o{i}"]) for i in range(5)
    ]
    for triple in inserted:
        assert harness.store.insert(triple)
    expected_ask = _expected(
        harness, f"ASK {{ <{EX['s0'].value}> <{EX['links'].value}> ?o }}"
    )
    engine = _engine(harness)
    try:
        bootstraps_before = harness.replicas[0].bootstraps
        # Pin lands at the post-write epoch; replica 0 must catch up to serve.
        assert (
            _rows(engine.execute(f"ASK {{ <{EX['s0'].value}> <{EX['links'].value}> ?o }}"))
            == expected_ask
        )
        generation, epoch = harness.source.position()
        # Force replica 0 all the way forward and check how it got there.
        harness.replicas[0].sync(upto_epoch=epoch)
        assert (harness.replicas[0].generation, harness.replicas[0].epoch) == (
            generation,
            epoch,
        )
        assert harness.replicas[0].bootstraps == bootstraps_before  # replay, not re-image
    finally:
        engine.close()
    for triple in inserted:  # restore the dataset for any later assertions
        assert harness.store.delete(triple)


def test_lagging_replica_never_serves_stale_rows(harness, small_lubm_catalog):
    """A replica that cannot catch up refuses (503/409); a peer serves fresh."""
    query = small_lubm_catalog.by_identifier()[QUERY]
    # Converge both replicas onto the current position first.
    generation, epoch = harness.source.position()
    for replica in harness.replicas:
        replica.sync(upto_epoch=epoch)
    # Cut replica 0 off from the primary, then advance the primary.
    harness.replication_links[0].partition()
    EX = Namespace("http://example.org/cluster-lag/")
    inserted = [Triple(EX[f"s{i}"], EX["links"], EX[f"o{i}"]) for i in range(3)]
    for triple in inserted:
        assert harness.store.insert(triple)
    new_generation, new_epoch = harness.source.position()
    assert new_epoch > epoch
    # Asked for the fresh position, the lagging replica refuses outright —
    # it cannot reach the primary to catch up, so it must NOT answer from
    # its stale state.
    with pytest.raises(ReplicaUnavailable):
        harness.replicas[0].handle_op("ping", (), True, new_generation, new_epoch)
    assert harness.replicas[0].epoch == epoch  # still lagging, untouched
    # The full query path: the coordinator pins the fresh epoch; replica 0
    # 503s, fails over, and the peer serves rows that include the new data.
    expected = _expected(harness, query.sparql, query.requires_reasoning)
    expected_ask = _expected(
        harness, f"ASK {{ <{EX['s0'].value}> <{EX['links'].value}> ?o }}"
    )
    assert expected_ask is True
    engine = _engine(harness, reasoning=query.requires_reasoning)
    try:
        assert _rows(engine.execute(query.sparql)) == expected
        assert (
            _rows(engine.execute(f"ASK {{ <{EX['s0'].value}> <{EX['links'].value}> ?o }}"))
            == expected_ask
        )
    finally:
        engine.close()
    # Heal and catch up; then ask for a position the replica has moved past:
    # 409 (EpochConflict), the re-pin-and-retry signal — still never rows.
    harness.replication_links[0].heal()
    harness.replicas[0].sync(upto_epoch=new_epoch)
    with pytest.raises(EpochConflict):
        harness.replicas[0].handle_op("ping", (), True, new_generation, new_epoch - 1)
    for triple in inserted:
        assert harness.store.delete(triple)


def test_deadline_respected_under_slow_replica(small_lubm, tmp_path):
    """A slow link cannot stretch a query past the coordinator's deadline."""
    store = ShardedStore.from_graph(
        small_lubm.graph, ontology=small_lubm.ontology, shards=4, updatable=True
    )
    source = ReplicationSource(store, workspace=str(tmp_path / "ship"))
    primary = QueryServer(QueryService(store), routes=source.routes()).start()
    replica = ClusterReplica(
        HttpReplicationClient(primary.url), str(tmp_path / "replica")
    ).bootstrap()
    server = replica.serve()
    # 300 ms RTT on the only replica's hop: every unit costs ≥ 150 ms on the
    # request leg alone, so a 0.25 s deadline dies inside the first batches.
    slow = SimulatedNetwork(NetworkProfile(name="slow", rtt_ms=300.0, bandwidth_kbps=0.0))
    replica_set = ReplicaSet([server.url], networks=[slow], hedge_after_s=0.05)
    engine = ClusterQueryEngine(
        store, replica_set, source, batch_size=7, deadline_s=0.25
    )
    try:
        started = time.perf_counter()
        with pytest.raises(ClusterTimeout):
            engine.execute(
                "SELECT ?s ?o WHERE { ?s <http://swat.cse.lehigh.edu/onto/univ-bench.owl#memberOf> ?o }"
            )
        elapsed = time.perf_counter() - started
        # Respected means: aborted near the deadline (one in-flight unit of
        # slack), not after stubbornly draining every slow round trip.
        assert elapsed < 2.5
    finally:
        engine.close()
        replica_set.close()
        server.service.close()
        server.stop()
        primary.service.close()
        primary.stop()
        source.close()


# --------------------------------------------------------------------------- #
# shipping artifacts stay bounded
# --------------------------------------------------------------------------- #


def _follow_rotations(toy_data, toy_ontology, tmp_path, rotations=5):
    """A primary compacted ``rotations`` times, a replica re-bootstrapping each time."""
    from repro.serve.cluster import LocalReplicationClient
    from repro.store.updatable import UpdatableSuccinctEdge

    primary = UpdatableSuccinctEdge.from_graph(toy_data, ontology=toy_ontology)
    source = ReplicationSource(primary, workspace=str(tmp_path / "ship"))
    replica = ClusterReplica(
        LocalReplicationClient(source), str(tmp_path / "replica")
    ).bootstrap()
    EX = Namespace("http://example.org/cluster-rotation/")
    for index in range(rotations):
        assert primary.insert(Triple(EX[f"s{index}"], EX["links"], EX[f"o{index}"]))
        primary.compact()
        replica.sync()
    assert (replica.generation, replica.epoch) == source.position()
    assert replica.bootstraps == rotations + 1
    return source, replica


def test_publisher_keeps_two_generations(toy_data, toy_ontology, tmp_path):
    source, _ = _follow_rotations(toy_data, toy_ontology, tmp_path)
    try:
        assert sorted(os.listdir(tmp_path / "ship")) == ["base-g4.sedg", "base-g5.sedg"]
    finally:
        source.close()


def test_replica_keeps_two_generations(toy_data, toy_ontology, tmp_path):
    source, replica = _follow_rotations(toy_data, toy_ontology, tmp_path)
    try:
        assert sorted(os.listdir(tmp_path / "replica")) == ["g000004", "g000005"]
        assert replica.store.triple_count == source.store.triple_count
    finally:
        source.close()
