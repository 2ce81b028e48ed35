"""The serving layer: QueryService semantics and the HTTP front door.

Covers the satellite requirements of the scale-out PR:

* service semantics — cache hit/miss with epoch invalidation, admission
  rejection under saturation, cooperative timeouts, metrics accounting;
* HTTP lifecycle — start, query (GET/POST), status codes, shutdown;
* concurrency — k client threads issuing paper queries through the server
  while ``compact_in_background()`` folds a delta underneath them: every
  response must equal the expected answer (no torn reads), and the epoch
  bump at swap time must invalidate the cache.
"""

from __future__ import annotations

import threading

import pytest

from repro.rdf.graph import Graph
from repro.rdf.terms import Literal, Triple, URI
from repro.serve import QueryServer, QueryService, SparqlClient
from repro.serve.cache import ResultCache
from repro.serve.metrics import ServingMetrics
from repro.serve.service import QueryRejected, QueryTimeout
from repro.store.delta import MANUAL_COMPACTION
from repro.store.updatable import UpdatableSuccinctEdge

PREFIXES = (
    "PREFIX lubm: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>\n"
    "PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>\n"
)
WORKS_FOR = PREFIXES + "SELECT ?x ?y WHERE { ?x lubm:worksFor ?y }"
HEAD_ASK = PREFIXES + "ASK { ?x lubm:headOf ?d }"


# --------------------------------------------------------------------------- #
# cache + metrics units
# --------------------------------------------------------------------------- #


def test_result_cache_lru_eviction_and_counters():
    cache = ResultCache(capacity=2)
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.get("a") == (True, 1)  # refreshes 'a'
    cache.put("c", 3)  # evicts 'b' (least recently used)
    assert cache.get("b") == (False, None)
    assert cache.get("a") == (True, 1)
    assert cache.get("c") == (True, 3)
    info = cache.info()
    assert info["evictions"] == 1
    assert info["hits"] == 3 and info["misses"] == 1


def test_metrics_percentiles_and_snapshot():
    metrics = ServingMetrics()
    for ms in (1.0, 2.0, 3.0, 4.0, 100.0):
        metrics.record_admission()
        metrics.record_completion(ms, cached=False)
    snap = metrics.snapshot()
    assert snap["completed"] == 5
    assert snap["latency_p50_ms"] == 3.0
    assert snap["latency_p99_ms"] == 100.0
    assert snap["in_flight"] == 0 and snap["peak_in_flight"] == 1


# --------------------------------------------------------------------------- #
# service semantics
# --------------------------------------------------------------------------- #


@pytest.fixture()
def live_store(small_lubm):
    return UpdatableSuccinctEdge.from_graph(
        small_lubm.graph, ontology=small_lubm.ontology, policy=MANUAL_COMPACTION
    )


def test_cache_hits_then_invalidates_on_write(live_store):
    with QueryService(live_store, cache_capacity=16) as service:
        first = service.execute(WORKS_FOR)
        assert not first.cached
        second = service.execute(WORKS_FOR)
        assert second.cached
        assert second.result.to_tuples() == first.result.to_tuples()
        # A write bumps data_epoch: the next lookup must recompute.
        assert live_store.insert(
            Triple(URI("http://x.org/w"), URI("http://x.org/value"), Literal(1))
        )
        third = service.execute(WORKS_FOR)
        assert not third.cached
        assert third.epoch != second.epoch
        assert service.metrics.snapshot()["cache_hits"] == 1


def test_reasoning_modes_are_cached_separately(small_lubm_store):
    query = PREFIXES + "SELECT ?x WHERE { ?x rdf:type lubm:Student }"
    with QueryService(small_lubm_store) as service:
        with_reasoning = service.execute(query, reasoning=True)
        without = service.execute(query, reasoning=False)
        assert not without.cached  # different cache key
        assert len(with_reasoning.result) > len(without.result)


def test_admission_rejects_when_saturated(small_lubm_store):
    service = QueryService(small_lubm_store, worker_slots=1, max_pending=0, cache_capacity=0)
    entered = threading.Event()
    release = threading.Event()
    original_run = service._run

    def gated_run(query, reasoning, started, timeout):
        entered.set()
        release.wait(timeout=30)
        return original_run(query, reasoning, started, timeout)

    service._run = gated_run
    worker = threading.Thread(target=service.execute, args=(HEAD_ASK,), daemon=True)
    worker.start()
    assert entered.wait(timeout=10)
    try:
        with pytest.raises(QueryRejected):
            service.execute(WORKS_FOR)
    finally:
        release.set()
        worker.join(timeout=10)
    snap = service.metrics.snapshot()
    assert snap["rejected"] == 1
    assert snap["completed"] == 1
    service.close()


def test_cooperative_timeout(small_lubm_store):
    with QueryService(small_lubm_store, cache_capacity=0) as service:
        with pytest.raises(QueryTimeout):
            service.execute(WORKS_FOR, timeout_s=0.0)
        assert service.metrics.snapshot()["timeouts"] == 1
        # A sane deadline succeeds and is unaffected by the earlier timeout.
        assert service.execute(WORKS_FOR, timeout_s=30.0).rows > 0


def test_deadline_covers_queue_wait(small_lubm_store):
    # A request whose deadline expires while waiting for a worker slot must
    # fail with a timeout instead of running its query afterwards.
    service = QueryService(small_lubm_store, worker_slots=1, max_pending=4, cache_capacity=0)
    entered = threading.Event()
    release = threading.Event()
    original_run = service._run

    def gated_run(query, reasoning, started, timeout):
        entered.set()
        release.wait(timeout=30)
        return original_run(query, reasoning, started, timeout)

    service._run = gated_run
    worker = threading.Thread(target=service.execute, args=(HEAD_ASK,), daemon=True)
    worker.start()
    assert entered.wait(timeout=10)
    try:
        with pytest.raises(QueryTimeout):
            service.execute(WORKS_FOR, timeout_s=0.05)  # expires in the queue
    finally:
        release.set()
        worker.join(timeout=10)
    snap = service.metrics.snapshot()
    assert snap["timeouts"] == 1
    assert snap["completed"] == 1  # only the gated request executed
    service.close()


def test_unstarted_server_stop_releases_the_port(small_lubm_store):
    service = QueryService(small_lubm_store)
    server = QueryServer(service)  # bound but never started
    server.stop()
    assert server._httpd.socket.fileno() == -1  # listening socket closed
    with pytest.raises(RuntimeError):
        server.start()  # a stopped server cannot be revived
    service.close()


def test_parse_errors_count_as_errors(small_lubm_store):
    from repro.sparql.parser import SparqlParseError

    with QueryService(small_lubm_store) as service:
        with pytest.raises(SparqlParseError):
            service.execute("SELECT ?x WHERE {")
        assert service.metrics.snapshot()["errors"] == 1


# --------------------------------------------------------------------------- #
# HTTP lifecycle
# --------------------------------------------------------------------------- #


def test_http_server_start_query_shutdown(small_lubm_store):
    service = QueryService(small_lubm_store, cache_capacity=16)
    with QueryServer(service) as server:
        client = SparqlClient(server.url)
        health = client.health()
        assert health["status"] == "ok" and health["triples"] == small_lubm_store.triple_count
        rows = client.select_rows(WORKS_FOR)
        assert len(rows) > 0 and all(len(row) == 2 for row in rows)
        assert client.ask(HEAD_ASK) is True
        # Second identical request is served from the cache.
        assert client.query(WORKS_FOR)["_cache"] == "HIT"
        # GET with a URL-encoded query works too.
        from urllib.parse import quote

        document = client._request("/sparql?query=" + quote(HEAD_ASK))
        assert document["boolean"] is True
        metrics = client.metrics()
        assert metrics["completed"] >= 4
        assert client.stats()["store"]["shards"] == 1
    service.close()
    # After shutdown the port no longer accepts connections.
    with pytest.raises(Exception):
        SparqlClient(server.url, timeout_s=0.5).health()


def test_parse_cache_survives_writes_plan_cache_does_not(live_store):
    with QueryService(live_store, cache_capacity=0, plan_cache_capacity=8) as service:
        service.execute(WORKS_FOR)
        service.execute(WORKS_FOR)
        parse_info = service.stats()["parse_cache"]
        assert parse_info["hits"] == 1  # the AST is reused across requests
        # Parsing is epoch-independent: a write must NOT invalidate it.
        assert live_store.insert(
            Triple(URI("http://x.org/w2"), URI("http://x.org/value"), Literal(2))
        )
        service.execute(WORKS_FOR)
        assert service.stats()["parse_cache"]["hits"] == 2
        # The explain-plan cache, by contrast, is epoch-keyed.
        service.explain(WORKS_FOR)
        service.explain(WORKS_FOR)
        assert service.stats()["plan_cache"]["hits"] == 1
        assert live_store.insert(
            Triple(URI("http://x.org/w3"), URI("http://x.org/value"), Literal(3))
        )
        service.explain(WORKS_FOR)
        assert service.stats()["plan_cache"]["misses"] == 2


def test_service_explain_does_not_execute(small_lubm_store):
    with QueryService(small_lubm_store) as service:
        document = service.explain(WORKS_FOR)
        assert document["planner"] == "cost-dp"
        assert "plan [cost-dp]" in document["plan"]
        assert "tp1" in document["plan"]
        # Nothing was admitted/executed for the explain.
        assert service.metrics.snapshot()["completed"] == 0


def test_explain_respects_admission_control(small_lubm_store):
    service = QueryService(
        small_lubm_store, worker_slots=1, max_pending=0, plan_cache_capacity=0
    )
    # Occupy the single worker slot, then explain must be rejected.
    assert service._slots.acquire(timeout=1)
    try:
        service._pending = service.max_pending + service.worker_slots
        with pytest.raises(QueryRejected):
            service.explain(WORKS_FOR)
    finally:
        service._pending = 0
        service._slots.release()
    service.close()


def test_http_explain_mode(small_lubm_store):
    service = QueryService(small_lubm_store, cache_capacity=16)
    with QueryServer(service) as server:
        client = SparqlClient(server.url)
        document = client.explain(WORKS_FOR)
        assert document["planner"] == "cost-dp"
        assert "cost~" in document["plan"]
        # explain of an invalid query is a 400, like execution.
        from urllib.parse import quote

        bad = client._request("/sparql?explain=1&query=" + quote("SELECT ?x WHERE {"))
        assert bad["_status"] == 400
        # explain=0 still executes normally.
        ok = client._request("/sparql?explain=0&query=" + quote(HEAD_ASK))
        assert ok["boolean"] is True
    service.close()


def test_keepalive_requests_do_not_stall(small_lubm_store):
    # Twenty requests over one reused connection: with Nagle on, every reply
    # waited for the client's delayed ACK (~44 ms median).
    import http.client
    import statistics
    import time
    from urllib.parse import quote

    service = QueryService(small_lubm_store, cache_capacity=16)
    with QueryServer(service) as server:
        host, port = server.address[0], server.address[1]
        connection = http.client.HTTPConnection(host, port, timeout=10)
        try:
            times = []
            for _ in range(20):
                started = time.perf_counter()
                connection.request("GET", "/sparql?query=" + quote(HEAD_ASK))
                response = connection.getresponse()
                assert response.status == 200
                response.read()
                times.append((time.perf_counter() - started) * 1000.0)
        finally:
            connection.close()
    service.close()
    assert statistics.median(times) < 10.0, times


def test_http_error_statuses(small_lubm_store):
    service = QueryService(small_lubm_store, cache_capacity=0)
    with QueryServer(service) as server:
        client = SparqlClient(server.url)
        assert client.query("SELECT ?x WHERE {")["_status"] == 400
        assert client._request("/nope")["_status"] == 404
        assert client._request("/sparql?timeout=abc&query=x")["_status"] == 400
        timed_out = client._request("/sparql?timeout=0", data=WORKS_FOR.encode())
        assert timed_out["_status"] == 504
    service.close()


# --------------------------------------------------------------------------- #
# edge wiring: the fleet controller's SPARQL front door
# --------------------------------------------------------------------------- #


def test_administration_server_serves_live_device(engie_schema_graph, engie_graph):
    from repro.edge import AdministrationServer

    admin = AdministrationServer(engie_schema_graph)
    admin.register_device("pi-live", live=True)
    admin.register_device("pi-rebuild", live=False)
    admin.ingest("pi-live", engie_graph)

    with pytest.raises(ValueError):
        admin.query_service("pi-rebuild")  # no long-lived store to serve
    with pytest.raises(KeyError):
        admin.query_service("pi-unknown")

    server = admin.start_query_server("pi-live", cache_capacity=8)
    try:
        client = SparqlClient(server.url)
        health = client.health()
        assert health["status"] == "ok" and health["triples"] > 0
        assert client.ask("ASK { ?s ?p ?o }") is True
        # Ingestion continues underneath serving: the epoch moves, the
        # cache re-keys.
        first = client.query("ASK { ?s ?p ?o }")
        assert first["_cache"] == "HIT"
        from repro.workloads.engie import water_distribution_graph

        fresh_instance = water_distribution_graph(
            observations_per_sensor=2, stations=1, seed=77
        )
        admin.ingest("pi-live", fresh_instance)
        assert client.query("ASK { ?s ?p ?o }")["_cache"] == "MISS"
    finally:
        assert admin.shutdown_query_servers() == 1
    assert admin.query_servers == {}


# --------------------------------------------------------------------------- #
# concurrent reads during background compaction, through the server path
# --------------------------------------------------------------------------- #


def test_concurrent_reads_during_background_compaction(small_lubm, small_lubm_catalog):
    base = Graph()
    live = []
    for index, triple in enumerate(small_lubm.graph):
        if index % 6 == 5:
            live.append(triple)
        else:
            base.add(triple)
    store = UpdatableSuccinctEdge.from_graph(
        base, ontology=small_lubm.ontology, policy=MANUAL_COMPACTION
    )
    for triple in live:
        store.insert(triple)
    assert store.delta_operation_count > 0

    by_id = small_lubm_catalog.by_identifier()
    probes = ["S2", "S7", "S8", "M1", "A5"]
    service = QueryService(store, worker_slots=8, cache_capacity=32)
    with QueryServer(service) as server:
        clients = [SparqlClient(server.url) for _ in range(4)]
        # Ground truth before compaction starts; compaction must not change it.
        expected = {}
        for identifier in probes:
            query = by_id[identifier]
            if identifier == "A5":
                expected[identifier] = clients[0].ask(query.sparql)
            else:
                expected[identifier] = clients[0].select_rows(query.sparql)
        epoch_before = store.snapshot_epoch

        stop = threading.Event()
        failures = []

        def hammer(client, offset):
            iteration = 0
            while not stop.is_set():
                identifier = probes[(iteration + offset) % len(probes)]
                query = by_id[identifier]
                try:
                    if identifier == "A5":
                        answer = client.ask(query.sparql)
                    else:
                        answer = client.select_rows(query.sparql)
                    if answer != expected[identifier]:
                        failures.append((identifier, "torn read"))
                except Exception as error:  # noqa: BLE001 - collected for the assert
                    failures.append((identifier, repr(error)))
                iteration += 1

        threads = [
            threading.Thread(target=hammer, args=(client, offset), daemon=True)
            for offset, client in enumerate(clients)
        ]
        for thread in threads:
            thread.start()
        compaction = store.compact_in_background()
        compaction.join(timeout=120)
        stop.set()
        for thread in threads:
            thread.join(timeout=30)

        assert not compaction.is_alive()
        assert not failures, failures[:5]
        assert store.compaction_epoch == epoch_before[0] + 1
        assert store.delta_operation_count == 0

        # The epoch bump invalidated the cache: same query, new key, MISS
        # first, HIT afterwards — and the same rows as before compaction.
        document = clients[0].query(by_id["S2"].sparql)
        assert document["_epoch"].startswith(str(store.compaction_epoch))
        follow_up = clients[0].query(by_id["S2"].sparql)
        assert follow_up["_cache"] == "HIT"
        assert clients[0].select_rows(by_id["S2"].sparql) == expected["S2"]
    service.close()
