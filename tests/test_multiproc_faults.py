"""Fault injection: the process backend fails cleanly and heals itself.

Worker processes die — OOM killers, segfaults in native extensions, admin
mistakes.  The contract under fire is strict:

* a query hit by a worker death either **retries to the correct result**
  or fails with a clean :class:`~repro.query.multiproc.WorkerPoolError` —
  never a hang, never a partial or duplicated row (results materialize
  before they are surfaced, so no half-consumed stream can escape);
* a corrupt or truncated store image fails the task with the store's own
  :class:`~repro.store.persistence.PersistenceError` carried back to the
  caller, and the pool stays healthy for the next query;
* after any of the above the pool **self-heals**: dead workers are
  replaced and the very next query runs normally.

Shipping artifacts (images, worker logs) stay bounded too, under long runs
of live writes and compactions.

``SIGKILL`` is the injection vehicle because it is the worst case — no
atexit handlers, no exception propagation, just a vanished process.
"""

from __future__ import annotations

import os
import signal
import time

import pytest

from repro.query.engine import QueryEngine
from repro.query.multiproc import ProcessPoolQueryEngine, WorkerPoolError
from repro.rdf.terms import Triple, URI
from repro.store.delta import CompactionPolicy
from repro.store.persistence import PersistenceError, save_store_image
from repro.store.sharding import ShardedStore
from repro.store.updatable import UpdatableSuccinctEdge

PROBE = """
SELECT ?x ?n WHERE {
  ?x a <http://swat.cse.lehigh.edu/onto/univ-bench.owl#FullProfessor> .
  ?x <http://swat.cse.lehigh.edu/onto/univ-bench.owl#name> ?n .
}
"""

#: Everything in this module must finish fast; a test that would hang
#: without the pool's own timeout/restart machinery fails loudly instead.
_SUITE_DEADLINE_S = 120.0


@pytest.fixture()
def engine(small_lubm_store, tmp_path):
    engine = ProcessPoolQueryEngine(
        small_lubm_store, max_workers=2, workspace=str(tmp_path / "spill")
    )
    yield engine
    engine.close()


def _expected(store, sparql=PROBE):
    return sorted(QueryEngine(store).execute(sparql).to_tuples())


def _kill(pids):
    for pid in pids:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass


# --------------------------------------------------------------------------- #
# worker death
# --------------------------------------------------------------------------- #


def test_sigkill_all_workers_retries_to_correct_result(engine, small_lubm_store):
    # Prime so there are real processes to kill, then kill every one of
    # them.  The engine's retry (heal + re-execute) must return the exact
    # sequential result — materialization means the failed attempt
    # surfaced zero rows, so the retry cannot duplicate any.
    engine.pool.prime()
    expected = _expected(small_lubm_store)
    _kill(engine.pool.worker_pids())
    result = sorted(engine.execute(PROBE).to_tuples())
    assert result == expected
    assert engine.pool.info()["restarts"] >= 1
    # Self-healed: the next query runs with no further restarts.
    before = engine.pool.info()["restarts"]
    assert sorted(engine.execute(PROBE).to_tuples()) == expected
    assert engine.pool.info()["restarts"] == before


def test_sigkill_mid_query_never_partial(small_lubm_store, small_lubm_catalog, tmp_path):
    """Kill workers *while* a scatter query is in flight, repeatedly.

    Every attempt must end in one of exactly two states: the full correct
    result (retry won) or a clean ``WorkerPoolError`` (retries exhausted).
    A partial row set — the failure mode this harness exists to catch —
    fails the assertion; a hang fails the suite deadline.
    """
    sharded = ShardedStore.from_store(small_lubm_store, shards=4)
    query = small_lubm_catalog.by_identifier()["S9"]
    expected = sorted(
        QueryEngine(small_lubm_store, reasoning=query.requires_reasoning)
        .execute(query.sparql)
        .to_tuples()
    )
    engine = ProcessPoolQueryEngine(
        sharded,
        reasoning=query.requires_reasoning,
        max_workers=2,
        batch_size=7,
        workspace=str(tmp_path / "spill"),
        retries=1,
    )
    deadline = time.monotonic() + _SUITE_DEADLINE_S
    outcomes = {"ok": 0, "failed": 0}
    try:
        for round_ in range(6):
            assert time.monotonic() < deadline, "fault suite exceeded its deadline"
            engine.pool.prime()
            victims = engine.pool.worker_pids()
            # Stagger the kill so some rounds hit mid-query and some hit
            # between tasks — both must stay clean.
            import threading

            timer = threading.Timer(0.005 * round_, _kill, args=(victims,))
            timer.start()
            try:
                result = sorted(engine.execute(query.sparql).to_tuples())
            except WorkerPoolError:
                outcomes["failed"] += 1
            else:
                assert result == expected, f"partial or wrong rows in round {round_}"
                outcomes["ok"] += 1
            finally:
                timer.cancel()
        # The engine must have survived every round; at least one round
        # must have produced the full result (the retry path works).
        assert outcomes["ok"] >= 1
        assert sorted(engine.execute(query.sparql).to_tuples()) == expected
    finally:
        engine.close()


def test_pool_restart_is_deterministic_during_sleep(small_lubm_store, tmp_path):
    # Pool-level determinism: a task caught by a worker death raises
    # WorkerPoolError from result() when the pool cannot transparently
    # retry (the task was already running); the pool is usable right after.
    engine = ProcessPoolQueryEngine(
        small_lubm_store, max_workers=2, workspace=str(tmp_path / "spill")
    )
    try:
        pool = engine.pool
        pool.prime()
        spec = engine.evaluator._session()
        future = pool.submit(spec, "sleep", (30.0,))
        time.sleep(0.2)  # let the worker start sleeping
        _kill(pool.worker_pids())
        with pytest.raises(WorkerPoolError):
            pool.result(future)
        assert pool.submit(spec, "ping", ()).result() is not None
    finally:
        engine.close()


def test_pool_exhaustion_self_heals(small_lubm_store, tmp_path):
    # Kill every worker repeatedly, back to back: the pool must keep
    # replacing them and never wedge into a permanently broken state.
    engine = ProcessPoolQueryEngine(
        small_lubm_store, max_workers=2, workspace=str(tmp_path / "spill")
    )
    expected = _expected(small_lubm_store)
    try:
        for _ in range(3):
            engine.pool.prime()
            _kill(engine.pool.worker_pids())
            assert sorted(engine.execute(PROBE).to_tuples()) == expected
        assert engine.pool.info()["alive_workers"] == 2
    finally:
        engine.close()


# --------------------------------------------------------------------------- #
# corrupt images
# --------------------------------------------------------------------------- #


def _corrupt_engine(path, store, tmp_path):
    engine = ProcessPoolQueryEngine(
        store, max_workers=2, workspace=str(tmp_path / "spill")
    )
    # Point the attach machinery at the damaged image: seed the publisher's
    # saved-image record so the engine ships the bad path instead of saving.
    engine.evaluator.publisher._saved[0] = str(path)
    return engine


def test_truncated_image_fails_clean_and_pool_survives(small_lubm_store, tmp_path):
    path = tmp_path / "trunc.sedg"
    save_store_image(small_lubm_store, str(path), atomic=True)
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])
    engine = _corrupt_engine(path, small_lubm_store, tmp_path)
    try:
        spec = engine.evaluator._session()
        assert os.path.join(spec["root"], *spec["files"]) == str(path)
        # "ping" deliberately skips attachment; a scan op forces the worker
        # to open (and checksum) the image.
        future = engine.pool.submit(spec, "type_concept", (0, None))
        with pytest.raises(PersistenceError):
            engine.pool.result(future)
        # The worker survived (the exception travelled back instead of
        # killing it) and the pool serves the intact store right after.
        engine.evaluator.publisher._saved.clear()
        assert sorted(engine.execute(PROBE).to_tuples()) == _expected(small_lubm_store)
        assert engine.pool.info()["restarts"] == 0
    finally:
        engine.close()


def test_crc_corrupt_image_fails_clean(small_lubm_store, tmp_path):
    path = tmp_path / "corrupt.sedg"
    save_store_image(small_lubm_store, str(path), atomic=True)
    data = bytearray(path.read_bytes())
    # The v4 checksum covers the TOC + meta region right after the 64-byte
    # header; flip one bit inside it so the CRC check must fire on attach.
    data[80] ^= 0xFF
    path.write_bytes(bytes(data))
    engine = _corrupt_engine(path, small_lubm_store, tmp_path)
    try:
        spec = engine.evaluator._session()
        future = engine.pool.submit(spec, "type_concept", (0, None))
        with pytest.raises(PersistenceError):
            engine.pool.result(future)
        engine.evaluator.publisher._saved.clear()
        assert sorted(engine.execute(PROBE).to_tuples()) == _expected(small_lubm_store)
    finally:
        engine.close()


# --------------------------------------------------------------------------- #
# timeouts
# --------------------------------------------------------------------------- #


def test_task_timeout_cannot_hang(small_lubm_store, tmp_path):
    # A wedged worker (here: sleeping far past the deadline) must fail the
    # task within ~task_timeout and leave a working pool behind.
    engine = ProcessPoolQueryEngine(
        small_lubm_store,
        max_workers=2,
        task_timeout=1.0,
        workspace=str(tmp_path / "spill"),
    )
    try:
        spec = engine.evaluator._session()
        started = time.monotonic()
        future = engine.pool.submit(spec, "sleep", (60.0,))
        with pytest.raises(WorkerPoolError):
            engine.pool.result(future)
        assert time.monotonic() - started < 30.0, "timeout did not bound the wait"
        assert sorted(engine.execute(PROBE).to_tuples()) == _expected(small_lubm_store)
    finally:
        engine.close()


def test_service_level_retry_on_worker_death(small_lubm_store):
    # The serving layer's own retry: a killed pool behind QueryService
    # still answers the request (heal + rerun) with full results.
    from repro.serve.service import QueryService

    service = QueryService(small_lubm_store, backend="process", process_workers=2)
    try:
        expected = _expected(small_lubm_store)
        outcome = service.execute(PROBE)
        assert sorted(outcome.result.to_tuples()) == expected
        service._process_pool.prime()
        _kill(service._process_pool.worker_pids())
        outcome = service.execute(PROBE + "# cache-buster")
        assert sorted(outcome.result.to_tuples()) == expected
        stats = service.stats()
        assert stats["backend"] == "process"
        assert stats["pool"]["alive_workers"] == 2
    finally:
        service.close()


# --------------------------------------------------------------------------- #
# shipping artifacts stay bounded
# --------------------------------------------------------------------------- #

LINK = "http://example.org/shipping/link"
LINK_SCAN = f"SELECT ?s ?o WHERE {{ ?s <{LINK}> ?o }}"


def _link(index: int) -> Triple:
    return Triple(
        URI(f"http://example.org/shipping/s{index}"),
        URI(LINK),
        URI(f"http://example.org/shipping/o{index}"),
    )


def test_workspace_keeps_two_generations(toy_data, toy_ontology, tmp_path):
    # 30 × (insert, query) with a compaction every 10: the workspace holds the
    # current and previous generation's image and worker log, nothing older —
    # and no per-epoch copy of the log at all.
    store = UpdatableSuccinctEdge.from_graph(toy_data, ontology=toy_ontology)
    workspace = tmp_path / "spill"
    engine = ProcessPoolQueryEngine(store, max_workers=2, workspace=str(workspace))
    try:
        for index in range(30):
            assert store.insert(_link(index))
            assert len(engine.execute(LINK_SCAN).to_tuples()) == index + 1
            assert len(os.listdir(workspace)) <= 4, sorted(os.listdir(workspace))
            if index % 10 == 9:
                store.compact()
        assert store.compaction_epoch == 3
        assert len(engine.execute(LINK_SCAN).to_tuples()) == 30
        names = sorted(os.listdir(workspace))
        assert [name for name in names if name.endswith(".sedg")] == ["base-g2.sedg", "base-g3.sedg"]
    finally:
        engine.close()


@pytest.mark.slow
def test_soak_live_two_shard_store(small_lubm, small_lubm_store, tmp_path):
    """2 000 writes with policy compactions under the process back end.

    The facade's write log and the engine's workspace stay bounded by the
    compaction cadence, and every probe stays byte-identical to the
    sequential engine over the same live store.
    """
    policy = CompactionPolicy(max_delta_operations=200, min_delta_operations=200)
    store = ShardedStore.from_store(
        small_lubm_store, shards=2, updatable=True, ontology=small_lubm.ontology, policy=policy
    )
    workspace = tmp_path / "spill"
    engines = {
        flag: ProcessPoolQueryEngine(store, reasoning=flag, max_workers=2, workspace=str(workspace))
        for flag in (False, True)
    }
    deadline = time.monotonic() + 540.0
    try:
        for index in range(2000):
            assert store.insert(_link(index))
            if index % 5 == 4:
                assert store.delete(_link(index - 2))
            store.maybe_compact()
            assert len(store.log) <= 2 * policy.max_delta_operations
            if index % 100 == 99:
                assert time.monotonic() < deadline, "soak exceeded its deadline"
                for sparql, flag in ((LINK_SCAN, False), (PROBE, True)):
                    expected = QueryEngine(store, reasoning=flag).execute(sparql)
                    actual = engines[flag].execute(sparql)
                    assert (actual.variables, actual.to_tuples()) == (
                        expected.variables,
                        expected.to_tuples(),
                    )
                # Two engines, each: two generations of worker logs; plus two
                # shard directories shared through the store.
                assert len(os.listdir(workspace)) <= 6, sorted(os.listdir(workspace))
        assert store.compaction_epoch >= 5
    finally:
        for engine in engines.values():
            engine.close()
