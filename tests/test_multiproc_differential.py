"""Differential tests: the process backend must equal the sequential engine.

The process pool's contract is the same as the thread executor's, only
harder to keep: *no observable difference* from the sequential engine even
though leaf scans and bind-join batches execute in worker processes that
attached to the store by ``mmap``-loading its image (plus a replayed
delta-log suffix for live stores).  The matrix below checks byte-identity
(same variables, same rows, same order) on the full paper workload
(S1-S15, M1-M5, R1-R6) plus the A1-A6 analytics, at 1, 2 and 4 workers,
over both store layouts (monolithic image and a 4-shard directory), with a
live delta riding on a mapped base, and again after a compact-and-swap
image rotation happening *under* concurrent queries.

One :class:`~repro.query.multiproc.WorkerPool` per worker count is shared
across every engine in the module — tasks carry their own attach spec, so
a pool is store-agnostic; sharing it is exactly how the serving layer runs
it, and it keeps the matrix cheap (workers fork once per pool).
"""

from __future__ import annotations

import threading

import pytest

from repro.query.engine import QueryEngine
from repro.query.multiproc import ProcessPoolQueryEngine, WorkerPool
from repro.query.units import UNIT_OPS, execute_unit
from repro.rdf.graph import Graph
from repro.sparql.bindings import AskResult
from repro.store.persistence import load_store, save_store_image
from repro.store.sharding import ShardedStore
from repro.store.succinct_edge import SuccinctEdge

ALL_QUERY_IDS = (
    [f"S{i}" for i in range(1, 16)]
    + [f"M{i}" for i in range(1, 6)]
    + [f"R{i}" for i in range(1, 7)]
    + [f"A{i}" for i in range(1, 7)]
)

WORKER_COUNTS = (1, 2, 4)


def _rows(result):
    if isinstance(result, AskResult):
        return result.boolean
    return (result.variables, result.to_tuples())


# --------------------------------------------------------------------------- #
# fixtures
# --------------------------------------------------------------------------- #


@pytest.fixture(scope="module", params=WORKER_COUNTS)
def pool(request):
    """One shared worker pool per worker count (workers fork lazily)."""
    pool = WorkerPool(max_workers=request.param)
    yield pool
    pool.close()


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    return str(tmp_path_factory.mktemp("multiproc-spill"))


@pytest.fixture(scope="module")
def mapped(small_lubm_store, tmp_path_factory):
    """The reference store saved as a store image and loaded back mapped.

    Workers attach to the very same image file, so coordinator and workers
    literally share pages.
    """
    path = tmp_path_factory.mktemp("images") / "small_lubm.sedg"
    save_store_image(small_lubm_store, str(path), atomic=True)
    store = load_store(str(path), mmap=True)
    assert store.image is not None and store.image.mapped
    return store


@pytest.fixture(scope="module")
def sharded(small_lubm_store):
    return ShardedStore.from_store(small_lubm_store, shards=4)


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
def live_reference(small_lubm, live_dataset):
    """Monolithic rebuild over base-then-live data (matches insert order)."""
    base, live = live_dataset
    merged = Graph()
    for triple in base:
        merged.add(triple)
    for triple in live:
        merged.add(triple)
    return SuccinctEdge.from_graph(merged, ontology=small_lubm.ontology)


def _mapped_live_store(small_lubm, live_dataset, directory):
    """A live store on a mapped base; deltas arrive through ``insert()``."""
    base, live = live_dataset
    built = SuccinctEdge.from_graph(base, ontology=small_lubm.ontology)
    path = str(directory / "base.sedg")
    save_store_image(built, path, atomic=True)
    store = load_store(path, mmap=True).updatable(ontology=small_lubm.ontology)
    inserted = sum(1 for triple in live if store.insert(triple))
    assert inserted == len(live)
    return store


@pytest.fixture(scope="module")
def mapped_live(small_lubm, live_dataset, tmp_path_factory):
    return _mapped_live_store(small_lubm, live_dataset, tmp_path_factory.mktemp("live"))


# --------------------------------------------------------------------------- #
# the differential matrix
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize("identifier", ALL_QUERY_IDS)
def test_process_monolithic_byte_identical(
    pool, workspace, mapped, small_lubm_store, small_lubm_catalog, identifier
):
    # Workers mmap the same image file the coordinator mapped; the v4 meta
    # restores the planner statistics, so plans (and row order) agree.
    query = small_lubm_catalog.by_identifier()[identifier]
    sequential = QueryEngine(small_lubm_store, reasoning=query.requires_reasoning)
    process = ProcessPoolQueryEngine(
        mapped,
        reasoning=query.requires_reasoning,
        pool=pool,
        workspace=workspace,
    )
    try:
        assert _rows(process.execute(query.sparql)) == _rows(sequential.execute(query.sparql))
    finally:
        process.close()


@pytest.mark.parametrize("identifier", ALL_QUERY_IDS)
def test_process_sharded_byte_identical(
    pool, workspace, sharded, small_lubm_store, small_lubm_catalog, identifier
):
    # Per-shard leaf scans execute in worker processes over the shard
    # images the engine auto-saved; the coordinator merges property-major,
    # shard-minor — the exact monolithic PSO/PS/SO order.
    query = small_lubm_catalog.by_identifier()[identifier]
    sequential = QueryEngine(small_lubm_store, reasoning=query.requires_reasoning)
    process = ProcessPoolQueryEngine(
        sharded,
        reasoning=query.requires_reasoning,
        pool=pool,
        workspace=workspace,
    )
    try:
        assert _rows(process.execute(query.sparql)) == _rows(sequential.execute(query.sparql))
    finally:
        process.close()


@pytest.mark.parametrize("identifier", ALL_QUERY_IDS)
def test_process_live_delta_byte_identical(
    pool, workspace, mapped_live, live_reference, small_lubm_catalog, identifier
):
    # Workers attach by mapping the shipped base image and replaying the
    # delta-log suffix; the merged enumeration must equal a monolithic
    # rebuild over the same data.
    query = small_lubm_catalog.by_identifier()[identifier]
    sequential = QueryEngine(live_reference, reasoning=query.requires_reasoning)
    process = ProcessPoolQueryEngine(
        mapped_live,
        reasoning=query.requires_reasoning,
        pool=pool,
        workspace=workspace,
    )
    try:
        assert _rows(process.execute(query.sparql)) == _rows(sequential.execute(query.sparql))
    finally:
        process.close()


def test_process_rotation_under_load(
    pool, small_lubm, live_dataset, live_reference, small_lubm_catalog, tmp_path
):
    """Compact-and-swap to a fresh image while process queries are running.

    The rotation bumps the store generation; engine attach specs re-sample
    on every dispatch, so workers re-attach to the rotated image on their
    next task — queries in flight during the swap and queries after it must
    all return exactly the sequential engine's results.
    """
    store = _mapped_live_store(small_lubm, live_dataset, tmp_path)
    catalog = small_lubm_catalog.by_identifier()
    probes = [catalog[identifier] for identifier in ("S1", "S9", "M2", "R2")]
    process = ProcessPoolQueryEngine(
        store, pool=pool, workspace=str(tmp_path / "spill")
    )
    errors = []

    def hammer():
        try:
            for _ in range(3):
                for query in probes:
                    expected = _rows(
                        QueryEngine(
                            live_reference, reasoning=query.requires_reasoning
                        ).execute(query.sparql)
                    )
                    engine = ProcessPoolQueryEngine(
                        store,
                        reasoning=query.requires_reasoning,
                        pool=pool,
                        workspace=str(tmp_path / "spill"),
                    )
                    try:
                        assert _rows(engine.execute(query.sparql)) == expected
                    finally:
                        engine.close()
        except Exception as exc:  # pragma: no cover - surfaced via errors
            errors.append(exc)

    try:
        thread = threading.Thread(target=hammer)
        thread.start()
        report = store.compact(image_path=str(tmp_path / "rotated.sedg"), remap=True)
        thread.join()
        assert not errors, errors[0]
        assert report.epoch == 1
        assert store.image is not None and str(store.image.path).endswith("rotated.sedg")
        # The post-rotation matrix: every paper query over the rotated image.
        for identifier in ALL_QUERY_IDS:
            query = catalog[identifier]
            expected = _rows(
                QueryEngine(live_reference, reasoning=query.requires_reasoning).execute(
                    query.sparql
                )
            )
            engine = ProcessPoolQueryEngine(
                store,
                reasoning=query.requires_reasoning,
                pool=pool,
                workspace=str(tmp_path / "spill"),
            )
            try:
                assert _rows(engine.execute(query.sparql)) == expected
            finally:
                engine.close()
    finally:
        process.close()


# --------------------------------------------------------------------------- #
# the work-unit vocabulary through a worker process
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize("op", UNIT_OPS)
def test_worker_unit_replies_equal_inline(op, unit_cases, comparable_reply, two_shard_lubm, tmp_path):
    # Each unit is wire-encoded, run by a worker attached to the saved shard
    # images, and decoded: the reply must equal the inline one exactly.
    engine = ProcessPoolQueryEngine(two_shard_lubm, max_workers=1, workspace=str(tmp_path))
    executor = engine.evaluator
    try:
        spec = executor._session()
        for args in unit_cases[op]:
            reply = executor._await(executor._submit(spec, op, args))
            inline = execute_unit(two_shard_lubm, op, args, True)
            assert comparable_reply(op, reply) == comparable_reply(op, inline)
    finally:
        engine.close()
