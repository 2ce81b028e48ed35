"""Differential tests: the sharded store must equal the monolithic store.

The acceptance bar of the scale-out layer: for every one of the paper's 26
evaluation queries (S1-S15, M1-M5, R1-R6) plus the A1-A6 analytics, query
results over a :class:`~repro.store.sharding.ShardedStore` are
**byte-identical** (same variables, same rows, same order) to the monolithic
store — both fully succinct and with a live delta riding on one shard.

Unit tests additionally pin the partitioner arithmetic, the write routing,
the aggregated epoch accounting and the per-shard compaction fan-out.
"""

from __future__ import annotations

import os

import pytest

from repro.rdf.graph import Graph
from repro.rdf.terms import Literal, Triple, URI
from repro.sparql.bindings import AskResult
from repro.store.sharding import ShardedStore, SubjectPartitioner
from repro.store.succinct_edge import SuccinctEdge
from repro.store.updatable import UpdatableSuccinctEdge

ALL_QUERY_IDS = (
    [f"S{i}" for i in range(1, 16)]
    + [f"M{i}" for i in range(1, 6)]
    + [f"R{i}" for i in range(1, 7)]
    + [f"A{i}" for i in range(1, 7)]
)

SHARDS = 3


def assert_identical(left_store, right_store, sparql, reasoning=True):
    left = left_store.query(sparql, reasoning=reasoning)
    right = right_store.query(sparql, reasoning=reasoning)
    if isinstance(left, AskResult):
        assert isinstance(right, AskResult)
        assert left.boolean == right.boolean
        return
    assert left.variables == right.variables
    assert left.to_tuples() == right.to_tuples()


# --------------------------------------------------------------------------- #
# partitioner unit tests
# --------------------------------------------------------------------------- #


def test_partitioner_routes_by_interval():
    partitioner = SubjectPartitioner([10, 20])
    assert partitioner.shard_count == 3
    assert [partitioner.shard_of(s) for s in (0, 9, 10, 19, 20, 10_000)] == [0, 0, 1, 1, 2, 2]
    assert partitioner.interval(0) == (0, 10)
    assert partitioner.interval(2) == (20, None)  # open-ended: fresh ids land here


def test_partitioner_balanced_quantiles():
    partitioner = SubjectPartitioner.balanced(list(range(100)), shards=4)
    assert partitioner.shard_count == 4
    counts = [0, 0, 0, 0]
    for subject in range(100):
        counts[partitioner.shard_of(subject)] += 1
    assert counts == [25, 25, 25, 25]


def test_partitioner_rejects_unsorted_boundaries():
    with pytest.raises(ValueError):
        SubjectPartitioner([20, 10])


def test_partitioner_degenerates_to_single_shard():
    partitioner = SubjectPartitioner.balanced([5, 5, 5], shards=4)
    # Fewer distinct subjects than shards: duplicate boundaries collapse.
    assert partitioner.shard_count <= 2


# --------------------------------------------------------------------------- #
# fixtures: monolithic reference, pure sharded store, sharded + live delta
# --------------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def sharded(small_lubm_store):
    store = ShardedStore.from_store(small_lubm_store, shards=SHARDS)
    assert store.shard_count == SHARDS
    return store


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
def sharded_with_delta(small_lubm, live_dataset):
    """A sharded store where the live triples arrived through insert()."""
    base, live = live_dataset
    base_store = SuccinctEdge.from_graph(base, ontology=small_lubm.ontology)
    store = ShardedStore.from_store(
        base_store, shards=SHARDS, updatable=True, ontology=small_lubm.ontology
    )
    inserted = sum(1 for triple in live if store.insert(triple))
    assert inserted == len(live)
    assert store.data_epoch == len(live)
    return store


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


# --------------------------------------------------------------------------- #
# the differential matrix
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize("identifier", ALL_QUERY_IDS)
def test_sharded_results_byte_identical(sharded, small_lubm_store, small_lubm_catalog, identifier):
    query = small_lubm_catalog.by_identifier()[identifier]
    assert_identical(sharded, small_lubm_store, query.sparql, query.requires_reasoning)


@pytest.mark.parametrize("identifier", ALL_QUERY_IDS)
def test_sharded_with_live_delta_byte_identical(
    sharded_with_delta, live_reference, small_lubm_catalog, identifier
):
    # The reference is a monolithic rebuild over base-then-live data, the
    # order in which the routed write path first saw every term.
    query = small_lubm_catalog.by_identifier()[identifier]
    assert_identical(
        sharded_with_delta, live_reference, query.sparql, query.requires_reasoning
    )


def test_sharded_compaction_changes_nothing(
    sharded_with_delta, live_reference, small_lubm_catalog
):
    reports = sharded_with_delta.compact()
    assert reports, "at least one shard had a pending delta"
    assert sharded_with_delta.compaction_epoch == len(reports)
    for identifier in ("S2", "S8", "M3", "R5", "A3"):
        query = small_lubm_catalog.by_identifier()[identifier]
        assert_identical(
            sharded_with_delta, live_reference, query.sparql, query.requires_reasoning
        )


# --------------------------------------------------------------------------- #
# facade behaviour
# --------------------------------------------------------------------------- #


def test_shards_partition_the_triples(sharded, small_lubm_store):
    assert sharded.triple_count == small_lubm_store.triple_count
    assert sum(shard.triple_count for shard in sharded.shards) == sharded.triple_count
    # Quantile partitioning keeps the shards within the same order of magnitude.
    sizes = sorted(shard.triple_count for shard in sharded.shards)
    assert sizes[0] > 0
    assert sizes[-1] < sharded.triple_count  # no shard holds everything


def test_match_enumeration_equals_monolithic(sharded, small_lubm_store):
    left = sorted(tuple(map(str, triple)) for triple in sharded.match())
    right = sorted(tuple(map(str, triple)) for triple in small_lubm_store.match())
    assert left == right


def test_shard_summary_reports_intervals(sharded):
    summary = sharded.shard_summary()
    assert len(summary) == SHARDS
    assert summary[0]["subjects"][0] == 0
    assert summary[-1]["subjects"][1] is None  # last interval is open


def test_immutable_sharded_store_rejects_writes(sharded):
    triple = Triple(URI("http://x.org/s"), URI("http://x.org/p"), URI("http://x.org/o"))
    with pytest.raises(TypeError):
        sharded.insert(triple)


def test_new_subjects_route_to_last_shard(small_lubm, small_lubm_store):
    store = ShardedStore.from_store(
        small_lubm_store, shards=SHARDS, updatable=True, ontology=small_lubm.ontology
    )
    reading = URI("http://serving.succinct-edge.example/reading/route-test")
    assert store.insert(Triple(reading, URI("http://x.org/value"), Literal(42)))
    last = store.shards[-1]
    assert isinstance(last, UpdatableSuccinctEdge)
    assert last.data_epoch == 1
    assert all(shard.data_epoch == 0 for shard in store.shards[:-1])
    # Visible through the facade, and deletable through the same routing.
    assert len(store.query("SELECT ?v WHERE { <%s> <http://x.org/value> ?v }" % reading)) == 1
    assert store.delete(Triple(reading, URI("http://x.org/value"), Literal(42)))
    assert store.data_epoch == 2


def test_delete_of_unknown_subject_is_a_noop(sharded_with_delta):
    before = sharded_with_delta.data_epoch
    assert not sharded_with_delta.delete(
        Triple(URI("http://nowhere.example/x"), URI("http://x.org/p"), URI("http://x.org/o"))
    )
    assert sharded_with_delta.data_epoch == before


def test_writes_after_compaction_stay_visible(small_lubm, small_lubm_store):
    # Regression: shard compaction swaps the shard's layout objects; the
    # facade's fan-out views must resolve them at access time, or every
    # post-compaction write becomes invisible to queries.
    store = ShardedStore.from_store(
        small_lubm_store, shards=SHARDS, updatable=True, ontology=small_lubm.ontology
    )
    value = URI("http://serving.succinct-edge.example/p")
    before = Triple(URI("http://serving.succinct-edge.example/pre"), value, Literal(1))
    after = Triple(URI("http://serving.succinct-edge.example/post"), value, Literal(2))
    assert store.insert(before)
    assert store.compact()
    assert store.insert(after)
    assert store.triple_count == small_lubm_store.triple_count + 2
    rows = store.query(
        "SELECT ?s ?v WHERE { ?s <http://serving.succinct-edge.example/p> ?v }",
        reasoning=False,
    )
    assert len(rows) == 2  # both the folded and the fresh write are served


def test_concurrent_writers_never_alias_fresh_terms(small_lubm, small_lubm_store):
    # The shards share one set of dictionaries; the facade's write lock must
    # serialize identifier assignment even when writers target different
    # shards concurrently.
    import threading

    store = ShardedStore.from_store(
        small_lubm_store, shards=SHARDS, updatable=True, ontology=small_lubm.ontology
    )
    predicate = URI("http://serving.succinct-edge.example/w")
    per_thread = 50
    threads = []

    def writer(tag: str) -> None:
        for index in range(per_thread):
            store.insert(
                Triple(
                    URI(f"http://serving.succinct-edge.example/{tag}/{index}"),
                    predicate,
                    URI(f"http://serving.succinct-edge.example/{tag}/v{index}"),
                )
            )

    for tag in ("a", "b", "c", "d"):
        threads.append(threading.Thread(target=writer, args=(tag,)))
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    assert store.data_epoch == 4 * per_thread
    rows = store.query(
        "SELECT ?s ?o WHERE { ?s <http://serving.succinct-edge.example/w> ?o }",
        reasoning=False,
    )
    # Every written subject resolves to its own value: aliased identifiers
    # would collapse rows or swap objects across writers.
    assert len(rows) == 4 * per_thread
    for subject, obj in rows.to_tuples():
        head, _, index = str(subject).rpartition("/")
        assert str(obj) == f"{head}/v{index}", (subject, obj)


def test_maybe_compact_counts_triggered_shards(small_lubm, small_lubm_store):
    from repro.store.delta import CompactionPolicy

    store = ShardedStore.from_store(
        small_lubm_store,
        shards=SHARDS,
        updatable=True,
        ontology=small_lubm.ontology,
        policy=CompactionPolicy(max_delta_operations=1, min_delta_operations=0),
    )
    assert store.maybe_compact() == 0  # no pending deltas anywhere
    store.insert(Triple(URI("http://x.org/new-subj"), URI("http://x.org/p"), Literal(1)))
    assert store.maybe_compact() == 1  # only the written shard triggered
    assert store.compaction_epoch == 1


@pytest.mark.parametrize("published", [False, True], ids=["no-directory", "published"])
def test_write_log_stays_bounded(small_lubm, small_lubm_store, tmp_path, published):
    # 2 000 writes with a compaction every 250: each shard compaction replaces
    # part of the log's base, so the log restarts instead of growing one entry
    # per write forever — and with no image directory it records nothing.
    from repro.store.shipping import Publisher

    store = ShardedStore.from_store(
        small_lubm_store, shards=2, updatable=True, ontology=small_lubm.ontology
    )
    publisher = Publisher(store, workspace=str(tmp_path)) if published else None
    predicate = URI("http://serving.succinct-edge.example/bounded")
    longest = 0
    for index in range(2000):
        if publisher is not None and index % 50 == 0:
            publisher.position()  # a follower asking: re-publishes after each compaction
        assert store.insert(
            Triple(URI(f"http://serving.succinct-edge.example/s{index}"), predicate, Literal(index))
        )
        longest = max(longest, len(store.log))
        if index % 250 == 249:
            assert store.compact()
    assert longest <= (250 if published else 0)
    if published:
        assert store.log.generation > 8  # restarted at every compaction and every save
        assert os.path.basename(store.image_directory) == f"shards-g{store.log.generation}"
