"""Unit tests for the delta overlay write path (store/delta.py + updatable.py).

The differential suite (`tests/test_live_updates_differential.py`) checks
result equivalence against from-scratch rebuilds at LUBM scale; here the
mechanics are exercised on small, hand-checkable graphs: visibility rules,
tombstone semantics, exact counts, overflow dictionaries, compaction and the
epoch accounting.
"""

from __future__ import annotations

import pytest

from repro.rdf.graph import Graph
from repro.rdf.namespaces import RDF, RDFS, Namespace
from repro.rdf.terms import Literal, Triple
from repro.store.delta import CompactionPolicy, MANUAL_COMPACTION
from repro.store.succinct_edge import SuccinctEdge
from repro.store.updatable import UpdatableSuccinctEdge

EX = Namespace("http://example.org/")


def build_graph() -> Graph:
    graph = Graph()
    triples = [
        (EX.alice, RDF.type, EX.Person),
        (EX.bob, RDF.type, EX.Person),
        (EX.alice, EX.knows, EX.bob),
        (EX.bob, EX.knows, EX.carol),
        (EX.alice, EX.name, Literal("Alice")),
        (EX.alice, EX.age, Literal(27)),
    ]
    for subject, predicate, obj in triples:
        graph.add(Triple(subject, predicate, obj))
    return graph


def build_ontology() -> Graph:
    ontology = Graph()
    ontology.add(Triple(EX.Student, RDFS.subClassOf, EX.Person))
    return ontology


@pytest.fixture()
def store() -> UpdatableSuccinctEdge:
    return UpdatableSuccinctEdge.from_graph(build_graph(), ontology=build_ontology())


class TestInsertVisibility:
    def test_insert_is_immediately_queryable(self, store):
        assert store.insert(Triple(EX.carol, EX.knows, EX.alice))
        result = store.query("SELECT ?w WHERE { <http://example.org/carol> <http://example.org/knows> ?w }")
        assert [str(row["w"]) for row in result] == [str(EX.alice)]

    def test_insert_is_visible_to_match(self, store):
        triple = Triple(EX.carol, EX.knows, EX.alice)
        assert list(store.match(EX.carol, EX.knows, None)) == []
        store.insert(triple)
        assert list(store.match(EX.carol, EX.knows, None)) == [triple]

    def test_duplicate_insert_is_noop(self, store):
        triple = Triple(EX.alice, EX.knows, EX.bob)  # already in the base
        before = store.snapshot_info()
        assert not store.insert(triple)
        assert store.snapshot_info() == before

    def test_insert_counts_are_exact(self, store):
        base = store.triple_count
        store.insert(Triple(EX.carol, EX.knows, EX.alice))
        store.insert(Triple(EX.carol, EX.name, Literal("Carol")))
        store.insert(Triple(EX.carol, RDF.type, EX.Person))
        assert store.triple_count == base + 3
        assert len(store.object_store) == 3
        assert len(store.datatype_store) == 3
        assert len(store.type_store) == 3

    def test_rdf_type_insert_with_literal_object_is_skipped(self, store):
        skipped = store.skipped_triples
        assert not store.insert(Triple(EX.carol, RDF.type, Literal("Person")))
        assert store.skipped_triples == skipped + 1

    def test_schema_axiom_insert_is_skipped(self, store):
        skipped = store.skipped_triples
        assert not store.insert(Triple(EX.Robot, RDFS.subClassOf, EX.Person))
        assert store.skipped_triples == skipped + 1

    def test_data_epoch_counts_applied_writes(self, store):
        assert store.snapshot_epoch == (0, 0)
        store.insert(Triple(EX.carol, EX.knows, EX.alice))
        store.insert(Triple(EX.alice, EX.knows, EX.bob))  # no-op
        store.delete(Triple(EX.carol, EX.knows, EX.alice))
        assert store.snapshot_epoch == (0, 2)


class TestTombstones:
    def test_delete_base_triple_records_tombstone(self, store):
        triple = Triple(EX.alice, EX.knows, EX.bob)
        assert store.delete(triple)
        assert store.snapshot_info()["delta_tombstones"] == 1
        assert list(store.match(EX.alice, EX.knows, None)) == []
        assert not store.delete(triple)  # already gone

    def test_delete_pending_insert_drops_it(self, store):
        triple = Triple(EX.carol, EX.knows, EX.alice)
        store.insert(triple)
        assert store.delete(triple)
        info = store.snapshot_info()
        assert info["delta_inserts"] == 0
        assert info["delta_tombstones"] == 0

    def test_delete_unknown_triple_is_noop(self, store):
        assert not store.delete(Triple(EX.zoe, EX.knows, EX.alice))
        assert not store.delete(Triple(EX.zoe, RDF.type, EX.Person))
        assert not store.delete(Triple(EX.zoe, EX.name, Literal("Zoe")))

    def test_reinsert_after_delete_restores_visibility(self, store):
        triple = Triple(EX.alice, EX.knows, EX.bob)
        store.delete(triple)
        assert store.insert(triple)
        assert store.snapshot_info()["delta_tombstones"] == 0
        assert list(store.match(EX.alice, EX.knows, None)) == [triple]

    def test_datatype_delete_and_literal_order(self, store):
        store.insert(Triple(EX.alice, EX.name, Literal("Alicia")))
        literals = [str(t.object) for t in store.match(EX.alice, EX.name, None)]
        assert literals == ["Alice", "Alicia"]  # base first, delta in insert order
        store.delete(Triple(EX.alice, EX.name, Literal("Alice")))
        literals = [str(t.object) for t in store.match(EX.alice, EX.name, None)]
        assert literals == ["Alicia"]

    def test_property_disappears_when_fully_tombstoned(self, store):
        store.delete(Triple(EX.alice, EX.age, Literal(27)))
        age_id = store.properties.locate(EX.age)
        assert not store.datatype_store.has_property(age_id)
        assert age_id not in store.datatype_store.properties
        assert store.datatype_store.count_triples_with_property(age_id) == 0

    def test_type_store_interval_counts_respect_tombstones(self, store):
        low, high = store.concepts.interval(EX.Person)
        before = store.type_store.count_concept_interval(low, high)
        store.delete(Triple(EX.alice, RDF.type, EX.Person))
        assert store.type_store.count_concept_interval(low, high) == before - 1
        subjects = store.type_store.subjects_of_interval(low, high)
        assert store.instances.locate(EX.alice) not in subjects


class TestOverflowDictionaries:
    def test_new_property_gets_overflow_identifier(self, store):
        store.insert(Triple(EX.alice, EX.likes, EX.carol))
        assert store.properties.is_overflow(EX.likes)
        identifier = store.properties.locate(EX.likes)
        low, high = store.properties.interval(EX.likes)
        assert (low, high) == (identifier, identifier + 1)
        # Overflow identifiers live strictly above the LiteMat space.
        assert identifier >= 1 << store.properties.encoding.total_length

    def test_new_concept_is_queryable_with_reasoning(self, store):
        store.insert(Triple(EX.r2d2, RDF.type, EX.Robot))
        assert store.concepts.is_overflow(EX.Robot)
        result = store.query("SELECT ?s WHERE { ?s a <http://example.org/Robot> }")
        assert [str(row["s"]) for row in result] == [str(EX.r2d2)]

    def test_reasoning_still_covers_encoded_hierarchy(self, store):
        # Student is declared in the ontology: a live insert of a Student
        # must surface through the Person interval.
        store.insert(Triple(EX.dora, RDF.type, EX.Student))
        result = store.query("SELECT ?s WHERE { ?s a <http://example.org/Person> }")
        assert str(EX.dora) in {str(row["s"]) for row in result}

    def test_compaction_merges_overflow_terms(self, store):
        store.insert(Triple(EX.alice, EX.likes, EX.carol))
        store.insert(Triple(EX.r2d2, RDF.type, EX.Robot))
        assert store.properties.overflow_count == 1
        assert store.concepts.overflow_count == 1
        report = store.compact()
        assert report.overflow_terms_merged == 2
        assert store.properties.overflow_count == 0
        assert store.properties.merged_overflow_count == 1
        # Identifiers and intervals survive the merge unchanged.
        identifier = store.properties.locate(EX.likes)
        assert store.properties.interval(EX.likes) == (identifier, identifier + 1)


class TestPropertyIntervalMemo:
    def test_overlay_finds_a_sub_property_inserted_after_the_base_probe(self):
        # The base layout memoises its LiteMat interval probes; the overlay
        # must still add sub-properties that only the delta holds.
        graph = Graph()
        graph.add(Triple(EX.alice, EX.memberOf, EX.dept1))
        ontology = Graph()
        ontology.add(Triple(EX.worksFor, RDFS.subPropertyOf, EX.memberOf))
        live = SuccinctEdge.from_graph(graph, ontology=ontology).updatable()
        query = "SELECT ?x WHERE { ?x <http://example.org/memberOf> ?d }"
        assert {str(row["x"]) for row in live.query(query)} == {str(EX.alice)}
        assert live.base.object_store._property_interval_cache  # probed and cached
        live.insert(Triple(EX.zed, EX.worksFor, EX.dept1))
        assert {str(row["x"]) for row in live.query(query)} == {str(EX.alice), str(EX.zed)}


class TestCompaction:
    def test_compact_folds_delta_and_preserves_results(self, store):
        store.insert(Triple(EX.carol, EX.knows, EX.alice))
        store.insert(Triple(EX.carol, EX.name, Literal("Carol")))
        store.delete(Triple(EX.alice, EX.knows, EX.bob))
        query = "SELECT ?s ?o WHERE { ?s <http://example.org/knows> ?o }"
        before = store.query(query).to_tuples()
        report = store.compact()
        assert report.operations_folded == 3
        assert store.delta_operation_count == 0
        assert store.base_triple_count == store.triple_count
        assert store.query(query).to_tuples() == before

    def test_compact_epoch_increments(self, store):
        store.insert(Triple(EX.carol, EX.knows, EX.alice))
        assert store.compaction_epoch == 0
        store.compact()
        assert store.compaction_epoch == 1
        store.compact()
        assert store.compaction_epoch == 2

    def test_maybe_compact_absolute_threshold(self):
        policy = CompactionPolicy(max_delta_operations=2, max_delta_ratio=None)
        store = UpdatableSuccinctEdge.from_graph(build_graph(), policy=policy)
        store.insert(Triple(EX.carol, EX.knows, EX.alice))
        assert not store.maybe_compact()
        store.insert(Triple(EX.carol, EX.knows, EX.bob))
        assert store.maybe_compact()
        assert store.delta_operation_count == 0

    def test_maybe_compact_ratio_threshold(self):
        policy = CompactionPolicy(
            max_delta_operations=None, max_delta_ratio=0.5, min_delta_operations=1
        )
        store = UpdatableSuccinctEdge.from_graph(build_graph(), policy=policy)
        store.insert(Triple(EX.carol, EX.knows, EX.alice))  # 1/6 < 0.5
        assert not store.maybe_compact()
        for index in range(3):  # 4/6 >= 0.5
            store.insert(Triple(EX.carol, EX.knows, Namespace("http://example.org/")[f"p{index}"]))
        assert store.maybe_compact()

    def test_manual_policy_never_triggers(self):
        store = UpdatableSuccinctEdge.from_graph(build_graph(), policy=MANUAL_COMPACTION)
        for index in range(50):
            store.insert(Triple(EX.carol, EX.knows, EX[f"friend{index}"]))
        assert not store.maybe_compact()

    def test_background_compaction_with_concurrent_insert(self, store):
        store.insert(Triple(EX.carol, EX.knows, EX.alice))
        thread = store.compact_in_background()
        # This write races the build; the replay protocol must keep it
        # visible whether it lands before or after the swap.
        store.insert(Triple(EX.dave, EX.knows, EX.carol))
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert store.compaction_epoch == 1
        assert list(store.match(EX.dave, EX.knows, None)) == [Triple(EX.dave, EX.knows, EX.carol)]
        assert list(store.match(EX.carol, EX.knows, None)) == [Triple(EX.carol, EX.knows, EX.alice)]

    def test_export_graph_reflects_merged_view(self, store):
        store.insert(Triple(EX.carol, EX.knows, EX.alice))
        store.delete(Triple(EX.alice, EX.knows, EX.bob))
        exported = store.export_graph()
        assert Triple(EX.carol, EX.knows, EX.alice) in exported
        assert Triple(EX.alice, EX.knows, EX.bob) not in exported
        assert len(exported) == store.triple_count

    def test_rebuild_reencodes_overflow_terms(self, store):
        store.insert(Triple(EX.r2d2, RDF.type, EX.Robot))
        rebuilt = store.rebuild(ontology=build_ontology())
        assert not rebuilt.concepts.is_overflow(EX.Robot)
        result = rebuilt.query("SELECT ?s WHERE { ?s a <http://example.org/Robot> }")
        assert [str(row["s"]) for row in result] == [str(EX.r2d2)]


class TestStatisticsMaintenance:
    def test_occurrences_match_a_rebuild(self, store):
        inserts = [
            Triple(EX.carol, EX.knows, EX.alice),
            Triple(EX.carol, EX.name, Literal("Carol")),
            Triple(EX.carol, RDF.type, EX.Person),
        ]
        for triple in inserts:
            store.insert(triple)
        store.delete(Triple(EX.alice, EX.age, Literal(27)))

        rebuilt = SuccinctEdge.from_graph(store.export_graph(), ontology=build_ontology())
        for prop in (EX.knows, EX.name, EX.age):
            assert store.properties.occurrences_of_term(prop) == (
                rebuilt.properties.occurrences_of_term(prop)
            )
        assert store.concepts.occurrences_of_term(EX.Person) == (
            rebuilt.concepts.occurrences_of_term(EX.Person)
        )
        for term in (EX.alice, EX.bob, EX.carol):
            assert store.instances.occurrences_of_term(term) == (
                rebuilt.instances.occurrences_of_term(term)
            )


class TestImmutableFacade:
    def test_immutable_store_rejects_writes(self):
        frozen = SuccinctEdge.from_graph(build_graph())
        with pytest.raises(TypeError, match="immutable"):
            frozen.insert(Triple(EX.carol, EX.knows, EX.alice))
        with pytest.raises(TypeError, match="immutable"):
            frozen.delete(Triple(EX.alice, EX.knows, EX.bob))
        with pytest.raises(TypeError, match="immutable"):
            frozen.compact()
        assert frozen.snapshot_epoch == (0, 0)

    def test_updatable_view_shares_dictionaries(self):
        frozen = SuccinctEdge.from_graph(build_graph())
        live = frozen.updatable()
        assert isinstance(live, UpdatableSuccinctEdge)
        assert live.instances is frozen.instances
        live.insert(Triple(EX.carol, EX.knows, EX.alice))
        assert live.triple_count == frozen.triple_count + 1
        # The underlying frozen store is untouched.
        assert list(frozen.match(EX.carol, EX.knows, None)) == []

    def test_empty_store_grows_from_nothing(self):
        live = UpdatableSuccinctEdge.empty(ontology=build_ontology())
        assert live.triple_count == 0
        live.insert(Triple(EX.dora, RDF.type, EX.Student))
        result = live.query("SELECT ?s WHERE { ?s a <http://example.org/Person> }")
        assert [str(row["s"]) for row in result] == [str(EX.dora)]


class TestConcurrencyGuards:
    """Regression tests: overlapping compactions and result-list aliasing."""

    def test_overlapping_background_compactions_do_not_lose_writes(self, store):
        import threading

        release = threading.Event()
        original = store._build_base

        def slow_build(snapshot):
            assert release.wait(timeout=30)
            return original(snapshot)

        store._build_base = slow_build
        store.insert(Triple(EX.carol, EX.knows, EX.alice))
        first = store.compact_in_background()
        # Writes that race the build...
        store.insert(Triple(EX.dave, EX.knows, EX.carol))
        # ...must not be clobbered by a second, overlapping trigger: the
        # in-flight thread is returned instead of a new one.
        second = store.compact_in_background()
        assert second is first
        # Policy checks report False rather than re-triggering while in flight.
        tight = CompactionPolicy(max_delta_operations=1, max_delta_ratio=None)
        store.policy = tight
        assert not store.maybe_compact(background=True)
        store.insert(Triple(EX.erin, EX.knows, EX.dave))
        release.set()
        first.join(timeout=30)
        assert not first.is_alive()
        assert store.compaction_epoch == 1
        for subject, obj in ((EX.carol, EX.alice), (EX.dave, EX.carol), (EX.erin, EX.dave)):
            assert list(store.match(subject, EX.knows, None)) == [Triple(subject, EX.knows, obj)]

    def test_sync_compact_waits_for_background_compaction(self, store):
        import threading

        release = threading.Event()
        original = store._build_base
        calls = []

        def slow_build(snapshot):
            calls.append(len(calls))
            if len(calls) == 1:
                assert release.wait(timeout=30)
            return original(snapshot)

        store._build_base = slow_build
        store.insert(Triple(EX.carol, EX.knows, EX.alice))
        store.compact_in_background()
        store.insert(Triple(EX.dave, EX.knows, EX.carol))
        releaser = threading.Timer(0.05, release.set)
        releaser.start()
        store.compact()  # must wait for the in-flight swap, then run its own
        assert store.compaction_epoch == 2
        assert store.delta_operation_count == 0
        assert list(store.match(EX.dave, EX.knows, None)) == [Triple(EX.dave, EX.knows, EX.carol)]

    def test_returned_result_lists_are_snapshots(self, store):
        store.insert(Triple(EX.carol, EX.knows, EX.alice))
        knows = store.properties.locate(EX.knows)
        alice = store.instances.locate(EX.alice)
        carol = store.instances.locate(EX.carol)
        subjects = store.object_store.subjects_for(knows, alice)
        assert subjects == [carol]
        snapshot = list(subjects)
        store.insert(Triple(EX.dave, EX.knows, EX.alice))
        assert subjects == snapshot  # a later write must not reshuffle it

    def test_streaming_pair_scan_survives_interleaved_writes(self, store):
        store.insert(Triple(EX.carol, EX.knows, EX.alice))
        knows = store.properties.locate(EX.knows)
        pairs = store.object_store.pairs_for_property(knows)
        first = next(pairs)
        store.insert(Triple(EX.erin, EX.knows, EX.dave))  # races the scan
        remainder = list(pairs)
        seen = [first] + remainder
        assert len(seen) == len(set(seen))  # no duplicates, no crash

    def test_racing_writes_are_replayed_before_the_swap(self, store):
        import threading

        release = threading.Event()
        original_build = store._build_base
        original_install = store._install
        observed = {}

        def slow_build(snapshot):
            assert release.wait(timeout=30)
            return original_build(snapshot)

        def spying_install(new_base, snapshot, started, staged=None):
            # The staged delta must already hold the racing write when the
            # swap publishes it — readers never see it missing.
            observed["staged_inserts"] = None if staged is None else staged.delta.insert_count
            return original_install(new_base, snapshot, started, staged=staged)

        store._build_base = slow_build
        store._install = spying_install
        store.insert(Triple(EX.carol, EX.knows, EX.alice))
        thread = store.compact_in_background()
        store.insert(Triple(EX.dave, EX.knows, EX.carol))  # races the build
        release.set()
        thread.join(timeout=30)
        assert observed["staged_inserts"] == 1
        assert list(store.match(EX.dave, EX.knows, None)) == [Triple(EX.dave, EX.knows, EX.carol)]


class TestRebuildAndRetention:
    def test_rebuild_keeps_the_construction_ontology(self, store):
        store.insert(Triple(EX.dora, RDF.type, EX.Student))
        rebuilt = store.rebuild()  # no explicit ontology: must reuse the stored one
        result = rebuilt.query("SELECT ?s WHERE { ?s a <http://example.org/Person> }")
        assert str(EX.dora) in {str(row["s"]) for row in result}
        assert rebuilt.schema.is_subconcept_of(EX.Student, EX.Person)

    def test_unbounded_live_stream_skips_window_bookkeeping(self):
        from repro.edge.stream import LiveStreamProcessor

        processor = LiveStreamProcessor(ontology=build_ontology(), rules=[])
        for index in range(3):
            graph = Graph()
            graph.add(Triple(EX[f"s{index}"], EX.knows, EX[f"o{index}"]))
            processor.process_instance(graph)
        # Without a retention bound, neither the window nor the refcounts
        # accumulate — memory stays bounded by the store itself.
        assert len(processor._window) == 0
        assert len(processor._reference_counts) == 0
        assert processor.statistics.triples_evicted == 0
        assert processor.store.triple_count == 3


class TestRound3Regressions:
    """Review follow-ups: ontology forwarding, overflow persistence, charging."""

    def test_updatable_view_forwards_ontology_to_rebuild(self):
        frozen = SuccinctEdge.from_graph(build_graph(), ontology=build_ontology())
        live = frozen.updatable(ontology=build_ontology())
        live.insert(Triple(EX.dora, RDF.type, EX.Student))
        rebuilt = live.rebuild()
        result = rebuilt.query("SELECT ?s WHERE { ?s a <http://example.org/Person> }")
        assert str(EX.dora) in {str(row["s"]) for row in result}

    def test_overflow_terms_survive_persistence(self, store, tmp_path):
        store.insert(Triple(EX.alice, EX.likes, EX.carol))       # overflow property
        store.insert(Triple(EX.r2d2, RDF.type, EX.Robot))        # overflow concept
        store.compact()  # merges overflow; identifiers must still round-trip
        store.insert(Triple(EX.bob, EX.dislikes, EX.carol))      # pending overflow
        path = str(tmp_path / "store.sedg")
        store.save_image(path)
        assert store.delta_operation_count == 1  # saving does not compact
        loaded = SuccinctEdge.load(path)
        left = sorted(tuple(map(str, t)) for t in store.match())
        right = sorted(tuple(map(str, t)) for t in loaded.match())
        assert left == right
        result = loaded.query("SELECT ?s WHERE { ?s a <http://example.org/Robot> }")
        assert [str(row["s"]) for row in result] == [str(EX.r2d2)]
        result = loaded.query("SELECT ?o WHERE { ?s <http://example.org/dislikes> ?o }")
        assert [str(row["o"]) for row in result] == [str(EX.carol)]

    def test_transmission_charged_per_instance_not_cumulative(self):
        from repro.edge.alerts import AnomalyRule
        from repro.edge.device import EdgeDevice
        from repro.edge.stream import LiveStreamProcessor

        rule = AnomalyRule(
            name="any-person",
            query="SELECT ?s WHERE { ?s a <http://example.org/Person> }",
        )
        device = EdgeDevice()
        processor = LiveStreamProcessor(ontology=build_ontology(), rules=[rule], device=device)
        graph = Graph()
        graph.add(Triple(EX.alice, RDF.type, EX.Person))
        processor.process_instance(graph)
        first = device.bytes_sent
        assert first > 0
        # The same single alert re-fires each instance; the per-instance
        # charge must stay flat instead of growing with the sink's history.
        processor.process_instance(Graph())
        second = device.bytes_sent - first
        processor.process_instance(Graph())
        third = device.bytes_sent - first - second
        assert first == second == third
