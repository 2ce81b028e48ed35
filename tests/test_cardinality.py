"""Tests for the join-aware statistics layer and the cardinality estimator.

Covers the build-time profiling pass (per-property distinct counts,
characteristic sets), the incremental maintenance hooks driven by delta
writes, the cached fully-unbound fallback (its invalidation rides the same
version counter), and the chained-selectivity estimates of
:class:`~repro.query.cardinality.CardinalityEstimator`.
"""

from __future__ import annotations

import pytest

from repro.dictionary.statistics import profile_triples
from repro.query.cardinality import CardinalityEstimator
from repro.rdf.namespaces import Namespace
from repro.rdf.terms import Literal, Triple, URI
from repro.sparql.parser import parse_query
from repro.store.succinct_edge import SuccinctEdge
from repro.store.updatable import UpdatableSuccinctEdge
from tests.conftest import build_toy_data, build_toy_ontology

EX = Namespace("http://example.org/")


def patterns_of(query_text: str):
    return list(parse_query(query_text).triple_patterns)


@pytest.fixture()
def live_toy_store() -> UpdatableSuccinctEdge:
    """A writable toy store with *fresh* dictionaries and statistics.

    The session-scoped ``toy_store`` fixture shares its statistics across
    the whole suite; the write-path tests here need their own copy.
    """
    base = SuccinctEdge.from_graph(build_toy_data(), ontology=build_toy_ontology())
    return UpdatableSuccinctEdge(base)


class TestProfileTriples:
    def test_counts_and_distincts(self):
        object_triples = [(7, 1, 2), (7, 1, 3), (7, 2, 3)]
        datatype_triples = [(9, 1, Literal("a")), (9, 2, Literal("a"))]
        profiles, char_sets = profile_triples(object_triples, datatype_triples, [])
        assert profiles[7].triples == 3
        assert profiles[7].distinct_subjects == 2
        assert profiles[7].distinct_objects == 2
        assert profiles[9].triples == 2
        assert profiles[9].distinct_subjects == 2
        assert profiles[9].distinct_objects == 1
        # Subjects 1 and 2 share the same {7, 9} signature.
        signature = frozenset({("p", 7), ("p", 9)})
        assert char_sets[signature].count == 2
        assert char_sets[signature].triples[("p", 7)] == 3

    def test_type_markers(self):
        profiles, char_sets = profile_triples([(7, 1, 2)], [], [(1, 42)])
        assert ("t", 42) in char_sets[frozenset({("p", 7), ("t", 42)})].triples
        assert 42 not in profiles  # concepts do not get property profiles


class TestBuilderProfiles:
    def test_store_built_from_graph_carries_profiles(self, toy_store):
        statistics = toy_store.statistics
        assert statistics.has_profiles
        member_of = statistics.properties.try_locate(EX.memberOf)
        profile = statistics.property_profile(member_of)
        assert profile is not None and profile.triples > 0
        assert profile.distinct_subjects <= profile.triples

    def test_star_cardinality_supersets(self, toy_store):
        statistics = toy_store.statistics
        member_of = statistics.properties.try_locate(EX.memberOf)
        name = statistics.properties.try_locate(EX.name)
        answer = statistics.star_cardinality([("p", member_of), ("p", name)])
        assert answer is not None
        subjects, rows = answer
        assert subjects >= 1
        assert rows >= subjects  # each qualifying subject yields >= 1 row


class TestIncrementalMaintenance:
    def test_insert_updates_profile_and_version(self, live_toy_store):
        live = live_toy_store
        statistics = live.statistics
        member_of = statistics.properties.try_locate(EX.memberOf)
        before = statistics.property_profile(member_of).triples
        version = statistics.version
        assert live.insert(Triple(EX.newbie, EX.memberOf, EX.dept1))
        assert statistics.property_profile(member_of).triples == before + 1
        assert statistics.version > version

    def test_delete_decrements(self, live_toy_store):
        live = live_toy_store
        statistics = live.statistics
        member_of = statistics.properties.try_locate(EX.memberOf)
        assert live.insert(Triple(EX.newbie, EX.memberOf, EX.dept1))
        count = statistics.property_profile(member_of).triples
        assert live.delete(Triple(EX.newbie, EX.memberOf, EX.dept1))
        assert statistics.property_profile(member_of).triples == count - 1

    def test_live_born_property_profile(self, live_toy_store):
        live = live_toy_store
        statistics = live.statistics
        assert live.insert(Triple(EX.a, EX.neverSeenBefore, EX.b))
        property_id = statistics.properties.try_locate(EX.neverSeenBefore)
        profile = statistics.property_profile(property_id)
        assert profile.triples == 1
        assert profile.build_triples == 0
        # Every triple of a live-born property may carry a fresh subject.
        assert profile.current_distinct_subjects() == 1

    def test_scaled_distincts_grow_with_delta(self, live_toy_store):
        live = live_toy_store
        statistics = live.statistics
        member_of = statistics.properties.try_locate(EX.memberOf)
        profile = statistics.property_profile(member_of)
        build_distinct = profile.current_distinct_subjects()
        for index in range(profile.build_triples * 2):
            assert live.insert(
                Triple(URI(f"http://example.org/fresh{index}"), EX.memberOf, EX.dept1)
            )
        assert profile.current_distinct_subjects() > build_distinct


class TestUnboundFallbackCache:
    def test_cached_and_invalidated_on_write(self, live_toy_store):
        live = live_toy_store
        statistics = live.statistics
        first = statistics.total_triple_mass()
        # Second call is served from the version-keyed cache.
        assert statistics._unbound_mass_cache is not None
        assert statistics.total_triple_mass() == first
        assert live.insert(Triple(EX.x1, EX.memberOf, EX.dept1))
        assert statistics._unbound_mass_cache is None  # write invalidated it
        after = statistics.total_triple_mass()
        assert after == first + 1


class TestCardinalityEstimator:
    def test_scan_estimate_matches_profile(self, toy_store):
        estimator = CardinalityEstimator(toy_store.statistics, reasoning=False)
        [pattern] = patterns_of(
            "SELECT * WHERE { ?s <http://example.org/memberOf> ?o }"
        )
        estimate = estimator.estimate_pattern(pattern)
        member_of = toy_store.statistics.properties.try_locate(EX.memberOf)
        assert estimate.rows == toy_store.statistics.property_profile(member_of).triples

    def test_bound_subject_divides_by_distinct_subjects(self, toy_store):
        estimator = CardinalityEstimator(toy_store.statistics, reasoning=False)
        scan, probe = patterns_of(
            "SELECT * WHERE { ?s <http://example.org/memberOf> ?o . "
            "<http://example.org/alice> <http://example.org/memberOf> ?o2 }"
        )
        scan_estimate = estimator.estimate_pattern(scan)
        probe_estimate = estimator.estimate_pattern(probe)
        assert 0 < probe_estimate.rows <= scan_estimate.rows

    def test_unknown_uri_constant_estimates_zero(self, toy_store):
        estimator = CardinalityEstimator(toy_store.statistics, reasoning=False)
        [pattern] = patterns_of(
            "SELECT * WHERE { ?s <http://example.org/memberOf> <http://example.org/nowhere> }"
        )
        assert estimator.estimate_pattern(pattern).rows == 0.0

    def test_join_chains_selectivity(self, toy_store):
        estimator = CardinalityEstimator(toy_store.statistics, reasoning=True)
        first, second = patterns_of(
            "SELECT * WHERE { ?x <http://example.org/memberOf> ?d . "
            "?x <http://example.org/name> ?n }"
        )
        state = estimator.initial_state(first)
        joined, shared = estimator.join(state, second)
        assert shared == ["x"]
        # The chained estimate stays below the cross product.
        cross = state.rows * estimator.estimate_pattern(second).rows
        assert joined.rows <= cross

    def test_type_anchored_star_uses_characteristic_sets(self, toy_store):
        # The canonical star: a bound-concept rdf:type pattern anchors the
        # characteristic-set estimate (its ("t", concept) marker encodes the
        # constant exactly).
        estimator = CardinalityEstimator(toy_store.statistics, reasoning=False)
        type_p, name_p = patterns_of(
            "SELECT * WHERE { ?x a <http://example.org/FullProfessor> . "
            "?x <http://example.org/name> ?n }"
        )
        assert estimator.estimate_pattern(type_p).marker is not None
        answer = estimator.star_answer("x", [type_p, name_p])
        assert answer is not None
        subjects, rows = answer
        assert subjects == 1.0  # exactly bob is a FullProfessor with a name
        assert rows == 1.0

    def test_repeated_predicate_star_is_rejected(self, toy_store):
        estimator = CardinalityEstimator(toy_store.statistics, reasoning=False)
        p1, p2 = patterns_of(
            "SELECT * WHERE { ?s <http://example.org/advisor> ?a . "
            "?s <http://example.org/advisor> ?b }"
        )
        # The set summary would deduplicate the repeated marker and
        # underestimate; the estimator must decline instead.
        assert estimator.star_answer("s", [p1, p2]) is None

    def test_cartesian_join_multiplies(self, toy_store):
        estimator = CardinalityEstimator(toy_store.statistics, reasoning=True)
        first, second = patterns_of(
            "SELECT * WHERE { ?x <http://example.org/memberOf> ?d . "
            "?y <http://example.org/name> ?n }"
        )
        state = estimator.initial_state(first)
        joined, shared = estimator.join(state, second)
        assert shared == []
        assert joined.rows == state.rows * estimator.estimate_pattern(second).rows

    def test_without_statistics_falls_back(self):
        estimator = CardinalityEstimator(None)
        [pattern] = patterns_of("SELECT * WHERE { ?s <http://example.org/p> ?o }")
        assert estimator.estimate_pattern(pattern).rows > 0

    def test_estimates_invalidate_on_write(self, live_toy_store):
        live = live_toy_store
        estimator = CardinalityEstimator(live.statistics, reasoning=False)
        [pattern] = patterns_of(
            "SELECT * WHERE { ?s <http://example.org/memberOf> ?o }"
        )
        before = estimator.estimate_pattern(pattern).rows
        assert live.insert(Triple(EX.someone, EX.memberOf, EX.dept1))
        assert estimator.estimate_pattern(pattern).rows == before + 1
