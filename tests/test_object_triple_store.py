"""Tests for the PSO id-array/bitmap object-triple store."""

from __future__ import annotations


from hypothesis import given, settings
from hypothesis import strategies as st

from repro.store.triple_store import ObjectTripleStore

TRIPLES = [
    # (property, subject, object), deliberately unsorted with duplicates.
    (3, 10, 20),
    (3, 10, 21),
    (3, 11, 20),
    (5, 10, 22),
    (5, 12, 20),
    (5, 12, 23),
    (5, 12, 23),  # duplicate
    (7, 13, 24),
]


class TestConstruction:
    def test_duplicates_removed(self):
        store = ObjectTripleStore(TRIPLES)
        assert len(store) == 7

    def test_empty_store(self):
        store = ObjectTripleStore([])
        assert len(store) == 0
        assert store.properties == []
        assert store.objects_for(1, 1) == []
        assert store.subjects_for(1, 1) == []
        assert list(store.iter_triples()) == []
        assert store.count_triples_with_property(1) == 0

    def test_properties_sorted_and_distinct(self):
        store = ObjectTripleStore(TRIPLES)
        assert store.properties == [3, 5, 7]
        assert store.has_property(5)
        assert not store.has_property(4)

    def test_iter_triples_in_pso_order(self):
        store = ObjectTripleStore(TRIPLES)
        assert list(store.iter_triples()) == sorted(set(TRIPLES))


class TestAlgorithm2Counting:
    def test_count_triples_per_property(self):
        store = ObjectTripleStore(TRIPLES)
        assert store.count_triples_with_property(3) == 3
        assert store.count_triples_with_property(5) == 3
        assert store.count_triples_with_property(7) == 1
        assert store.count_triples_with_property(99) == 0

    def test_count_subjects_per_property(self):
        store = ObjectTripleStore(TRIPLES)
        assert store.count_subjects_with_property(3) == 2
        assert store.count_subjects_with_property(5) == 2
        assert store.count_subjects_with_property(7) == 1


class TestAlgorithm3And4:
    def test_objects_for_subject_property(self):
        store = ObjectTripleStore(TRIPLES)
        assert store.objects_for(10, 3) == [20, 21]
        assert store.objects_for(12, 5) == [20, 23]
        assert store.objects_for(10, 5) == [22]
        assert store.objects_for(99, 3) == []
        assert store.objects_for(10, 99) == []

    def test_subjects_for_property_object(self):
        store = ObjectTripleStore(TRIPLES)
        assert store.subjects_for(3, 20) == [10, 11]
        assert store.subjects_for(5, 23) == [12]
        assert store.subjects_for(5, 99) == []
        assert store.subjects_for(99, 20) == []

    def test_pairs_for_property(self):
        store = ObjectTripleStore(TRIPLES)
        assert list(store.pairs_for_property(3)) == [(10, 20), (10, 21), (11, 20)]
        assert list(store.pairs_for_property(99)) == []

    def test_contains(self):
        store = ObjectTripleStore(TRIPLES)
        assert store.contains(10, 3, 21)
        assert not store.contains(10, 3, 23)

    def test_last_property_run_uses_sentinel(self):
        # The last property's run must be correctly delimited by the trailing
        # sentinel bit rather than running off the end of the bitmap.
        store = ObjectTripleStore(TRIPLES)
        assert store.objects_for(13, 7) == [24]
        assert store.subjects_for(7, 24) == [13]


class TestPropertyIntervalAccess:
    def test_interval_enumerates_matching_properties_only(self):
        store = ObjectTripleStore(TRIPLES)
        result = list(store.pairs_for_property_interval(3, 6))
        expected = sorted((p, s, o) for p, s, o in set(TRIPLES) if 3 <= p < 6)
        assert result == expected

    def test_interval_with_no_match(self):
        store = ObjectTripleStore(TRIPLES)
        assert list(store.pairs_for_property_interval(100, 200)) == []


class TestSizeAccounting:
    def test_size_positive_and_grows(self):
        small = ObjectTripleStore(TRIPLES)
        large = ObjectTripleStore([(p, s + i, o + i) for i in range(50) for p, s, o in TRIPLES])
        assert small.size_in_bytes() > 0
        assert large.size_in_bytes() > small.size_in_bytes()


# --------------------------------------------------------------------------- #
# property-based: the store is equivalent to a naive set of triples
# --------------------------------------------------------------------------- #

encoded_triples = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=1, max_value=30),
        st.integers(min_value=1, max_value=30),
    ),
    max_size=120,
)


@settings(max_examples=40, deadline=None)
@given(triples=encoded_triples)
def test_property_store_matches_naive_semantics(triples):
    store = ObjectTripleStore(triples)
    reference = set(triples)
    assert len(store) == len(reference)
    assert list(store.iter_triples()) == sorted(reference)
    properties = {p for p, _, _ in reference}
    for prop in properties:
        assert store.count_triples_with_property(prop) == sum(1 for p, _, _ in reference if p == prop)
        subjects = {s for p, s, _ in reference if p == prop}
        for subject in subjects:
            expected_objects = sorted(o for p, s, o in reference if p == prop and s == subject)
            assert store.objects_for(subject, prop) == expected_objects
        objects = {o for p, _, o in reference if p == prop}
        for obj in objects:
            expected_subjects = sorted(s for p, s, o in reference if p == prop and o == obj)
            assert store.subjects_for(prop, obj) == expected_subjects


@settings(max_examples=30, deadline=None)
@given(triples=encoded_triples, low=st.integers(min_value=0, max_value=12), span=st.integers(min_value=0, max_value=6))
def test_property_interval_access_matches_filter(triples, low, span):
    store = ObjectTripleStore(triples)
    high = low + span
    expected = sorted((p, s, o) for p, s, o in set(triples) if low <= p < high)
    assert list(store.pairs_for_property_interval(low, high)) == expected
