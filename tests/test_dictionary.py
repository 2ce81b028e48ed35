"""Tests for the dictionaries, literal store and optimizer statistics."""

from __future__ import annotations

import pytest

from repro.dictionary.literal_store import LiteralStore
from repro.dictionary.statistics import DictionaryStatistics
from repro.dictionary.term_dictionary import (
    ConceptDictionary,
    InstanceDictionary,
    PropertyDictionary,
)
from repro.ontology.litemat import LiteMatEncoder
from repro.ontology.schema import OntologySchema
from repro.rdf.namespaces import Namespace
from repro.rdf.terms import BlankNode, Literal

EX = Namespace("http://example.org/")


def build_dictionaries():
    schema = OntologySchema()
    schema.add_subclass(EX.Student, EX.Person)
    schema.add_subclass(EX.GraduateStudent, EX.Student)
    schema.add_subclass(EX.Professor, EX.Person)
    schema.add_subproperty(EX.worksFor, EX.memberOf)
    schema.add_subproperty(EX.headOf, EX.worksFor)
    encoder = LiteMatEncoder(schema)
    concepts = ConceptDictionary(encoder.encode_concepts())
    properties = PropertyDictionary(encoder.encode_properties(extra_properties=[EX.name]))
    instances = InstanceDictionary()
    return concepts, properties, instances


class TestConceptDictionary:
    def test_locate_extract_round_trip(self):
        concepts, _, _ = build_dictionaries()
        for concept in (EX.Person, EX.Student, EX.GraduateStudent):
            assert concepts.extract(concepts.locate(concept)) == concept

    def test_try_locate_unknown(self):
        concepts, _, _ = build_dictionaries()
        assert concepts.try_locate(EX.Unknown) is None
        assert concepts.try_extract(99999) is None

    def test_interval_contains_descendants(self):
        concepts, _, _ = build_dictionaries()
        low, high = concepts.interval(EX.Person)
        assert low <= concepts.locate(EX.GraduateStudent) < high
        assert low <= concepts.locate(EX.Professor) < high

    def test_hierarchical_occurrences(self):
        concepts, _, _ = build_dictionaries()
        concepts.record_occurrence(concepts.locate(EX.GraduateStudent), 5)
        concepts.record_occurrence(concepts.locate(EX.Professor), 2)
        assert concepts.occurrences_of_term(EX.GraduateStudent) == 5
        assert concepts.hierarchical_occurrences(EX.Student) == 5
        assert concepts.hierarchical_occurrences(EX.Person) == 7
        assert concepts.hierarchical_occurrences(EX.Professor) == 2

    def test_size_in_bytes_counts_strings(self):
        concepts, _, _ = build_dictionaries()
        assert concepts.size_in_bytes() > sum(len(str(t)) for t in concepts.terms())

    def test_remapping_conflicts_raise(self):
        concepts, _, _ = build_dictionaries()
        with pytest.raises(ValueError):
            concepts._register(EX.Person, 12345)  # noqa: SLF001 — guarding internal invariant


class TestPropertyDictionary:
    def test_hierarchical_occurrences(self):
        _, properties, _ = build_dictionaries()
        properties.record_occurrence(properties.locate(EX.headOf), 3)
        properties.record_occurrence(properties.locate(EX.worksFor), 4)
        assert properties.hierarchical_occurrences(EX.memberOf) == 7
        assert properties.hierarchical_occurrences(EX.worksFor) == 7
        assert properties.hierarchical_occurrences(EX.headOf) == 3

    def test_plain_property_present(self):
        _, properties, _ = build_dictionaries()
        assert EX.name in properties


class TestInstanceDictionary:
    def test_sequential_identifiers_start_at_one(self):
        instances = InstanceDictionary()
        first = instances.add(EX.alice)
        second = instances.add(EX.bob)
        assert (first, second) == (1, 2)
        assert instances.capacity == 3

    def test_add_is_idempotent(self):
        instances = InstanceDictionary()
        assert instances.add(EX.alice) == instances.add(EX.alice)
        assert len(instances) == 1

    def test_blank_nodes_supported(self):
        instances = InstanceDictionary()
        identifier = instances.add(BlankNode("b1"))
        assert instances.extract(identifier) == BlankNode("b1")

    def test_add_all(self):
        instances = InstanceDictionary()
        instances.add_all([EX.a, EX.b, EX.a])
        assert len(instances) == 2


class TestLiteralStore:
    def test_append_and_get(self):
        store = LiteralStore()
        position = store.append(Literal(3.5))
        assert store.get(position) == Literal(3.5)
        assert len(store) == 1

    def test_duplicates_are_kept(self):
        store = LiteralStore()
        store.append(Literal("x"))
        store.append(Literal("x"))
        assert len(store) == 2

    def test_out_of_range_raises(self):
        with pytest.raises(IndexError):
            LiteralStore().get(0)

    def test_iteration_and_size(self):
        store = LiteralStore()
        store.append(Literal("abc"))
        store.append(Literal(1))
        assert list(store) == [Literal("abc"), Literal(1)]
        assert store.size_in_bytes() > 0


class TestStatistics:
    def build(self) -> DictionaryStatistics:
        concepts, properties, instances = build_dictionaries()
        concepts.record_occurrence(concepts.locate(EX.GraduateStudent), 10)
        concepts.record_occurrence(concepts.locate(EX.Professor), 4)
        properties.record_occurrence(properties.locate(EX.worksFor), 6)
        properties.record_occurrence(properties.locate(EX.headOf), 1)
        properties.record_occurrence(properties.locate(EX.name), 20)
        alice = instances.add(EX.alice)
        instances.record_occurrence(alice, 3)
        return DictionaryStatistics(concepts, properties, instances)

    def test_concept_cardinality_with_hierarchy(self):
        statistics = self.build()
        assert statistics.concept_cardinality(EX.Person) == 14
        assert statistics.concept_cardinality(EX.Person, with_hierarchy=False) == 0
        assert statistics.concept_cardinality(EX.Unknown) == 0

    def test_property_cardinality_with_hierarchy(self):
        statistics = self.build()
        assert statistics.property_cardinality(EX.memberOf) == 7
        assert statistics.property_cardinality(EX.name) == 20
        assert statistics.property_cardinality(EX.Unknown) == 0

    def test_instance_cardinality(self):
        statistics = self.build()
        assert statistics.instance_cardinality(EX.alice) == 3
        assert statistics.instance_cardinality(EX.bob) == 0

    def test_fully_unbound_pattern_uses_total_mass(self):
        statistics = self.build()
        assert statistics.total_triple_mass() == 14 + 27
