"""Shared fixtures and the naive query oracle used across the test suite."""

from __future__ import annotations

import itertools
from typing import List, Optional

import pytest

from repro.ontology.rhodf import saturate_properties, saturate_types
from repro.ontology.schema import OntologySchema
from repro.rdf.graph import Graph
from repro.rdf.namespaces import RDF, RDFS, Namespace
from repro.rdf.terms import Literal, Triple
from repro.sparql.ast import GroupGraphPattern, SelectQuery, TriplePattern, Variable
from repro.sparql.bindings import Binding, ResultSet
from repro.sparql.expressions import evaluate_bind, evaluate_filter
from repro.sparql.parser import parse_query
from repro.store.succinct_edge import SuccinctEdge
from repro.workloads.engie import engie_ontology, water_distribution_graph
from repro.workloads.lubm import LubmDataset, generate_lubm
from repro.workloads.queries import QueryCatalog

EX = Namespace("http://example.org/")


# --------------------------------------------------------------------------- #
# naive oracle: straightforward pattern matching over a Graph
# --------------------------------------------------------------------------- #


def naive_bgp_bindings(graph: Graph, patterns: List[TriplePattern]) -> List[Binding]:
    """Ground-truth BGP evaluation: nested loops over the whole graph."""
    bindings = [Binding()]
    for pattern in patterns:
        next_bindings: List[Binding] = []
        for binding in bindings:
            for triple in graph:
                candidate = _match_pattern(pattern, triple, binding)
                if candidate is not None:
                    next_bindings.append(candidate)
        bindings = next_bindings
    return bindings


def _match_pattern(pattern: TriplePattern, triple: Triple, binding: Binding) -> Optional[Binding]:
    current = binding
    for slot, value in (
        (pattern.subject, triple.subject),
        (pattern.predicate, triple.predicate),
        (pattern.object, triple.object),
    ):
        if isinstance(slot, Variable):
            existing = current.get(slot.name)
            if existing is None:
                current = current.extended(slot.name, value)
            elif existing != value:
                return None
        elif slot != value:
            return None
    return current


def naive_query(graph: Graph, query: str | SelectQuery) -> ResultSet:
    """Ground-truth SELECT evaluation (BGP + UNION + BIND + FILTER)."""
    parsed = parse_query(query) if isinstance(query, str) else query
    bindings = _naive_group(graph, parsed.where)
    names = parsed.projected_names()
    result = ResultSet(names, [binding.project(names) for binding in bindings])
    if parsed.distinct:
        result = result.distinct()
    if parsed.limit is not None:
        result = ResultSet(result.variables, result.bindings[: parsed.limit])
    return result


def _naive_group(graph: Graph, group: GroupGraphPattern) -> List[Binding]:
    bindings = naive_bgp_bindings(graph, list(group.bgp.patterns))
    for union in group.unions:
        union_bindings: List[Binding] = []
        for branch in union.branches:
            union_bindings.extend(_naive_group(graph, branch))
        merged: List[Binding] = []
        for left, right in itertools.product(bindings, union_bindings):
            combined = left.merged(right)
            if combined is not None:
                merged.append(combined)
        bindings = merged
    for bind in group.binds:
        updated = []
        for binding in bindings:
            value = evaluate_bind(bind.expression, binding)
            updated.append(binding if value is None else binding.extended(bind.variable.name, value))
        bindings = updated
    for constraint in group.filters:
        bindings = [b for b in bindings if evaluate_filter(constraint.expression, b)]
    return bindings


def hierarchy_closure(graph: Graph, schema: OntologySchema) -> Graph:
    """Concept + property hierarchy closure (the reasoning SuccinctEdge covers)."""
    closed = saturate_properties(graph, schema)
    closed = saturate_types(closed, schema)
    return closed


# --------------------------------------------------------------------------- #
# toy university fixture (small, hand-checkable)
# --------------------------------------------------------------------------- #


def build_toy_ontology() -> Graph:
    ontology = Graph()
    axioms = [
        (EX.GraduateStudent, RDFS.subClassOf, EX.Student),
        (EX.UndergraduateStudent, RDFS.subClassOf, EX.Student),
        (EX.Student, RDFS.subClassOf, EX.Person),
        (EX.Professor, RDFS.subClassOf, EX.Person),
        (EX.FullProfessor, RDFS.subClassOf, EX.Professor),
        (EX.Department, RDFS.subClassOf, EX.Organization),
        (EX.University, RDFS.subClassOf, EX.Organization),
        (EX.headOf, RDFS.subPropertyOf, EX.worksFor),
        (EX.worksFor, RDFS.subPropertyOf, EX.memberOf),
    ]
    for subject, predicate, obj in axioms:
        ontology.add(Triple(subject, predicate, obj))
    return ontology


def build_toy_data() -> Graph:
    data = Graph()
    triples = [
        (EX.alice, RDF.type, EX.GraduateStudent),
        (EX.bob, RDF.type, EX.FullProfessor),
        (EX.carol, RDF.type, EX.UndergraduateStudent),
        (EX.dave, RDF.type, EX.Professor),
        (EX.dept1, RDF.type, EX.Department),
        (EX.dept2, RDF.type, EX.Department),
        (EX.univ, RDF.type, EX.University),
        (EX.alice, EX.memberOf, EX.dept1),
        (EX.carol, EX.memberOf, EX.dept2),
        (EX.bob, EX.headOf, EX.dept1),
        (EX.dave, EX.worksFor, EX.dept2),
        (EX.dept1, EX.subOrganizationOf, EX.univ),
        (EX.dept2, EX.subOrganizationOf, EX.univ),
        (EX.alice, EX.advisor, EX.bob),
        (EX.carol, EX.advisor, EX.dave),
        (EX.alice, EX.name, Literal("Alice")),
        (EX.bob, EX.name, Literal("Bob")),
        (EX.carol, EX.name, Literal("Carol")),
        (EX.dave, EX.name, Literal("Dave")),
        (EX.alice, EX.age, Literal(27)),
        (EX.bob, EX.age, Literal(55)),
    ]
    for subject, predicate, obj in triples:
        data.add(Triple(subject, predicate, obj))
    return data


@pytest.fixture(scope="session")
def toy_ontology() -> Graph:
    return build_toy_ontology()


@pytest.fixture(scope="session")
def toy_data() -> Graph:
    return build_toy_data()


@pytest.fixture(scope="session")
def toy_store(toy_data: Graph, toy_ontology: Graph) -> SuccinctEdge:
    return SuccinctEdge.from_graph(toy_data, ontology=toy_ontology)


@pytest.fixture(scope="session")
def toy_schema(toy_ontology: Graph) -> OntologySchema:
    return OntologySchema.from_graph(toy_ontology)


# --------------------------------------------------------------------------- #
# small LUBM fixture (a couple of departments, still hundreds of entities)
# --------------------------------------------------------------------------- #


@pytest.fixture(scope="session")
def small_lubm() -> LubmDataset:
    return generate_lubm(departments=2, seed=11)


@pytest.fixture(scope="session")
def small_lubm_store(small_lubm: LubmDataset) -> SuccinctEdge:
    return SuccinctEdge.from_graph(small_lubm.graph, ontology=small_lubm.ontology)


@pytest.fixture(scope="session")
def small_lubm_catalog(small_lubm: LubmDataset) -> QueryCatalog:
    return QueryCatalog(small_lubm)


@pytest.fixture(scope="session")
def two_shard_lubm(small_lubm_store: SuccinctEdge):
    from repro.store.sharding import ShardedStore

    return ShardedStore.from_store(small_lubm_store, shards=2)


@pytest.fixture(scope="session")
def unit_cases(two_shard_lubm):
    """Arguments for every work-unit op on the 2-shard LUBM store.

    Shard-scoped ops get one case per shard plus the whole store (``None``);
    the terms include a literal and, in ``eval_many``, a binding value no
    dictionary holds, so both halves of the wire codec are exercised.
    """
    from repro.rdf.namespaces import LUBM
    from repro.rdf.terms import URI

    store = two_shard_lubm
    works_for = store.properties.locate(LUBM.worksFor)
    name = store.properties.locate(LUBM.name)
    sub_organization = store.properties.locate(LUBM.subOrganizationOf)
    subject_id, department_id = next(iter(store.object_store.pairs_for_property(works_for)))
    department = store.instances.extract(department_id)
    _, literal = next(iter(store.datatype_store.pairs_for_property(name)))
    department_concept = store.concepts.locate(LUBM.Department)
    low, high = store.concepts.interval(LUBM.Student)
    worker = store.instances.extract(subject_id)
    shards = (0, 1, None)
    return {
        "eval_many": [
            (
                TriplePattern(Variable("x"), LUBM.name, Variable("n")),
                (
                    Binding({"x": worker}),
                    Binding({"x": department, "tag": URI("http://example.org/not-stored")}),
                    Binding({"x": URI("http://example.org/nobody"), "age": Literal(3)}),
                ),
            ),
            (TriplePattern(Variable("x"), LUBM.memberOf, department), (Binding(),)),
        ],
        "pairs": [(property_id, shard) for property_id in (works_for, name) for shard in shards],
        "subjects_obj": [(works_for, department, shard) for shard in shards],
        "subjects_lit": [(name, literal, shard) for shard in shards],
        "type_interval": [(low, high, shard) for shard in shards],
        "type_concept": [(department_concept, shard) for shard in shards],
        "expand": [
            ((sub_organization, name), (works_for, name), (department_id,), (literal,), shard)
            for shard in shards
        ],
    }


# --------------------------------------------------------------------------- #
# ENGIE fixtures
# --------------------------------------------------------------------------- #


@pytest.fixture(scope="session")
def engie_graph() -> Graph:
    return water_distribution_graph(observations_per_sensor=6, stations=2, seed=3)


@pytest.fixture(scope="session")
def engie_schema_graph() -> Graph:
    return engie_ontology()


@pytest.fixture(scope="session")
def engie_store(engie_graph: Graph, engie_schema_graph: Graph) -> SuccinctEdge:
    return SuccinctEdge.from_graph(engie_graph, ontology=engie_schema_graph)
