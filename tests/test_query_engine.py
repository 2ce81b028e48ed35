"""Tests for the SuccinctEdge query engine against the naive oracle."""

from __future__ import annotations

import pytest

from repro.query.engine import QueryEngine
from repro.query.rewriter import HighLevelQueryBuilder
from repro.rdf.namespaces import QUDT
from repro.rdf.terms import Literal
from repro.baselines.multi_index_store import MultiIndexMemoryStore
from repro.query.materializing import MaterializingQueryEngine
from repro.query.multiproc import ProcessPoolQueryEngine
from repro.query.parallel import ParallelQueryEngine
from repro.serve.cluster import ClusterQueryEngine
from tests.conftest import EX, hierarchy_closure, naive_query


def oracle_rows(graph, schema, query, reasoning):
    target = hierarchy_closure(graph, schema) if reasoning else graph
    return naive_query(target, query).to_set()


class TestBasicSelect:
    def test_single_pattern(self, toy_store, toy_data, toy_schema):
        query = "SELECT ?x WHERE { ?x <http://example.org/memberOf> <http://example.org/dept1> }"
        assert toy_store.query(query, reasoning=False).to_set() == oracle_rows(
            toy_data, toy_schema, query, False
        )

    def test_projection_order(self, toy_store):
        query = "SELECT ?n ?x WHERE { ?x <http://example.org/name> ?n }"
        result = toy_store.query(query)
        assert result.variables == ["n", "x"]
        assert all(len(row) == 2 for row in result.to_tuples())

    def test_select_star(self, toy_store, toy_data, toy_schema):
        query = "SELECT * WHERE { ?x <http://example.org/advisor> ?y }"
        assert toy_store.query(query, reasoning=False).to_set() == oracle_rows(
            toy_data, toy_schema, query, False
        )

    def test_distinct(self, toy_store):
        query = "SELECT DISTINCT ?d WHERE { ?x <http://example.org/memberOf> ?d }"
        assert len(toy_store.query(query, reasoning=False)) == 2

    def test_limit(self, toy_store):
        query = "SELECT ?x WHERE { ?x <http://example.org/name> ?n } LIMIT 2"
        assert len(toy_store.query(query)) == 2

    def test_empty_result(self, toy_store):
        query = "SELECT ?x WHERE { ?x <http://example.org/memberOf> <http://example.org/nowhere> }"
        assert len(toy_store.query(query)) == 0

    def test_unknown_constant_terms(self, toy_store):
        query = "SELECT ?x WHERE { ?x <http://example.org/nosuch> ?y }"
        assert len(toy_store.query(query)) == 0


class TestJoins:
    @pytest.mark.parametrize(
        "query",
        [
            # SS star join.
            "SELECT ?x ?n ?d WHERE { ?x <http://example.org/memberOf> ?d . ?x <http://example.org/name> ?n }",
            # Path (OS) join.
            "SELECT ?x ?d ?u WHERE { ?x <http://example.org/memberOf> ?d . "
            "?d <http://example.org/subOrganizationOf> ?u }",
            # Three patterns with an rdf:type anchor.
            "SELECT ?x ?d WHERE { ?x a <http://example.org/Department> . "
            "?y <http://example.org/memberOf> ?x . ?y <http://example.org/name> ?d }",
            # Star around a constant subject.
            "SELECT ?n ?a WHERE { <http://example.org/alice> <http://example.org/name> ?n . "
            "<http://example.org/alice> <http://example.org/age> ?a }",
            # Bound object join.
            "SELECT ?x ?n WHERE { ?x <http://example.org/advisor> <http://example.org/bob> . "
            "?x <http://example.org/name> ?n }",
        ],
    )
    def test_join_results_match_oracle(self, toy_store, toy_data, toy_schema, query):
        assert toy_store.query(query, reasoning=False).to_set() == oracle_rows(
            toy_data, toy_schema, query, False
        )

    def test_cartesian_product_supported(self, toy_store, toy_data, toy_schema):
        query = (
            "SELECT ?a ?b WHERE { ?a <http://example.org/headOf> ?x . ?b <http://example.org/age> ?v }"
        )
        assert toy_store.query(query, reasoning=False).to_set() == oracle_rows(
            toy_data, toy_schema, query, False
        )


class TestFiltersAndBind:
    def test_numeric_filter(self, toy_store, toy_data, toy_schema):
        query = (
            "SELECT ?x WHERE { ?x <http://example.org/age> ?v . FILTER(?v > 30) }"
        )
        assert toy_store.query(query).to_set() == oracle_rows(toy_data, toy_schema, query, False)

    def test_string_filter(self, toy_store):
        query = 'SELECT ?x WHERE { ?x <http://example.org/name> ?n . FILTER(?n = "Carol") }'
        assert toy_store.query(query).to_set() == {(EX.carol,)}

    def test_bind_creates_new_variable(self, toy_store):
        query = (
            "SELECT ?x ?half WHERE { ?x <http://example.org/age> ?v . "
            "BIND(?v / 2 AS ?half) . FILTER(?half > 20) }"
        )
        result = toy_store.query(query)
        assert result.to_set() == {(EX.bob, Literal(27.5))}

    def test_filter_on_unbound_variable_removes_rows(self, toy_store):
        query = "SELECT ?x WHERE { ?x <http://example.org/age> ?v . FILTER(?missing > 1) }"
        assert len(toy_store.query(query)) == 0


class TestUnionQueries:
    def test_union_of_concepts(self, toy_store, toy_data, toy_schema):
        query = (
            "SELECT ?x WHERE { { ?x a <http://example.org/GraduateStudent> } UNION "
            "{ ?x a <http://example.org/FullProfessor> } }"
        )
        assert toy_store.query(query, reasoning=False).to_set() == oracle_rows(
            toy_data, toy_schema, query, False
        )

    def test_union_joined_with_bgp(self, toy_store):
        query = (
            "SELECT ?x ?n WHERE { ?x <http://example.org/name> ?n . "
            "{ ?x a <http://example.org/GraduateStudent> } UNION { ?x a <http://example.org/Professor> } }"
        )
        result = toy_store.query(query, reasoning=False)
        assert result.to_set() == {(EX.alice, Literal("Alice")), (EX.dave, Literal("Dave"))}

    # A UNION joins what precedes it in its group: after a BGP with no
    # solutions the join is empty, and only a group whose BGP is empty (its
    # one seed row) passes the branch rows through.
    NAME_OR_AGE = "{ ?x <http://example.org/name> ?n } UNION { ?x <http://example.org/age> ?n }"
    UNION_CASES = [
        # Four names and two ages.
        pytest.param(
            f"SELECT ?x ?n WHERE {{ {NAME_OR_AGE} }}",
            {
                (EX.alice, Literal("Alice")),
                (EX.bob, Literal("Bob")),
                (EX.carol, Literal("Carol")),
                (EX.dave, Literal("Dave")),
                (EX.alice, Literal(27)),
                (EX.bob, Literal(55)),
            },
            id="union-only",
        ),
        # Bob heads dept1: his name and his age.
        pytest.param(
            f"SELECT ?x ?n WHERE {{ ?x <http://example.org/headOf> ?d . {NAME_OR_AGE} }}",
            {(EX.bob, Literal("Bob")), (EX.bob, Literal(55))},
            id="after-bgp",
        ),
        # Nobody heads <http://nowhere/x>.
        pytest.param(
            f"SELECT ?x ?n WHERE {{ ?x <http://example.org/headOf> <http://nowhere/x> . {NAME_OR_AGE} }}",
            set(),
            id="after-empty-bgp",
        ),
        # The first UNION has no solutions, so neither has its join with the second.
        pytest.param(
            "SELECT ?x ?n WHERE { { ?x <http://example.org/headOf> <http://nowhere/x> } UNION "
            f"{{ ?x <http://example.org/worksFor> <http://nowhere/x> }} {NAME_OR_AGE} }}",
            set(),
            id="after-empty-union",
        ),
    ]

    @pytest.mark.parametrize("engine", ["streaming", "materializing", "baseline", "naive"])
    @pytest.mark.parametrize("query, expected", UNION_CASES)
    def test_union_after_bgp_joins_its_solutions(self, toy_store, toy_data, toy_ontology, engine, query, expected):
        if engine == "streaming":
            result = QueryEngine(toy_store, reasoning=False).execute(query)
        elif engine == "materializing":
            result = MaterializingQueryEngine(toy_store, reasoning=False).execute(query)
        elif engine == "baseline":
            store = MultiIndexMemoryStore()
            store.load(toy_data, ontology=toy_ontology)
            result = store.query(query)
        else:
            result = naive_query(toy_data, query)
        assert len(result) == len(expected)
        assert result.to_set() == expected

    def test_union_after_empty_bgp_on_lubm(self, small_lubm_store):
        union = "{ ?x lubm:name ?n } UNION { ?x lubm:emailAddress ?n }"
        prefix = "PREFIX lubm: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>\n"
        empty = f"SELECT ?x ?n WHERE {{ ?x lubm:headOf <http://nowhere/x> . {union} }}"
        for engine_class in (QueryEngine, MaterializingQueryEngine):
            engine = engine_class(small_lubm_store, reasoning=False)
            assert len(engine.execute(prefix + f"SELECT ?x ?n WHERE {{ {union} }}")) > 0
            assert len(engine.execute(prefix + empty)) == 0


class TestReasoningQueries:
    def test_concept_hierarchy(self, toy_store, toy_data, toy_schema):
        query = "SELECT ?x WHERE { ?x a <http://example.org/Person> }"
        expected = oracle_rows(toy_data, toy_schema, query, True)
        assert toy_store.query(query, reasoning=True).to_set() == expected
        assert toy_store.query(query, reasoning=False).to_set() != expected

    def test_property_hierarchy(self, toy_store, toy_data, toy_schema):
        query = "SELECT ?x ?d WHERE { ?x <http://example.org/memberOf> ?d }"
        expected = oracle_rows(toy_data, toy_schema, query, True)
        assert toy_store.query(query, reasoning=True).to_set() == expected

    def test_combined_concept_and_property_reasoning(self, toy_store, toy_data, toy_schema):
        query = (
            "SELECT ?x ?d WHERE { ?x a <http://example.org/Person> . "
            "?x <http://example.org/worksFor> ?d . ?d a <http://example.org/Organization> }"
        )
        expected = oracle_rows(toy_data, toy_schema, query, True)
        assert toy_store.query(query, reasoning=True).to_set() == expected
        assert expected  # the query must actually return rows

    def test_reasoning_with_filter(self, toy_store, toy_data, toy_schema):
        query = (
            "SELECT ?x ?n WHERE { ?x a <http://example.org/Student> . "
            "?x <http://example.org/name> ?n . FILTER(?n != \"Carol\") }"
        )
        expected = oracle_rows(toy_data, toy_schema, query, True)
        assert toy_store.query(query, reasoning=True).to_set() == expected


class TestPlanIntrospection:
    def test_plan_returns_physical_plan(self, toy_store):
        engine = QueryEngine(toy_store)
        plan = engine.plan(
            "SELECT ?x WHERE { ?x a <http://example.org/Person> . ?x <http://example.org/name> ?n }"
        )
        assert len(plan) == 2
        assert plan.method == "cost-dp"
        assert sorted(plan.order()) == [0, 1]
        # The planner starts with the name scan: the per-row type checks then
        # run on the pair-run type store, which issues no SDS kernel calls.
        assert not plan.steps[0].pattern.is_rdf_type

    def test_invalid_join_strategy_rejected(self, toy_store):
        # The join policy and the planner are fixed: no engine takes a
        # strategy or planner option, so a stale or misspelled one fails
        # loudly instead of being ignored.  (The cluster engine's replica
        # set and source are never reached: the call fails on the keyword.)
        engines = [
            (QueryEngine, ()),
            (MaterializingQueryEngine, ()),
            (ParallelQueryEngine, ()),
            (ProcessPoolQueryEngine, ()),
            (ClusterQueryEngine, (None, None)),
        ]
        for engine_class, extra in engines:
            with pytest.raises(TypeError, match="join_strategy"):
                engine_class(toy_store, *extra, join_strategy="hash")
            with pytest.raises(TypeError, match="planner"):
                engine_class(toy_store, *extra, planner="heuristic")


class TestHighLevelQueryBuilder:
    def test_generated_query_detects_anomalies(self, engie_store):
        builder = (
            HighLevelQueryBuilder()
            .measuring(QUDT.PressureUnit)
            .outside_range(3.0, 4.5)
        )
        query = builder.build()
        result = engie_store.query(query, reasoning=True)
        # Every returned value must indeed be outside the range or be
        # expressed in hectopascal (values around 3000-4500).
        assert result.variables == ["platform", "sensor", "timestamp", "value", "unit"]
        for row in result:
            value = float(row["value"].lexical)
            assert value < 3.0 or value > 4.5

    def test_builder_without_unit_constraint(self, engie_store):
        query = HighLevelQueryBuilder().outside_range(None, 1000.0).build()
        result = engie_store.query(query, reasoning=True)
        for row in result:
            assert float(row["value"].lexical) > 1000.0
