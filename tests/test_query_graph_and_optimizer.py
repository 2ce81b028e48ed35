"""Tests for the query graph and the join-order optimizer.

``CostBasedJoinOrderOptimizer`` is the one planner every engine uses.  The
expectations below (statistics-driven first steps, greedy-fallback
connectivity, cross products flagged, every pattern planned once, merge
joins on subject stars, explain output) are planner-shape checks; the
cost-model edge cases live in ``tests/test_cost_planner.py``.
"""

from __future__ import annotations

import pytest

from repro.query.optimizer import CostBasedJoinOrderOptimizer
from repro.query.plan import AccessPath, classify_access_path
from repro.query.query_graph import QueryGraph
from repro.sparql.parser import parse_query
from tests.conftest import EX


def patterns_of(query_text: str):
    return list(parse_query(query_text).triple_patterns)


class TestQueryGraph:
    def test_nodes_and_edges_from_shared_variables(self):
        patterns = patterns_of(
            "SELECT * WHERE { ?x <http://p> ?y . ?x <http://q> ?z . ?a <http://r> ?b }"
        )
        graph = QueryGraph.from_patterns(patterns)
        assert len(graph) == 3
        assert len(graph.edges) == 1
        edge = graph.edges[0]
        assert edge.variables == ("x",)
        assert "SS" in edge.join_types

    def test_join_type_labels(self):
        patterns = patterns_of("SELECT * WHERE { ?x <http://p> ?y . ?y <http://q> ?z }")
        graph = QueryGraph.from_patterns(patterns)
        edge = graph.edges[0]
        assert edge.join_types == ("OS",)

    def test_neighbours_and_edges_between(self):
        patterns = patterns_of(
            "SELECT * WHERE { ?x <http://p> ?y . ?x <http://q> ?z . ?z <http://r> ?w }"
        )
        graph = QueryGraph.from_patterns(patterns)
        assert {edge.other(1) for edge in graph.edges if edge.involves(1)} == {0, 2}
        assert len(graph.edges_between({0}, 1)) == 1
        assert graph.edges_between({0}, 2) == []

    def test_join_variables(self):
        patterns = patterns_of("SELECT * WHERE { ?x <http://p> ?y . ?x <http://q> ?z }")
        graph = QueryGraph.from_patterns(patterns)
        assert {name for edge in graph.edges for name in edge.variables} == {"x"}

    def test_rdf_type_annotation(self):
        patterns = patterns_of("SELECT * WHERE { ?x a <http://C> . ?x <http://p> ?y }")
        graph = QueryGraph.from_patterns(patterns)
        assert graph.nodes[0].is_rdf_type
        assert not graph.nodes[1].is_rdf_type

    def test_edge_helpers_errors(self):
        patterns = patterns_of("SELECT * WHERE { ?x <http://p> ?y . ?x <http://q> ?z }")
        graph = QueryGraph.from_patterns(patterns)
        edge = graph.edges[0]
        assert edge.involves(0) and edge.involves(1)
        with pytest.raises(ValueError):
            edge.other(7)


class TestAccessPathClassification:
    def test_classification(self):
        patterns = patterns_of(
            "SELECT * WHERE { <http://s> <http://p> ?o . ?s <http://p> <http://o> . "
            "?s <http://p> ?o . ?s a <http://C> . <http://s> a ?c . ?s ?p ?o }"
        )
        paths = [classify_access_path(pattern) for pattern in patterns]
        assert paths == [
            AccessPath.PSO_SP,
            AccessPath.PSO_PO,
            AccessPath.PSO_P,
            AccessPath.RDFTYPE_OS,
            AccessPath.RDFTYPE_SO,
            AccessPath.PSO_FULL,
        ]


class TestOptimizerHeuristics:
    def test_statistics_pick_most_selective_concept(self, toy_store):
        # Person has 4 instances, FullProfessor 1: with statistics the plan
        # starts from the FullProfessor pattern although it is written second.
        optimizer = CostBasedJoinOrderOptimizer(statistics=toy_store.statistics)
        query = parse_query(
            "SELECT * WHERE { ?x a <http://example.org/Person> . "
            "?x a <http://example.org/FullProfessor> }"
        )
        plan = optimizer.optimize(list(query.triple_patterns))
        first = plan.steps[0].pattern
        assert first.object == EX.FullProfessor

    def test_left_deep_connectivity(self, toy_store):
        # The greedy fallback ranks a step that shares a variable with the
        # prefix above any cross product, so it extends through a join edge
        # whenever one exists.  (The DP may deliberately interleave a cheap
        # cross product and flag it CARTESIAN; see the next test.)
        optimizer = CostBasedJoinOrderOptimizer(statistics=toy_store.statistics)
        optimizer.dp_threshold = 0
        query = parse_query(
            "SELECT * WHERE { ?x <http://example.org/memberOf> ?d . "
            "?d <http://example.org/subOrganizationOf> ?u . ?u a <http://example.org/University> }"
        )
        plan = optimizer.optimize(list(query.triple_patterns))
        assert plan.method == "cost-greedy"
        seen_variables = set(plan.steps[0].pattern.variable_names())
        for step in plan.steps[1:]:
            assert any(name in seen_variables for name in step.pattern.variable_names())
            assert not step.cartesian
            seen_variables.update(step.pattern.variable_names())

    def test_cost_planner_flags_every_disconnected_step(self, toy_store):
        optimizer = CostBasedJoinOrderOptimizer(statistics=toy_store.statistics)
        query = parse_query(
            "SELECT * WHERE { ?x <http://example.org/memberOf> ?d . "
            "?d <http://example.org/subOrganizationOf> ?u . ?u a <http://example.org/University> }"
        )
        plan = optimizer.optimize(list(query.triple_patterns))
        assert sorted(plan.order()) == [0, 1, 2]
        seen_variables = set(plan.steps[0].pattern.variable_names())
        for step in plan.steps[1:]:
            connected = any(
                name in seen_variables for name in step.pattern.variable_names()
            )
            assert connected != step.cartesian  # disconnected iff flagged
            seen_variables.update(step.pattern.variable_names())

    def test_every_pattern_appears_exactly_once(self, toy_store):
        optimizer = CostBasedJoinOrderOptimizer(statistics=toy_store.statistics)
        query = parse_query(
            "SELECT * WHERE { ?x a <http://example.org/Person> . ?x <http://example.org/name> ?n . "
            "?x <http://example.org/memberOf> ?d . ?d a <http://example.org/Department> . "
            "?d <http://example.org/subOrganizationOf> ?u }"
        )
        plan = optimizer.optimize(list(query.triple_patterns))
        assert sorted(plan.order()) == list(range(5))

    def test_disconnected_patterns_still_planned(self, toy_store):
        optimizer = CostBasedJoinOrderOptimizer(statistics=toy_store.statistics)
        query = parse_query(
            "SELECT * WHERE { ?x <http://example.org/name> ?n . ?y <http://example.org/age> ?a }"
        )
        plan = optimizer.optimize(list(query.triple_patterns))
        assert len(plan) == 2

    def test_empty_bgp(self):
        plan = CostBasedJoinOrderOptimizer().optimize([])
        assert len(plan) == 0
        assert plan.order() == []

    def test_without_statistics_cost_planner_still_plans(self):
        optimizer = CostBasedJoinOrderOptimizer(statistics=None)
        query = parse_query(
            "SELECT * WHERE { ?x <http://example.org/p> ?y . ?x a <http://example.org/C> }"
        )
        plan = optimizer.optimize(list(query.triple_patterns))
        assert sorted(plan.order()) == [0, 1]
        assert plan.method == "cost-dp"

    def test_without_statistics_heuristics_alone_work(self):
        # The greedy fallback, like the DP, prices steps with the default
        # estimates when the store has no statistics.
        optimizer = CostBasedJoinOrderOptimizer(statistics=None)
        optimizer.dp_threshold = 0
        query = parse_query(
            "SELECT * WHERE { ?x <http://example.org/p> ?y . ?x a <http://example.org/C> }"
        )
        plan = optimizer.optimize(list(query.triple_patterns))
        assert sorted(plan.order()) == [0, 1]
        assert plan.method == "cost-greedy"
        assert not plan.steps[1].cartesian
        assert all(step.estimated_cost is not None for step in plan.steps)

    def test_explain_output(self, toy_store):
        optimizer = CostBasedJoinOrderOptimizer(statistics=toy_store.statistics)
        query = parse_query(
            "SELECT * WHERE { ?x a <http://example.org/Person> . ?x <http://example.org/name> ?n }"
        )
        plan = optimizer.optimize(list(query.triple_patterns))
        text = plan.explain()
        assert "tp1" in text and "rdftype" in text


class TestPaperExample51:
    """The query of Figure 6 (Example 5.1/5.2): 7 TPs, left-deep join order."""

    QUERY = """
    SELECT * WHERE {
      ?x a <http://example.org/C1> .
      ?y a <http://example.org/C2> .
      ?z a <http://example.org/C3> .
      ?y <http://example.org/p1> ?w .
      ?w <http://example.org/p2> ?z .
      ?y <http://example.org/p3> ?x .
      ?y <http://example.org/p4> ?v .
    }
    """

    def test_plan_is_connected_and_starts_with_rdf_type(self, toy_store):
        optimizer = CostBasedJoinOrderOptimizer(statistics=toy_store.statistics)
        patterns = list(parse_query(self.QUERY).triple_patterns)
        plan = optimizer.optimize(patterns)
        assert plan.steps[0].pattern.is_rdf_type
        assert sorted(plan.order()) == list(range(7))
        seen = set(plan.steps[0].pattern.variable_names())
        for step in plan.steps[1:]:
            names = step.pattern.variable_names()
            assert any(name in seen for name in names)
            seen.update(names)
