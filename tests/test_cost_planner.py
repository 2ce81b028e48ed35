"""Tests for the cost-based planner: edge cases and differential checks.

Edge cases: unbound-predicate patterns, pure cartesian BGPs (with the
``CARTESIAN`` marker), single-pattern queries, empty stores, and the greedy
fallback above the DP threshold.  The differential block runs a query mix
through the DP and through the greedy fallback forced on every BGP
(``dp_threshold = 0``): the two join orders must give multiset-equal results
(join order may legally permute rows of an unordered SELECT), and each must
match the list-materializing oracle driven by the same planner byte for
byte.  The quality block bounds what the fallback costs on the two 11-pattern
paper queries, the only ones above the threshold.
"""

from __future__ import annotations

import pytest

from repro.bench.measure import measure_call
from repro.query.engine import QueryEngine
from repro.query.materializing import MaterializingQueryEngine
from repro.query.optimizer import CostBasedJoinOrderOptimizer, CostModel
from repro.query.plan import AccessPath
from repro.rdf.graph import Graph
from repro.sparql.parser import parse_query
from repro.store.succinct_edge import SuccinctEdge
from tests.conftest import EX


def patterns_of(query_text: str):
    return list(parse_query(query_text).triple_patterns)


class TestEdgeCases:
    def test_empty_bgp(self):
        plan = CostBasedJoinOrderOptimizer().optimize([])
        assert len(plan) == 0
        assert plan.method == "cost-dp"

    def test_single_pattern(self, toy_store):
        optimizer = CostBasedJoinOrderOptimizer(statistics=toy_store.statistics)
        plan = optimizer.optimize(
            patterns_of("SELECT * WHERE { ?x <http://example.org/name> ?n }")
        )
        assert len(plan) == 1
        step = plan.steps[0]
        assert step.join_type == "" and "join=" not in step.describe()
        assert not step.cartesian
        assert step.estimated_rows is not None
        assert step.estimated_cost is not None and step.estimated_cost > 0

    def test_unbound_predicate_pattern(self, toy_store):
        optimizer = CostBasedJoinOrderOptimizer(statistics=toy_store.statistics)
        plan = optimizer.optimize(
            patterns_of("SELECT * WHERE { ?s ?p ?o . ?s <http://example.org/age> ?a }")
        )
        full_scan = [s for s in plan.steps if s.access_path == AccessPath.PSO_FULL]
        assert len(full_scan) == 1
        assert full_scan[0].estimated_cost is not None
        # The highly selective age pattern (2 rows) must anchor the plan; the
        # full scan turns into per-row probes over the stored properties.
        assert plan.steps[0].access_path != AccessPath.PSO_FULL

    def test_pure_cartesian_bgp_is_marked(self, toy_store):
        optimizer = CostBasedJoinOrderOptimizer(statistics=toy_store.statistics)
        plan = optimizer.optimize(
            patterns_of(
                "SELECT * WHERE { ?x <http://example.org/name> ?n . "
                "?y <http://example.org/age> ?a }"
            )
        )
        assert len(plan) == 2
        assert plan.steps[1].cartesian
        assert "CARTESIAN" in plan.explain()

    def test_heuristic_planner_marks_cartesians_too(self, toy_store):
        # The greedy fallback flags a cross product like the DP does.
        optimizer = CostBasedJoinOrderOptimizer(statistics=toy_store.statistics)
        optimizer.dp_threshold = 0
        plan = optimizer.optimize(
            patterns_of(
                "SELECT * WHERE { ?x <http://example.org/name> ?n . "
                "?y <http://example.org/age> ?a }"
            )
        )
        assert plan.method == "cost-greedy"
        assert plan.steps[1].cartesian
        assert "CARTESIAN" in plan.explain()

    def test_cartesian_placed_last_when_possible(self, toy_store):
        # Three patterns, two connected: the disconnected one must not sit
        # between the joinable pair (the DP costs the cross product).
        optimizer = CostBasedJoinOrderOptimizer(statistics=toy_store.statistics)
        plan = optimizer.optimize(
            patterns_of(
                "SELECT * WHERE { ?x <http://example.org/memberOf> ?d . "
                "?x <http://example.org/name> ?n . "
                "?z <http://example.org/age> ?a }"
            )
        )
        assert [step.cartesian for step in plan.steps] == [False, False, True]

    def test_empty_store(self):
        store = SuccinctEdge.from_graph(Graph())
        engine = QueryEngine(store)
        plan = engine.plan(
            "SELECT * WHERE { ?x <http://example.org/p> ?y . ?y <http://example.org/q> ?z }"
        )
        assert len(plan) == 2
        result = store.query(
            "SELECT * WHERE { ?x <http://example.org/p> ?y . ?y <http://example.org/q> ?z }"
        )
        assert len(result) == 0

    def test_greedy_fallback_above_threshold(self, toy_store):
        optimizer = CostBasedJoinOrderOptimizer(statistics=toy_store.statistics)
        optimizer.dp_threshold = 2
        plan = optimizer.optimize(
            patterns_of(
                "SELECT * WHERE { ?x a <http://example.org/Person> . "
                "?x <http://example.org/memberOf> ?d . "
                "?d <http://example.org/subOrganizationOf> ?u }"
            )
        )
        assert plan.method == "cost-greedy"
        # The fallback still annotates rows and costs on every step.
        assert all(step.estimated_cost is not None for step in plan.steps)

    def test_greedy_fallback_defers_cartesians(self, toy_store):
        # A step sharing a variable with the prefix always beats a cross
        # product, so the disconnected pattern comes last from every start.
        optimizer = CostBasedJoinOrderOptimizer(statistics=toy_store.statistics)
        optimizer.dp_threshold = 0
        plan = optimizer.optimize(
            patterns_of(
                "SELECT * WHERE { ?z <http://example.org/age> ?a . "
                "?x <http://example.org/memberOf> ?d . "
                "?x <http://example.org/name> ?n }"
            )
        )
        assert plan.method == "cost-greedy"
        assert [step.cartesian for step in plan.steps] == [False, False, True]

    def test_greedy_fallback_plans_once(self, small_lubm_store, small_lubm_catalog, monkeypatch):
        # The fallback must not re-enter optimize(): the benchmark's
        # planner.plans_per_op counts optimize() calls.
        calls = []
        original = CostBasedJoinOrderOptimizer.optimize

        def counting(self, patterns):
            calls.append(len(patterns))
            return original(self, patterns)

        monkeypatch.setattr(CostBasedJoinOrderOptimizer, "optimize", counting)
        engine = QueryEngine(small_lubm_store, reasoning=False)
        plan = engine.plan(small_lubm_catalog.by_identifier()["M5"].sparql)
        assert plan.method == "cost-greedy"
        assert calls == [11]

    def test_default_is_dp_under_threshold(self, toy_store):
        optimizer = CostBasedJoinOrderOptimizer(statistics=toy_store.statistics)
        plan = optimizer.optimize(
            patterns_of(
                "SELECT * WHERE { ?x a <http://example.org/Person> . "
                "?x <http://example.org/memberOf> ?d }"
            )
        )
        assert plan.method == "cost-dp"

    def test_costs_are_monotone(self, toy_store):
        optimizer = CostBasedJoinOrderOptimizer(statistics=toy_store.statistics)
        plan = optimizer.optimize(
            patterns_of(
                "SELECT * WHERE { ?x a <http://example.org/Person> . "
                "?x <http://example.org/memberOf> ?d . "
                "?d <http://example.org/subOrganizationOf> ?u }"
            )
        )
        costs = [step.estimated_cost for step in plan.steps]
        assert all(b >= a for a, b in zip(costs, costs[1:]))


class TestCostModel:
    def test_defaults_are_positive(self):
        model = CostModel()
        assert model.pso_probe > 0 and model.pso_scan > 0 and model.pso_row > 0

    def test_calibration_on_a_real_store(self, toy_store):
        model = CostModel.calibrated(toy_store)
        assert model.pso_row > 0
        assert model.pso_scan > 0
        assert model.pso_probe > 0

    def test_calibration_survives_an_empty_store(self):
        store = SuccinctEdge.from_graph(Graph())
        model = CostModel.calibrated(store)
        assert model.pso_probe == CostModel().pso_probe  # defaults kept


class TestPlanCacheInvalidation:
    def test_engine_replans_after_write(self):
        from tests.conftest import build_toy_data, build_toy_ontology
        from repro.store.updatable import UpdatableSuccinctEdge

        store = UpdatableSuccinctEdge(
            SuccinctEdge.from_graph(build_toy_data(), ontology=build_toy_ontology())
        )
        engine = QueryEngine(store)
        query = "SELECT * WHERE { ?x <http://example.org/memberOf> ?d }"
        first = engine.plan(query)
        assert engine.plan(query) is first  # cached at the same version
        from repro.rdf.terms import Triple

        assert store.insert(Triple(EX.someone, EX.memberOf, EX.dept1))
        second = engine.plan(query)
        assert second is not first  # write bumped the statistics version


class TestGroupPlanRendering:
    def test_filter_bind_union_optional_placement(self, toy_store):
        engine = QueryEngine(toy_store)
        text = engine.explain(
            "SELECT * WHERE { ?x <http://example.org/name> ?n . "
            "OPTIONAL { ?x <http://example.org/age> ?a } "
            "BIND(?n AS ?label) FILTER(?n != \"Zed\") }"
        )
        assert "optional:" in text
        assert "bind(" in text and "?label" in text
        assert "filter(" in text
        # The optional's subplan is indented beneath its marker.
        optional_index = text.index("optional:")
        assert "\n  tp" in text[optional_index:]

    def test_union_branches_rendered(self, toy_store):
        engine = QueryEngine(toy_store)
        text = engine.explain(
            "SELECT * WHERE { { ?x <http://example.org/name> ?n } UNION "
            "{ ?x <http://example.org/age> ?n } }"
        )
        assert "union:" in text
        assert text.count("branch:") == 2

    def test_explain_matches_pipeline_plan(self, toy_store):
        engine = QueryEngine(toy_store)
        query = "SELECT DISTINCT ?x WHERE { ?x <http://example.org/name> ?n } LIMIT 3"
        assert engine.explain(query) == engine.pipeline_plan(query).explain()


DIFFERENTIAL_QUERIES = [
    "SELECT * WHERE { ?x a <http://example.org/Person> . ?x <http://example.org/name> ?n }",
    "SELECT * WHERE { ?x <http://example.org/memberOf> ?d . "
    "?d <http://example.org/subOrganizationOf> ?u . ?u a <http://example.org/University> }",
    "SELECT * WHERE { ?x <http://example.org/advisor> ?p . ?p a <http://example.org/Professor> . "
    "?x <http://example.org/name> ?n }",
    "SELECT ?n WHERE { ?x <http://example.org/name> ?n . ?y <http://example.org/age> ?a }",
    "SELECT * WHERE { ?s ?p ?o . ?s <http://example.org/age> ?a }",
    "SELECT ?x WHERE { ?x a <http://example.org/Student> } ORDER BY ?x",
    # The UNION / VALUES join against the oracle's nested loops, rows in
    # order: left rows that bind every shared variable and left rows an
    # OPTIONAL left without one, UNDEF cells in shared and unshared
    # columns, a shared variable no VALUES row binds throughout, and
    # duplicate right rows.
    "SELECT * WHERE { ?x <http://example.org/name> ?n . OPTIONAL { ?x <http://example.org/headOf> ?h } "
    "OPTIONAL { { ?x <http://example.org/age> ?a . ?x <http://example.org/headOf> ?h } UNION "
    "{ ?x <http://example.org/advisor> ?v . ?x <http://example.org/headOf> ?h } } }",
    "SELECT * WHERE { ?x <http://example.org/name> ?n . OPTIONAL { ?x <http://example.org/memberOf> ?d } "
    "VALUES ?d { <http://example.org/dept2> <http://example.org/dept1> } }",
    "SELECT * WHERE { ?x <http://example.org/name> ?n . OPTIONAL { ?x <http://example.org/memberOf> ?d } "
    "VALUES (?d ?x) { (<http://example.org/dept1> <http://example.org/alice>) "
    "(<http://example.org/dept2> UNDEF) (<http://example.org/dept1> UNDEF) } }",
    "SELECT * WHERE { ?x <http://example.org/name> ?n . OPTIONAL { ?x <http://example.org/memberOf> ?d } "
    "VALUES (?x ?d) { (<http://example.org/alice> <http://example.org/dept1>) "
    "(UNDEF <http://example.org/dept2>) (<http://example.org/bob> UNDEF) } }",
    "SELECT * WHERE { ?x <http://example.org/name> ?n . OPTIONAL { ?x <http://example.org/memberOf> ?d } "
    "VALUES ?d { <http://example.org/dept2> <http://example.org/dept1> <http://example.org/dept2> } }",
    "SELECT * WHERE { ?x <http://example.org/advisor> ?p . ?p <http://example.org/name> ?n . "
    "{ ?p <http://example.org/name> ?n } UNION { ?p <http://example.org/age> ?a } UNION "
    "{ ?p <http://example.org/name> ?n } }",
]


def _run(engine_class, store, query, reasoning, greedy):
    """(plan order, result) of ``query``; ``greedy`` forces the fallback."""
    engine = engine_class(store, reasoning=reasoning)
    if greedy:
        engine.optimizer.dp_threshold = 0
    plan = engine._plan_bgp(list(parse_query(query).where.bgp.patterns))
    if greedy and len(plan):
        assert plan.method == "cost-greedy"
    return plan.order(), engine.execute(query)


def _rows(result):
    return result.boolean if not hasattr(result, "to_tuples") else result.to_tuples()


def _check_dp_against_greedy(store, query, reasoning) -> bool:
    """Both planners agree, each byte-identical to the oracle; True iff orders differ."""
    orders, rows = {}, {}
    for greedy in (False, True):
        orders[greedy], streamed = _run(QueryEngine, store, query, reasoning, greedy)
        _, oracle = _run(MaterializingQueryEngine, store, query, reasoning, greedy)
        assert _rows(streamed) == _rows(oracle), (query, greedy)
        rows[greedy] = _rows(streamed)
    if isinstance(rows[False], bool):
        assert rows[False] == rows[True], query
    else:
        assert sorted(map(str, rows[False])) == sorted(map(str, rows[True])), query
    return orders[False] != orders[True]


class TestPlannerDifferential:
    @pytest.mark.parametrize("query", DIFFERENTIAL_QUERIES)
    @pytest.mark.parametrize("reasoning", [True, False])
    def test_cost_and_heuristic_agree(self, toy_store, query, reasoning):
        # The heuristic is the greedy fallback, forced on every BGP.
        _check_dp_against_greedy(toy_store, query, reasoning)

    @pytest.mark.parametrize("query", DIFFERENTIAL_QUERIES)
    @pytest.mark.parametrize("reasoning", [True, False])
    def test_dp_cost_never_exceeds_greedy_cost(self, toy_store, query, reasoning):
        # The DP is exhaustive over left-deep orders under the same model,
        # so the greedy can match its estimated cost but never beat it.
        patterns = list(parse_query(query).where.bgp.patterns)
        dp = CostBasedJoinOrderOptimizer(statistics=toy_store.statistics, reasoning=reasoning)
        greedy = CostBasedJoinOrderOptimizer(statistics=toy_store.statistics, reasoning=reasoning)
        greedy.dp_threshold = 0
        dp_cost = dp.optimize(patterns).steps[-1].estimated_cost
        greedy_cost = greedy.optimize(patterns).steps[-1].estimated_cost
        assert dp_cost <= greedy_cost + 1e-6

    def test_paper_queries_agree_on_small_lubm(self, small_lubm_store, small_lubm_catalog):
        differing = [
            query.identifier
            for query in small_lubm_catalog.extended_queries()
            if _check_dp_against_greedy(small_lubm_store, query.sparql, True)
        ]
        # The check compares two different join orders, not one order twice.
        assert differing


class TestGreedyFallbackQuality:
    """M5 and R6 (11 patterns) are the paper queries above ``dp_threshold``."""

    @pytest.mark.parametrize("identifier", ["M5", "R6"])
    def test_fallback_within_twice_the_dp_kernel_calls(
        self, small_lubm_store, small_lubm_catalog, identifier
    ):
        query = small_lubm_catalog.by_identifier()[identifier]
        greedy = QueryEngine(small_lubm_store, reasoning=query.requires_reasoning)
        dp = QueryEngine(small_lubm_store, reasoning=query.requires_reasoning)
        dp.optimizer.dp_threshold = 11
        assert greedy.plan(query.sparql).method == "cost-greedy"
        assert dp.plan(query.sparql).method == "cost-dp"
        greedy_run = measure_call(lambda: greedy.execute(query.sparql))
        dp_run = measure_call(lambda: dp.execute(query.sparql))
        assert sorted(map(str, greedy_run.result.to_tuples())) == sorted(
            map(str, dp_run.result.to_tuples())
        )
        assert greedy_run.kernel_calls <= 2 * dp_run.kernel_calls
