"""Tests for the streaming operator pipeline and the SPARQL 1.1 operators.

Covers the OPTIONAL null-handling edge cases, ORDER BY total-order
stability, aggregate empty-group semantics, VALUES/ASK, the differential
check streaming-vs-materializing on the paper's query workload, and the
early-termination guarantees (LIMIT/ASK consume fewer SDS kernel calls than
full materialization, and batches of rows no more than one row at a time).
"""

from __future__ import annotations

import itertools

import pytest

from repro.bench.measure import measure_call
from repro.query import operators as ops
from repro.query.engine import QueryEngine
from repro.query.materializing import MaterializingQueryEngine
from repro.query.plan import ModifierOp
from repro.rdf.terms import Literal
from repro.sparql.ast import AskQuery
from repro.query.tp_eval import StepProbes, TriplePatternEvaluator
from repro.sparql.bindings import BATCH_ROWS, AskResult, Binding
from repro.sparql.parser import parse_query
from tests.conftest import EX

NAME = f"<{EX.name}>"
AGE = f"<{EX.age}>"
MEMBER_OF = f"<{EX.memberOf}>"
ADVISOR = f"<{EX.advisor}>"


class TestOptional:
    def test_unmatched_rows_pass_with_unbound_variable(self, toy_store):
        result = toy_store.query(
            f"SELECT ?x ?a WHERE {{ ?x {NAME} ?n . OPTIONAL {{ ?x {AGE} ?a }} }}"
        )
        rows = dict(result.to_tuples())
        assert rows[EX.alice] == Literal(27)
        assert rows[EX.bob] == Literal(55)
        assert rows[EX.carol] is None  # carol has no age: unbound, row kept
        assert rows[EX.dave] is None

    def test_matched_rows_extend(self, toy_store):
        result = toy_store.query(
            f"SELECT ?x ?d WHERE {{ ?x {NAME} ?n . OPTIONAL {{ ?x {MEMBER_OF} ?d }} }}",
            reasoning=False,
        )
        rows = dict(result.to_tuples())
        assert rows[EX.alice] == EX.dept1
        assert rows[EX.bob] is None  # headOf only counts with reasoning

    def test_optional_respects_reasoning(self, toy_store):
        result = toy_store.query(
            f"SELECT ?x ?d WHERE {{ ?x {NAME} ?n . OPTIONAL {{ ?x {MEMBER_OF} ?d }} }}",
            reasoning=True,
        )
        rows = dict(result.to_tuples())
        assert rows[EX.bob] == EX.dept1  # headOf ⊑ worksFor ⊑ memberOf

    def test_filter_inside_optional_sees_outer_bindings(self, toy_store):
        result = toy_store.query(
            f"SELECT ?x ?a WHERE {{ ?x {NAME} ?n . "
            f"OPTIONAL {{ ?x {AGE} ?a . FILTER(?a > 30) }} }}"
        )
        rows = dict(result.to_tuples())
        assert rows[EX.alice] is None  # 27 filtered away inside the optional
        assert rows[EX.bob] == Literal(55)
        assert rows[EX.carol] is None

    def test_multi_pattern_optional_group(self, toy_store):
        result = toy_store.query(
            f"SELECT ?x ?an WHERE {{ ?x {NAME} ?n . "
            f"OPTIONAL {{ ?x {ADVISOR} ?adv . ?adv {NAME} ?an }} }}"
        )
        rows = dict(result.to_tuples())
        assert rows[EX.alice] == Literal("Bob")
        assert rows[EX.carol] == Literal("Dave")
        assert rows[EX.bob] is None and rows[EX.dave] is None

    def test_filter_on_unbound_optional_variable(self, toy_store):
        # bound() distinguishes matched from unmatched rows.
        result = toy_store.query(
            f"SELECT ?x WHERE {{ ?x {NAME} ?n . OPTIONAL {{ ?x {AGE} ?a }} "
            f"FILTER(!bound(?a)) }}"
        )
        assert result.to_set() == {(EX.carol,), (EX.dave,)}


class TestOrderBy:
    def test_ascending_numeric_order(self, toy_store):
        result = toy_store.query(f"SELECT ?x ?a WHERE {{ ?x {AGE} ?a }} ORDER BY ?a")
        assert [age.to_python() for _x, age in result.to_tuples()] == [27, 55]

    def test_descending_order(self, toy_store):
        result = toy_store.query(f"SELECT ?x ?a WHERE {{ ?x {AGE} ?a }} ORDER BY DESC(?a)")
        assert [age.to_python() for _x, age in result.to_tuples()] == [55, 27]

    def test_stability_on_equal_keys(self, toy_store):
        # All four people share the same (constant-free) key expression value
        # arity; sorting by a constant key must preserve the pipeline order.
        unsorted_result = toy_store.query(f"SELECT ?x ?n WHERE {{ ?x {NAME} ?n }}")
        sorted_result = toy_store.query(
            f"SELECT ?x ?n WHERE {{ ?x {NAME} ?n }} ORDER BY (1)"
        )
        assert sorted_result.to_tuples() == unsorted_result.to_tuples()

    def test_multi_key_mixed_directions(self, toy_store):
        result = toy_store.query(
            f"SELECT ?x ?a WHERE {{ ?x {NAME} ?n . OPTIONAL {{ ?x {AGE} ?a }} }} "
            "ORDER BY DESC(?a) ?x"
        )
        ages = [age.to_python() if age else None for _x, age in result.to_tuples()]
        assert ages == [55, 27, None, None]  # unbound sorts lowest, DESC puts it last
        tail = [x for x, age in result.to_tuples() if age is None]
        assert tail == sorted(tail)  # ties broken by the ascending second key

    def test_unbound_sorts_before_everything_ascending(self, toy_store):
        result = toy_store.query(
            f"SELECT ?x ?a WHERE {{ ?x {NAME} ?n . OPTIONAL {{ ?x {AGE} ?a }} }} "
            "ORDER BY ?a"
        )
        ages = [age for _x, age in result.to_tuples()]
        assert ages[0] is None and ages[1] is None

    def test_top_k_equals_sorted_prefix(self, small_lubm_store, small_lubm_catalog):
        query = small_lubm_catalog.by_identifier()["A2"].sparql  # ORDER BY ... LIMIT 10
        full = small_lubm_store.query(query.replace("LIMIT 10", ""))
        limited = small_lubm_store.query(query)
        assert limited.to_tuples() == full.to_tuples()[:10]

    def test_top_k_with_offset(self, toy_store):
        result = toy_store.query(
            f"SELECT ?n WHERE {{ ?x {NAME} ?n }} ORDER BY ?n LIMIT 2 OFFSET 1"
        )
        assert [n.lexical for (n,) in result.to_tuples()] == ["Bob", "Carol"]

    def test_order_by_limit_plans_top_k(self, toy_store):
        engine = QueryEngine(toy_store)
        plan = engine.pipeline_plan(
            f"SELECT ?n WHERE {{ ?x {NAME} ?n }} ORDER BY ?n LIMIT 2"
        )
        assert any(step.op == ModifierOp.TOP_K for step in plan.modifiers)
        # DISTINCT disables the top-k short circuit (full sort instead).
        plan = engine.pipeline_plan(
            f"SELECT DISTINCT ?n WHERE {{ ?x {NAME} ?n }} ORDER BY ?n LIMIT 2"
        )
        assert any(step.op == ModifierOp.SORT for step in plan.modifiers)
        assert all(step.op != ModifierOp.TOP_K for step in plan.modifiers)


class TestAggregates:
    def test_group_by_count(self, toy_store):
        result = toy_store.query(
            f"SELECT ?d (COUNT(?x) AS ?n) WHERE {{ ?x {MEMBER_OF} ?d }} "
            "GROUP BY ?d ORDER BY ?d",
            reasoning=True,
        )
        rows = [(d, n.to_python()) for d, n in result.to_tuples()]
        assert rows == [(EX.dept1, 2), (EX.dept2, 2)]

    def test_count_star_vs_count_var(self, toy_store):
        # COUNT(*) counts rows; COUNT(?a) skips rows where ?a is unbound.
        result = toy_store.query(
            f"SELECT (COUNT(*) AS ?rows) (COUNT(?a) AS ?ages) WHERE "
            f"{{ ?x {NAME} ?n . OPTIONAL {{ ?x {AGE} ?a }} }}"
        )
        ((rows, ages),) = result.to_tuples()
        assert (rows.to_python(), ages.to_python()) == (4, 2)

    def test_empty_group_semantics(self, toy_store):
        result = toy_store.query(
            "SELECT (COUNT(?v) AS ?c) (SUM(?v) AS ?s) (AVG(?v) AS ?av) "
            "(MIN(?v) AS ?mn) (MAX(?v) AS ?mx) (SAMPLE(?v) AS ?sm) "
            f"WHERE {{ ?x <{EX.noSuchProperty}> ?v }}"
        )
        ((count, total, avg, minimum, maximum, sample),) = result.to_tuples()
        assert count.to_python() == 0
        assert total.to_python() == 0
        assert avg.to_python() == 0
        assert minimum is None and maximum is None and sample is None

    def test_sum_avg_min_max(self, toy_store):
        result = toy_store.query(
            "SELECT (SUM(?a) AS ?s) (AVG(?a) AS ?av) (MIN(?a) AS ?mn) (MAX(?a) AS ?mx) "
            f"WHERE {{ ?x {AGE} ?a }}"
        )
        ((total, avg, minimum, maximum),) = result.to_tuples()
        assert total.to_python() == 82
        assert avg.to_python() == 41
        assert minimum.to_python() == 27
        assert maximum.to_python() == 55

    def test_non_numeric_sum_is_error(self, toy_store):
        result = toy_store.query(f"SELECT (SUM(?n) AS ?s) WHERE {{ ?x {NAME} ?n }}")
        ((total,),) = result.to_tuples()
        assert total is None  # type error: alias stays unbound

    def test_count_distinct(self, toy_store):
        result = toy_store.query(
            f"SELECT (COUNT(DISTINCT ?d) AS ?n) WHERE {{ ?x {MEMBER_OF} ?d }}",
            reasoning=True,
        )
        assert result.to_tuples()[0][0].to_python() == 2

    def test_count_distinct_star_counts_distinct_solutions(self, toy_store):
        # The UNION duplicates every solution; COUNT(DISTINCT *) must not.
        query = (
            f"SELECT (COUNT(DISTINCT *) AS ?d) (COUNT(*) AS ?n) WHERE "
            f"{{ {{ ?x {AGE} ?v }} UNION {{ ?x {AGE} ?v }} }}"
        )
        ((distinct_rows, rows),) = toy_store.query(query).to_tuples()
        assert distinct_rows.to_python() == 2
        assert rows.to_python() == 4

    def test_aggregate_expression_projection(self, toy_store):
        # Composite expression around an aggregate: (SUM(?a) / COUNT(?a)).
        result = toy_store.query(
            f"SELECT (SUM(?a) / COUNT(?a) AS ?mean) WHERE {{ ?x {AGE} ?a }}"
        )
        assert float(result.to_tuples()[0][0].lexical) == pytest.approx(41.0)

    def test_erroring_aggregate_does_not_alias_the_next_one(self, toy_store):
        # MAX over an empty set errors; the composite expression must come
        # out unbound — not silently reuse the next aggregate's value.
        result = toy_store.query(
            f"SELECT (MAX(?missing) + COUNT(*) AS ?z) (COUNT(*) AS ?n) "
            f"WHERE {{ ?x {NAME} ?n0 }}"
        )
        ((z, n),) = result.to_tuples()
        assert z is None
        assert n.to_python() == 4


class TestValuesAndAsk:
    def test_values_single_variable(self, toy_store):
        result = toy_store.query(
            f"SELECT ?x ?d WHERE {{ ?x {MEMBER_OF} ?d . VALUES ?d {{ <{EX.dept2}> }} }}",
            reasoning=False,
        )
        assert result.to_set() == {(EX.carol, EX.dept2)}

    def test_values_multi_variable_with_undef(self, toy_store):
        result = toy_store.query(
            f"SELECT ?x ?d WHERE {{ ?x {MEMBER_OF} ?d . "
            f"VALUES (?x ?d) {{ (<{EX.alice}> <{EX.dept1}>) (<{EX.carol}> UNDEF) }} }}",
            reasoning=False,
        )
        assert result.to_set() == {(EX.alice, EX.dept1), (EX.carol, EX.dept2)}

    def test_ask_true_and_false(self, toy_store):
        assert bool(toy_store.query(f"ASK {{ ?x {AGE} ?a . FILTER(?a > 50) }}"))
        assert not bool(toy_store.query(f"ASK {{ ?x {AGE} ?a . FILTER(?a > 99) }}"))
        assert toy_store.query(f"ASK {{ ?x {AGE} ?a }}") == AskResult(True)

    def test_ask_method_rejects_select(self, toy_store):
        engine = QueryEngine(toy_store)
        with pytest.raises(TypeError):
            engine.ask(f"SELECT ?x WHERE {{ ?x {AGE} ?a }}")
        assert isinstance(parse_query(f"ASK {{ ?x {AGE} ?a }}"), AskQuery)

    def test_baseline_ask_honours_reasoning(self, toy_data, toy_ontology):
        # ?x memberOf ?d only matches bob's headOf triple through the
        # property hierarchy — the baseline's ASK must apply the rewrite.
        from repro.baselines.multi_index_store import MultiIndexMemoryStore

        baseline = MultiIndexMemoryStore()
        baseline.load(toy_data, ontology=toy_ontology)
        ask = f"ASK {{ <{EX.bob}> {MEMBER_OF} ?d }}"
        assert not bool(baseline.query(ask, reasoning=False))
        assert bool(baseline.query(ask, reasoning=True))


class TestDifferentialStreamingVsMaterializing:
    """Streaming and materializing engines must agree byte-for-byte."""

    @pytest.fixture(scope="class")
    def engines(self, small_lubm_store):
        def pair(reasoning):
            return (
                QueryEngine(small_lubm_store, reasoning=reasoning),
                MaterializingQueryEngine(small_lubm_store, reasoning=reasoning),
            )

        return {True: pair(True), False: pair(False)}

    def test_paper_queries_byte_identical(self, engines, small_lubm_catalog):
        for query in small_lubm_catalog.all_queries():
            reasoning = query.requires_reasoning
            streaming, materializing = engines[reasoning]
            expected = materializing.execute(query.sparql)
            actual = streaming.execute(query.sparql)
            assert actual.variables == expected.variables, query.identifier
            assert actual.to_tuples() == expected.to_tuples(), query.identifier

    def test_analytics_queries_byte_identical(self, engines, small_lubm_catalog):
        for query in small_lubm_catalog.analytics_queries():
            streaming, materializing = engines[False]
            expected = materializing.execute(query.sparql)
            actual = streaming.execute(query.sparql)
            if isinstance(expected, AskResult):
                assert actual == expected, query.identifier
                continue
            assert actual.to_tuples() == expected.to_tuples(), query.identifier

    def test_default_join_policy_picks_operator(self, engines, monkeypatch):
        """Every BGP step runs the bind join: one scans the first pattern, one joins."""
        query = (
            "PREFIX lubm: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>\n"
            "SELECT ?x ?p ?d WHERE { ?x lubm:advisor ?p . ?p lubm:worksFor ?d }"
        )
        calls = 0
        original = ops.bind_join

        def spy(*args, **kwargs):
            nonlocal calls
            calls += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(ops, "bind_join", spy)
        streaming, materializing = engines[False]
        actual = streaming.execute(query)
        expected = materializing.execute(query)
        assert len(actual) > 0
        assert actual.to_tuples() == expected.to_tuples()
        assert calls == 2


class TestEarlyTermination:
    """LIMIT/ASK pipelines must do less SDS work than full materialization."""

    @pytest.fixture(scope="class")
    def join_query(self):
        # A two-pattern join whose second pattern is probed once per left row:
        # early termination skips most of the probes.
        return (
            "PREFIX lubm: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>\n"
            "SELECT ?x ?n WHERE { ?x lubm:worksFor ?d . ?x lubm:name ?n } LIMIT 5"
        )

    def test_limit_uses_fewer_kernel_calls(self, small_lubm_store, join_query):
        streaming = QueryEngine(small_lubm_store, reasoning=False)
        materializing = MaterializingQueryEngine(small_lubm_store, reasoning=False)
        streamed = measure_call(lambda: streaming.execute(join_query))
        materialized = measure_call(lambda: materializing.execute(join_query))
        assert len(streamed.result) == len(materialized.result) == 5
        assert streamed.result.to_tuples() == materialized.result.to_tuples()
        assert streamed.kernel_calls < materialized.kernel_calls

    def test_ask_uses_fewer_kernel_calls(self, small_lubm_store):
        ask = (
            "PREFIX lubm: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>\n"
            "ASK { ?x lubm:worksFor ?d . ?x lubm:name ?n }"
        )
        streaming = QueryEngine(small_lubm_store, reasoning=False)
        materializing = MaterializingQueryEngine(small_lubm_store, reasoning=False)
        streamed = measure_call(lambda: streaming.execute(ask))
        materialized = measure_call(lambda: materializing.execute(ask))
        assert bool(streamed.result) and bool(materialized.result)
        assert streamed.kernel_calls < materialized.kernel_calls

    def test_stream_is_lazy(self, small_lubm_store, join_query):
        engine = QueryEngine(small_lubm_store, reasoning=False)
        full_query = join_query.replace(" LIMIT 5", "")
        prefix = measure_call(
            lambda: list(itertools.islice(engine.stream(full_query), 3))
        )
        full = measure_call(lambda: engine.execute(full_query))
        assert len(prefix.result) == 3
        assert len(full.result) > 3
        assert prefix.kernel_calls < full.kernel_calls

    def test_pipeline_construction_is_free(self, small_lubm_store):
        # Building the pipeline — UNION branches included — must not touch
        # the store before the first pull.
        union_query = (
            "PREFIX lubm: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>\n"
            "SELECT ?x WHERE { { ?x lubm:worksFor ?d } UNION { ?x lubm:name ?n } }"
        )
        engine = QueryEngine(small_lubm_store, reasoning=False)
        construction = measure_call(lambda: engine.stream(union_query))
        assert construction.kernel_calls == 0
        first = measure_call(lambda: next(construction.result))
        assert first.kernel_calls > 0

    def test_limit_over_m4_probes_no_more_than_one_row_at_a_time(
        self, small_lubm_store, small_lubm_catalog
    ):
        engine = QueryEngine(small_lubm_store, reasoning=False)
        m4 = small_lubm_catalog.by_identifier()["M4"].sparql
        limited = f"{m4} LIMIT 200"
        engine.execute(limited)  # warm the plan and the property lookups
        batched = measure_call(lambda: engine.execute(limited))

        def one_step(pattern, bindings):
            probes = StepProbes()  # one run-bucket state per bind-join step
            for binding in bindings:
                yield from engine.evaluator.evaluate(pattern, binding, probes)

        def one_row_at_a_time():
            solutions = iter([Binding()])
            for step in engine.plan(m4).steps:
                solutions = one_step(step.pattern, solutions)
            return list(itertools.islice(solutions, 200))

        reference = measure_call(one_row_at_a_time)
        names = batched.result.variables
        assert batched.result.to_tuples() == [
            tuple(binding.get(name) for name in names) for binding in reference.result
        ]
        assert len(batched.result) == 200
        assert batched.kernel_calls <= reference.kernel_calls

    def test_ask_stops_after_the_first_one_row_batch(self, small_lubm_store, monkeypatch):
        ask = (
            "PREFIX lubm: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>\n"
            "ASK { ?x lubm:worksFor ?d . ?x lubm:name ?n }"
        )
        sizes = []
        original = TriplePatternEvaluator.evaluate_many

        def recorded(self, pattern, batches, wanted=None, probes=None):
            for batch in original(self, pattern, batches, wanted, probes):
                sizes.append(len(batch))
                yield batch

        monkeypatch.setattr(TriplePatternEvaluator, "evaluate_many", recorded)
        assert QueryEngine(small_lubm_store, reasoning=False).ask(ask)
        assert sizes == [1, 1]  # each step yielded one batch of one row

    def test_batches_grow_from_one_row(self, small_lubm_store):
        engine = QueryEngine(small_lubm_store, reasoning=False)
        scan = "SELECT ?x ?n WHERE { ?x <http://swat.cse.lehigh.edu/onto/univ-bench.owl#name> ?n }"
        sizes = [len(batch) for batch in engine.stream(scan)]
        assert sizes[:6] == [1, 4, 16, 64, BATCH_ROWS, BATCH_ROWS]
        assert max(sizes) == BATCH_ROWS and min(sizes) > 0
        assert sum(sizes) == len(engine.execute(scan))
