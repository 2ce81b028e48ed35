"""ParallelExecutor / ParallelQueryEngine: ordered fan-out, byte-identity.

The parallel engine's contract is *no observable difference*: identical
plans (the optimizer keeps its sequential runtime estimator) and identical
emission order (ordered batch gather; property-major, shard-minor leaf
scatter).  The differential matrix checks that on the full paper workload
against the sequential engine over the monolithic store.
"""

from __future__ import annotations

import pytest

from repro.query.engine import QueryEngine
from repro.query.parallel import ParallelExecutor, ParallelQueryEngine
from repro.query.paths import merge_expansions
from repro.query.tp_eval import TriplePatternEvaluator
from repro.query.units import UNIT_OPS, execute_unit
from repro.sparql.ast import TriplePattern, Variable
from repro.sparql.bindings import AskResult, Binding, batches, rows
from repro.sparql.parser import parse_query
from repro.store.sharding import ShardedStore

ALL_QUERY_IDS = (
    [f"S{i}" for i in range(1, 16)]
    + [f"M{i}" for i in range(1, 6)]
    + [f"R{i}" for i in range(1, 7)]
    + [f"A{i}" for i in range(1, 7)]
)


@pytest.fixture(scope="module")
def sharded(small_lubm_store):
    return ShardedStore.from_store(small_lubm_store, shards=4)


def _rows(result):
    if isinstance(result, AskResult):
        return result.boolean
    return (result.variables, result.to_tuples())


@pytest.mark.parametrize("identifier", ALL_QUERY_IDS)
def test_parallel_engine_byte_identical(sharded, small_lubm_store, small_lubm_catalog, identifier):
    # Engines are per-query so both reasoning modes are exercised; the heavy
    # part (store construction) is module-scoped.
    query = small_lubm_catalog.by_identifier()[identifier]
    sequential = QueryEngine(small_lubm_store, reasoning=query.requires_reasoning)
    parallel = ParallelQueryEngine(sharded, reasoning=query.requires_reasoning, batch_size=7)
    try:
        assert _rows(parallel.execute(query.sparql)) == _rows(sequential.execute(query.sparql))
    finally:
        parallel.close()


# --------------------------------------------------------------------------- #
# executor-level behaviour
# --------------------------------------------------------------------------- #

LUBM = "http://swat.cse.lehigh.edu/onto/univ-bench.owl#"


def _pattern(sparql_fragment: str) -> TriplePattern:
    query = parse_query(f"SELECT * WHERE {{ {sparql_fragment} }}")
    return query.where.bgp.patterns[0]


def test_evaluate_many_preserves_upstream_order(sharded, small_lubm_store):
    pattern = _pattern(f"?x <{LUBM}name> ?n")
    sequential = TriplePatternEvaluator(small_lubm_store)
    upstream_pattern = _pattern(f"?x <{LUBM}worksFor> ?d")
    upstream = list(sequential.evaluate(upstream_pattern, Binding()))
    assert len(upstream) > 20

    with ParallelExecutor(sharded, batch_size=5) as executor:
        parallel_out = list(rows(executor.evaluate_many(pattern, batches(upstream))))
    sequential_out = list(rows(sequential.evaluate_many(pattern, batches(upstream))))
    assert parallel_out == sequential_out


def test_leaf_scatter_matches_sequential_scan(sharded, small_lubm_store):
    sequential = TriplePatternEvaluator(small_lubm_store)
    for fragment in (
        f"?x <{LUBM}worksFor> ?y",  # (?s, p, ?o) two-layout scan
        f"?x <{LUBM}memberOf> ?y",  # reasoning: property interval
        f"?x a <{LUBM}Student>",  # rdf:type concept interval
    ):
        pattern = _pattern(fragment)
        with ParallelExecutor(sharded, batch_size=5) as executor:
            scattered = list(executor.evaluate(pattern, Binding()))
        assert scattered == list(sequential.evaluate(pattern, Binding()))


def test_bound_subject_is_pruned_not_scattered(sharded, small_lubm):
    subject = small_lubm.landmark_uri("student_takes_4")
    pattern = _pattern(f"<{subject}> <{LUBM}takesCourse> ?c")
    with ParallelExecutor(sharded) as executor:
        assert executor._try_scatter(pattern, Binding()) is None  # pruning path
        results = list(executor.evaluate(pattern, Binding()))
    assert len(results) == 4  # the S1 landmark cardinality


def test_single_shard_store_never_scatters(small_lubm_store):
    pattern = _pattern(f"?x <{LUBM}worksFor> ?y")
    with ParallelExecutor(small_lubm_store) as executor:
        assert executor._try_scatter(pattern, Binding()) is None
        assert list(executor.evaluate(pattern, Binding()))


def test_executor_close_is_idempotent_and_reusable(sharded):
    executor = ParallelExecutor(sharded)
    pattern = _pattern(f"?x a <{LUBM}Department>")
    first = list(executor.evaluate(pattern, Binding()))
    executor.close()
    executor.close()  # idempotent
    # A later call lazily re-creates the pool.
    assert list(executor.evaluate(pattern, Binding())) == first
    executor.close()


def test_estimates_delegate_to_sequential(sharded, small_lubm_store):
    pattern = _pattern(f"?x <{LUBM}worksFor> ?y")
    with ParallelExecutor(sharded) as executor:
        assert executor.estimate_cardinality(pattern) == TriplePatternEvaluator(
            small_lubm_store
        ).estimate_cardinality(pattern)


# --------------------------------------------------------------------------- #
# per-shard cardinalities (PR 5): scatter pruning + batch sizing
# --------------------------------------------------------------------------- #


def test_shard_property_cardinalities_sum_to_monolithic(sharded, small_lubm_store):
    for property_id in list(small_lubm_store.object_store.properties)[:5]:
        per_shard = sharded.shard_property_cardinalities(property_id)
        assert len(per_shard) == sharded.shard_count
        expected = small_lubm_store.object_store.count_triples_with_property(
            property_id
        ) + small_lubm_store.datatype_store.count_triples_with_property(property_id)
        assert sum(per_shard) == expected


def test_shard_concept_cardinalities_sum_to_monolithic(sharded, small_lubm_store):
    concept_ids = sorted({c for _s, c in small_lubm_store.type_store.iter_triples()})[:3]
    for concept_id in concept_ids:
        per_shard = sharded.shard_concept_cardinalities(concept_id, concept_id + 1)
        assert sum(per_shard) == small_lubm_store.type_store.count_concept(concept_id)


def test_scatter_skips_empty_shards(sharded):
    executor = ParallelExecutor(sharded)
    try:
        property_id = next(iter(sharded.object_store.properties))
        counts = executor._property_shard_counts(property_id)
        holding = executor._shards_holding(counts)
        assert len(holding) == len([c for c in counts if c])
        # A second lookup is served from the epoch-keyed cache.
        assert executor._property_shard_counts(property_id) is counts
    finally:
        executor.close()


def test_adaptive_batch_sizing(sharded):
    executor = ParallelExecutor(sharded, batch_size=64)
    try:
        # A bound-object probe has sub-row fan-out: keep the static batch.
        selective = _pattern("?s <http://swat.cse.lehigh.edu/onto/univ-bench.owl#headOf> ?o")
        assert executor._sized_batch(selective) == 64
        # An unbound-predicate pattern cannot be estimated: static batch too.
        unknown = _pattern("?s ?p ?o")
        assert executor._sized_batch(unknown) == 64
    finally:
        executor.close()


def test_adaptive_batch_shrinks_for_high_fanout(small_lubm_store):
    executor = ParallelExecutor(small_lubm_store)
    try:
        pattern = _pattern("?s <http://swat.cse.lehigh.edu/onto/univ-bench.owl#name> ?o")
        estimate = executor._cardinality.estimate_pattern(pattern)
        sized = executor._sized_batch(pattern)
        fanout = estimate.rows / max(1.0, estimate.subject_distinct)
        if fanout > 4:  # only high-fan-out patterns shrink
            assert sized < executor.batch_size
        assert sized >= 8
    finally:
        executor.close()


# --------------------------------------------------------------------------- #
# the work-unit vocabulary, inline (the process and cluster suites compare
# their transports' decoded replies against these same inline replies)
# --------------------------------------------------------------------------- #


def _merged(op, replies):
    """Per-shard replies combined the way the scatter path gathers them."""
    if op == "expand":
        return merge_expansions(replies)
    if op == "pairs":
        return tuple([row for reply in replies for row in reply[layout]] for layout in (0, 1))
    return [row for reply in replies for row in reply]


@pytest.mark.parametrize("op", UNIT_OPS)
def test_inline_units_partition_the_whole_store(op, unit_cases, two_shard_lubm, small_lubm_store):
    if op == "eval_many":
        # No shard argument: a batch must equal the sequential evaluator.
        sequential = TriplePatternEvaluator(small_lubm_store)
        for pattern, bindings in unit_cases[op]:
            expected = [row for binding in bindings for row in sequential.evaluate(pattern, binding)]
            assert execute_unit(two_shard_lubm, op, (pattern, bindings), True) == expected
        return
    whole = [args for args in unit_cases[op] if args[-1] is None]
    assert whole
    for args in whole:
        per_shard = [execute_unit(two_shard_lubm, op, args[:-1] + (index,), True) for index in (0, 1)]
        expected = execute_unit(two_shard_lubm, op, args, True)
        assert _merged(op, per_shard) == expected
        assert expected == execute_unit(small_lubm_store, op, args, True)
