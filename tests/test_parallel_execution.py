"""ParallelExecutor / ParallelQueryEngine: ordered fan-out, byte-identity.

The parallel engine's contract is *no observable difference*: identical
plans (the optimizer keeps its sequential runtime estimator) and identical
emission order (ordered batch gather; property-major, shard-minor leaf
scatter).  The differential matrix checks that on the full paper workload
against the sequential engine over the monolithic store.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.bench.measure import measure_call
from repro.query.engine import QueryEngine
from repro.query.parallel import ParallelExecutor, ParallelQueryEngine
from repro.query.paths import merge_expansions
from repro.query.tp_eval import TriplePatternEvaluator
from repro.query.units import UNIT_OPS, execute_unit
from repro.rdf.terms import URI
from repro.sparql.ast import TriplePattern
from repro.sparql.bindings import AskResult, Batch, Binding, batches, rows
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
    parallel = ParallelQueryEngine(sharded, reasoning=query.requires_reasoning)
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

    with ParallelExecutor(sharded) as executor:
        parallel_out = list(rows(executor.evaluate_many(pattern, batches(upstream))))
    sequential_out = list(rows(sequential.evaluate_many(pattern, batches(upstream))))
    assert parallel_out == sequential_out


def _flat(stream):
    """The layouts of a batch stream and its rows, in order."""
    found = list(stream)
    return {batch.layout for batch in found}, [row for batch in found for row in batch.rows]


@pytest.mark.parametrize("reasoning", [True, False])
def test_leaf_scatter_matches_sequential_scan(sharded, small_lubm_store, reasoning):
    # A group's seed fans out per (property × shard): the gathered id rows
    # and their layout are the sequential step's own.
    works_for = small_lubm_store.properties.locate(URI(f"{LUBM}worksFor"))
    _, department = next(iter(small_lubm_store.object_store.pairs_for_property(works_for)))
    name = small_lubm_store.properties.locate(URI(f"{LUBM}name"))
    _, literal = next(iter(small_lubm_store.datatype_store.pairs_for_property(name)))
    sequential = TriplePatternEvaluator(small_lubm_store, reasoning=reasoning)
    seed = Batch(Binding().layout, [()])
    for fragment in (
        f"?x <{LUBM}worksFor> ?y",  # (?s, p, ?o) two-layout scan
        f"?x <{LUBM}memberOf> ?y",  # reasoning: property interval
        f"?x <{LUBM}worksFor> ?x",  # the diagonal of a scan
        f"?x <{LUBM}worksFor> <{small_lubm_store.instances.extract(department)}>",  # (?s, p, o)
        f"?x <{LUBM}name> {literal.n3()}",  # (?s, p, literal)
        f"?x a <{LUBM}Student>",  # rdf:type concept interval
    ):
        pattern = _pattern(fragment)
        with ParallelExecutor(sharded, reasoning=reasoning) as executor:
            assert executor._try_scatter(pattern) is not None
            scattered = _flat(executor.evaluate_many(pattern, [seed]))
        assert scattered == _flat(sequential.evaluate_many(pattern, [seed])), fragment


def test_bound_subject_is_pruned_not_scattered(sharded, small_lubm):
    subject = small_lubm.landmark_uri("student_takes_4")
    pattern = _pattern(f"<{subject}> <{LUBM}takesCourse> ?c")
    with ParallelExecutor(sharded) as executor:
        assert executor._try_scatter(pattern) is None  # pruning path
        results = list(executor.evaluate(pattern, Binding()))
    assert len(results) == 4  # the S1 landmark cardinality


def test_single_shard_store_never_scatters(small_lubm_store):
    pattern = _pattern(f"?x <{LUBM}worksFor> ?y")
    with ParallelExecutor(small_lubm_store) as executor:
        assert executor._try_scatter(pattern) is None
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


def test_one_eval_many_unit_per_upstream_batch(two_shard_lubm, small_lubm_catalog, monkeypatch):
    # Each bind-join step's units are counted against the batches its
    # upstream yields: one ``eval_many`` per batch, and per-shard scatter
    # units only for a group's seed (the one empty row).
    records = []
    active = []  # the record of each step being resumed, innermost last
    submit, evaluate_many = ParallelExecutor._submit, ParallelExecutor.evaluate_many

    def counting_submit(self, session, op, args):
        active[-1][op] += 1
        return submit(self, session, op, args)

    def tracked(self, pattern, upstream, *rest):
        record = Counter()
        records.append(record)

        def counted():
            for batch in upstream:
                record["seed" if not batch.layout.names and len(batch.rows) == 1 else "batch"] += 1
                yield batch

        stream = evaluate_many(self, pattern, counted(), *rest)
        while True:
            active.append(record)
            try:
                found = next(stream, None)
            finally:
                active.pop()
            if found is None:
                return
            yield found

    monkeypatch.setattr(ParallelExecutor, "_submit", counting_submit)
    monkeypatch.setattr(ParallelExecutor, "evaluate_many", tracked)
    for identifier in ("M1", "M2", "M3", "M4", "M5"):
        query = small_lubm_catalog.by_identifier()[identifier]
        with ParallelQueryEngine(two_shard_lubm, reasoning=query.requires_reasoning) as engine:
            engine.execute(query.sparql)
    for record in records:
        assert record["eval_many"] == record["batch"], record
        scattered = sum(count for op, count in record.items() if op not in ("eval_many", "seed", "batch"))
        assert not scattered or record["seed"] == 1, record
    assert sum(record["eval_many"] for record in records) > len(records)
    assert any(record["pairs"] for record in records)


#: SDS kernel calls of M4 under LIMIT on the 2-shard thread engine when bind
#: joins sent per-binding units sized by a batch-size knob, with the units
#: still in flight at the LIMIT allowed to finish.
M4_LIMIT_CALLS = {1: 98, 10: 98}


@pytest.mark.parametrize("limit", [1, 10])
def test_limit_takes_the_sequential_rows(two_shard_lubm, small_lubm_store, small_lubm_catalog, limit):
    text = f"{small_lubm_catalog.by_identifier()['M4'].sparql} LIMIT {limit}"
    expected = QueryEngine(small_lubm_store).execute(text).to_tuples()
    assert len(expected) == limit
    engine = ParallelQueryEngine(two_shard_lubm)
    try:
        engine.execute(text)  # warm the plan cache and the property lookups
        engine.close()

        def run():
            result = engine.execute(text)
            engine.close()  # waits for the units still in flight
            return result

        measured = measure_call(run)
    finally:
        engine.close()
    assert measured.result.to_tuples() == expected
    assert measured.kernel_calls <= M4_LIMIT_CALLS[limit]


# --------------------------------------------------------------------------- #
# per-shard cardinalities: scatter pruning
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
        # No shard argument: the sequential step's batches, up to ``wanted`` rows.
        sequential = TriplePatternEvaluator(small_lubm_store)
        for pattern, batch, wanted in unit_cases[op]:
            expected, count = [], 0
            for found in sequential.evaluate_many(pattern, [batch], wanted):
                if wanted is not None and count >= wanted:
                    break
                expected.append((found.layout, found.rows))
                count += len(found)
            reply = execute_unit(two_shard_lubm, op, (pattern, batch, wanted), True)
            assert [(found.layout, found.rows) for found in reply] == expected
        return
    whole = [args for args in unit_cases[op] if args[-1] is None]
    assert whole
    for args in whole:
        per_shard = [execute_unit(two_shard_lubm, op, args[:-1] + (index,), True) for index in (0, 1)]
        expected = execute_unit(two_shard_lubm, op, args, True)
        assert _merged(op, per_shard) == expected
        assert expected == execute_unit(small_lubm_store, op, args, True)
