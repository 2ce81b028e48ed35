"""Set-at-a-time bind joins: per-step run buckets in ``evaluate_many``.

A bind-join step that keeps probing one run decodes it once into an id-keyed
bucket (:class:`repro.query.tp_eval.StepProbes`).  The bucket must be
invisible in the answers: for the paper's BGP and reasoning queries the
ordered rows equal the probe path's (the same engine with the buckets
switched off) and, as multisets, the materializing oracle's — on a built
store, a mapped image, a 2-shard store and an updatable store whose
uncompacted delta inserts and tombstones triples of the bucketed runs.

The rules that keep a bucket from costing more than it saves are pinned by
counting the run decodes (``pairs_for_property`` / ``subjects_of_interval``).
"""

from __future__ import annotations

import collections
import math

import pytest

from repro.query.engine import QueryEngine
from repro.query.materializing import MaterializingQueryEngine
from repro.query.tp_eval import StepProbes, TriplePatternEvaluator
from repro.rdf.graph import Graph
from repro.rdf.namespaces import LUBM, RDF_TYPE
from repro.rdf.terms import Literal, Triple, URI
from repro.sparql.ast import TriplePattern, Variable
from repro.sparql.bindings import Binding, batches, rows
from repro.store.delta import CompactionPolicy
from repro.store.persistence import load_store, save_store_image
from repro.store.rdftype_store import RDFTypeStore
from repro.store.sharding import ShardedStore
from repro.store.succinct_edge import SuccinctEdge
from repro.store.triple_store import PSOLayout

QUERY_IDS = [f"M{i}" for i in range(1, 6)] + [f"R{i}" for i in range(1, 7)]
STORE_KINDS = ("built", "mapped", "sharded", "updatable")
NEW = "http://example.org/new/"


def _join(evaluator, pattern, bindings):
    """The bind-join step of ``pattern`` over ``bindings``, as bindings."""
    return list(rows(evaluator.evaluate_many(pattern, batches(bindings))))


def _probe_only(self, key, item, probe, size, build):
    """``StepProbes.answer`` with the buckets switched off: every probe hits the store."""
    return probe()


def _live_writes(store, graph: Graph) -> None:
    """Tombstone and insert ``memberOf`` / ``worksFor`` triples and GraduateStudent typings."""
    member_of = [t for t in graph if t.predicate == LUBM.memberOf]
    works_for = [t for t in graph if t.predicate == LUBM.worksFor]
    graduates = [
        t for t in graph if t.predicate == RDF_TYPE and t.object == LUBM.GraduateStudent
    ]
    departments = sorted({t.object for t in member_of}, key=str)
    for triples in (member_of, works_for, graduates):
        for triple in triples[::4]:
            assert store.delete(triple)
    for index, triple in enumerate(member_of[1::5]):
        # An existing student joins a second department; a new one joins too.
        store.insert(Triple(triple.subject, LUBM.memberOf, departments[index % len(departments)]))
        newcomer = URI(f"{NEW}student{index}")
        store.insert(Triple(newcomer, LUBM.memberOf, departments[(index + 1) % len(departments)]))
        store.insert(Triple(newcomer, RDF_TYPE, LUBM.GraduateStudent))
    for index, triple in enumerate(works_for[1::3]):
        store.insert(Triple(triple.subject, LUBM.worksFor, departments[-1 - index % len(departments)]))
        store.insert(Triple(URI(f"{NEW}worker{index}"), LUBM.worksFor, triple.object))
    for triple in graduates[1::6]:
        store.insert(Triple(triple.subject, RDF_TYPE, LUBM.UndergraduateStudent))


@pytest.fixture(scope="module")
def stores(small_lubm, tmp_path_factory):
    built = SuccinctEdge.from_graph(small_lubm.graph, ontology=small_lubm.ontology)
    path = tmp_path_factory.mktemp("step_buckets") / "small_lubm.sedg"
    save_store_image(built, str(path), atomic=True)
    mapped = load_store(str(path), mmap=True)
    assert mapped.image is not None and mapped.image.mapped
    # The live store gets its own dictionaries: inserts extend them.
    live = SuccinctEdge.from_graph(small_lubm.graph, ontology=small_lubm.ontology).updatable(
        CompactionPolicy(max_delta_operations=None, max_delta_ratio=None)
    )
    _live_writes(live, small_lubm.graph)
    assert live.snapshot_info()["compaction_epoch"] == 0
    return {
        "built": built,
        "mapped": mapped,
        "sharded": ShardedStore.from_store(built, shards=2),
        "updatable": live,
    }


@pytest.fixture
def decodes(monkeypatch):
    """Count run decodes: PSO run scans and concept-interval subject lists."""
    counts = collections.Counter()
    for owner, name in ((PSOLayout, "pairs_for_property"), (RDFTypeStore, "subjects_of_interval")):
        original = getattr(owner, name)

        def counted(self, *args, _original=original, _name=name):
            counts[_name] += 1
            return _original(self, *args)

        monkeypatch.setattr(owner, name, counted)
    return counts


@pytest.fixture
def extra_decodes(decodes, monkeypatch):
    """Run decodes ``run()`` costs beyond the probe path, whose rows it must equal."""

    def measure(run):
        decodes.clear()
        rows = run()
        bucketed = sum(decodes.values())
        with monkeypatch.context() as patch:
            patch.setattr(StepProbes, "answer", _probe_only)
            decodes.clear()
            assert run() == rows
            return bucketed - sum(decodes.values())

    return measure


@pytest.fixture
def builds(monkeypatch):
    """Count the buckets ``StepProbes`` builds."""
    counts = collections.Counter()
    original = StepProbes.answer

    def answer(self, key, item, probe, size, build):
        def counted_build():
            counts[key[0]] += 1
            return build()

        return original(self, key, item, probe, size, counted_build)

    monkeypatch.setattr(StepProbes, "answer", answer)
    return counts


# --------------------------------------------------------------------------- #
# answers: bucketed rows == probe-path rows == the oracle's multiset
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize("reasoning", [True, False], ids=["reasoning", "plain"])
@pytest.mark.parametrize("kind", STORE_KINDS)
def test_bucketed_rows_equal_probe_path_and_oracle(
    stores, small_lubm_catalog, kind, reasoning, builds, monkeypatch
):
    store = stores[kind]
    queries = small_lubm_catalog.by_identifier()
    bucketed = {}
    for identifier in QUERY_IDS:
        result = QueryEngine(store, reasoning=reasoning).execute(queries[identifier].sparql)
        bucketed[identifier] = (result.variables, result.to_tuples())
    # The comparison is only meaningful if the buckets did answer probes.
    assert builds["subjects"] > 0

    monkeypatch.setattr(StepProbes, "answer", _probe_only)
    for identifier in QUERY_IDS:
        sparql = queries[identifier].sparql
        probed = QueryEngine(store, reasoning=reasoning).execute(sparql)
        assert bucketed[identifier] == (probed.variables, probed.to_tuples()), identifier
        oracle = MaterializingQueryEngine(store, reasoning=reasoning).execute(sparql)
        assert collections.Counter(bucketed[identifier][1]) == collections.Counter(
            oracle.to_tuples()
        ), identifier


def test_every_bucket_shape_is_exercised(stores, small_lubm_catalog, builds):
    queries = small_lubm_catalog.by_identifier()
    for kind in STORE_KINDS:
        for identifier in QUERY_IDS:
            QueryEngine(stores[kind], reasoning=True).execute(queries[identifier].sparql)
    assert set(builds) == {"subjects", "objects", "type"}


# --------------------------------------------------------------------------- #
# the rules: when a step must not build
# --------------------------------------------------------------------------- #


def _chain_store(length: int) -> SuccinctEdge:
    """``length`` disjoint ``s_i p o_i`` / ``o_i q v_i`` chains (one hit per probe),
    and one literal ``label`` per ``s_i``."""
    graph = Graph()
    for index in range(length):
        graph.add(Triple(URI(f"{NEW}s{index}"), URI(f"{NEW}label"), Literal(f"s{index}")))
        graph.add(Triple(URI(f"{NEW}s{index}"), URI(f"{NEW}p"), URI(f"{NEW}o{index}")))
        graph.add(Triple(URI(f"{NEW}o{index}"), URI(f"{NEW}q"), URI(f"{NEW}v{index}")))
    return SuccinctEdge.from_graph(graph)


def test_a_single_binding_step_never_builds(stores, extra_decodes):
    evaluator = TriplePatternEvaluator(stores["built"])
    department = next(t.object for t in stores["built"].match(None, LUBM.memberOf, None))
    pattern = TriplePattern(Variable("x"), LUBM.memberOf, department)
    assert extra_decodes(lambda: _join(evaluator, pattern, [Binding()])) == 0


def test_a_limit_that_stops_at_the_threshold_never_builds(extra_decodes):
    length = 100
    engine = QueryEngine(_chain_store(length))
    join = f"SELECT ?s ?v WHERE {{ ?o <{NEW}q> ?v . ?s <{NEW}p> ?o }}"
    assert "join=bind(SO)" in engine.explain(join)
    # Each probe returns one subject, so the charge reaches the run size here:
    crossing = math.ceil(length / (StepProbes.PROBE_COST + StepProbes.HIT_COST))
    assert 1 < crossing < length

    def rows(sparql):
        return lambda: engine.execute(sparql).to_tuples()

    assert extra_decodes(rows(f"{join} LIMIT {crossing}")) == 0
    assert extra_decodes(rows(f"{join} LIMIT {crossing + 1}")) == 1  # the next probe builds
    assert extra_decodes(rows(join)) == 1  # ... once


def test_literal_probes_never_build(extra_decodes):
    length = 100
    store = _chain_store(length)
    label = URI(f"{NEW}label")
    labels = [(t.subject, t.object) for t in store.match(None, label, None)]
    assert len(labels) == length
    evaluator = TriplePatternEvaluator(store)
    pattern = TriplePattern(Variable("x"), label, Variable("n"))
    for bindings in (
        [Binding({"x": subject}) for subject, _ in labels],  # (s, p, ?o)
        [Binding({"n": literal}) for _, literal in labels],  # (?s, p, o)
    ):
        assert extra_decodes(lambda: _join(evaluator, pattern, bindings)) == 0


def test_the_optional_shape_builds_once_per_query(stores, small_lubm_catalog, extra_decodes):
    # The OPTIONAL group runs once per outer batch, and its step keeps one
    # StepProbes for the whole query: the headOf run is decoded once, not
    # once per outer batch.
    engine = QueryEngine(stores["built"])
    a1 = small_lubm_catalog.by_identifier()["A1"].sparql
    assert extra_decodes(lambda: engine.execute(a1).to_tuples()) == 1


@pytest.mark.parametrize("reasoning", [True, False], ids=["reasoning", "plain"])
def test_type_membership_bucket_honours_reasoning(stores, extra_decodes, reasoning):
    # Students are typed with sub-concepts of Student only: the interval with
    # reasoning, nothing without it.
    evaluator = TriplePatternEvaluator(stores["built"], reasoning=reasoning)
    members = sorted({t.subject for t in stores["built"].match(None, LUBM.memberOf, None)}, key=str)
    pattern = TriplePattern(Variable("x"), RDF_TYPE, LUBM.Student)
    bindings = [Binding({"x": member}) for member in members]

    def rows():
        return _join(evaluator, pattern, bindings)

    assert extra_decodes(rows) == (1 if reasoning else 0)
    assert bool(rows()) == reasoning
