"""Id rows: bindings that carry instance ids, and the response encoder.

A :class:`~repro.sparql.bindings.Binding` is a row over a shared layout, and
a column may hold an id of the store's instance dictionary instead of the
term.  Everything that reads a binding must see the term: a binding built
from ids equals the one built from the same terms, with the same hash,
items, merges, compatibility and projections, and DISTINCT dedupes rows
that mix the two, across batches of both layouts.

The HTTP encoder (:func:`repro.serve.server.encode_result`) writes rows
from their columns through an id-keyed memo.  Its bytes must equal an
independent reference — ``json.dumps`` of the stringified document — for
every small-LUBM catalog query on a built, a mapped, an updatable (with a
pending delta) and a sharded store, also when a compaction runs between
execution and encoding.  The engine hands the encoder batches of rows, so
the shapes a batch can take are pinned too: unbound (``null``) columns,
one result mixing layouts, an empty projection, rows holding terms, a
column mixing ids and terms, and a cached result encoded twice.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dictionary.term_dictionary import InstanceDictionary
from repro.query import operators as ops
from repro.rdf.namespaces import LUBM, RDF_TYPE
from repro.rdf.terms import Literal, Triple, URI
from repro.serve.server import encode_result
from repro.serve.service import QueryOutcome, QueryService
from repro.sparql.bindings import AskResult, Batch, Binding, ResultSet
from repro.store.delta import MANUAL_COMPACTION
from repro.store.persistence import load_store, save_store_image
from repro.store.sharding import ShardedStore
from repro.store.succinct_edge import SuccinctEdge

# --------------------------------------------------------------------------- #
# row semantics
# --------------------------------------------------------------------------- #

_DICTIONARY = InstanceDictionary()
_URIS = [URI(f"http://example.org/e{index}") for index in range(6)]
for _uri in _URIS:
    _DICTIONARY.add(_uri)
_OTHER_TERMS = [URI("http://example.org/absent"), Literal("7"), Literal("e0", language="en")]
_NAMES = ["a", "b", "c", "d"]

#: One column: ``(term, as_id)`` — ``as_id`` only for terms the dictionary holds.
_columns = st.one_of(
    st.tuples(st.sampled_from(_URIS), st.booleans()),
    st.tuples(st.sampled_from(_OTHER_TERMS), st.just(False)),
)
_mappings = st.dictionaries(st.sampled_from(_NAMES), _columns, max_size=len(_NAMES))


def _id_row(mapping) -> Binding:
    """The binding of ``mapping`` with the chosen columns held as instance ids."""
    binding = Binding.of(Binding().layout.owned(_DICTIONARY), ())
    for name, (term, as_id) in mapping.items():
        binding = binding.extended(name, _DICTIONARY.locate(term) if as_id else term)
    return binding


def _term_row(mapping) -> Binding:
    return Binding({name: term for name, (term, _) in mapping.items()})


@settings(max_examples=150, deadline=None)
@given(mapping=_mappings)
def test_an_id_row_reads_as_its_terms(mapping):
    ids, terms = _id_row(mapping), _term_row(mapping)
    assert ids == terms and terms == ids
    assert hash(ids) == hash(terms)
    assert sorted(ids.items()) == sorted(terms.items())
    assert ids.as_dict() == terms.as_dict()
    assert set(ids) == set(terms) and len(ids) == len(terms)
    for name in _NAMES:
        assert ids.get(name) == terms.get(name)
        assert (name in ids) == (name in terms)
        if name in ids:
            assert ids[name] == terms[name]
    assert repr(ids) == repr(terms)


@settings(max_examples=150, deadline=None)
@given(left=_mappings, right=_mappings, names=st.lists(st.sampled_from(_NAMES), unique=True))
def test_merges_and_projections_agree_with_terms(left, right, names):
    for one in (_id_row(left), _term_row(left)):
        for other in (_id_row(right), _term_row(right)):
            expected = _term_row(left).merged(_term_row(right))
            assert one.merged(other) == expected
            assert one.compatible(other) == (expected is not None)
            assert one.project(names) == _term_row(left).project(names)
            assert list(one.project(names)) == [name for name in names if name in one]


@settings(max_examples=100, deadline=None)
@given(rows=st.lists(_mappings, max_size=6), flags=st.lists(st.booleans(), min_size=6, max_size=6))
def test_distinct_dedupes_rows_mixing_ids_and_terms(rows, flags):
    mixed = [
        _id_row(row) if flag else _term_row(row) for row, flag in zip(rows + rows, flags + flags[::-1])
    ]
    expected = []
    for row in rows:
        binding = _term_row(row)
        if binding not in expected:
            expected.append(binding)
    assert list(ops.rows(ops.distinct(ops.batches(mixed), _NAMES))) == expected
    assert ResultSet(_NAMES, mixed).distinct().bindings == expected
    assert len(set(mixed)) == len(expected)


def test_rebinding_a_name_replaces_its_value():
    binding = _id_row({"a": (_URIS[0], True)})
    assert binding.extended("a", _URIS[1]) == Binding({"a": _URIS[1]})


def test_rows_of_two_dictionaries_merge_by_term():
    other = InstanceDictionary()
    for uri in reversed(_URIS):
        other.add(uri)
    mine = _id_row({"a": (_URIS[0], True), "b": (_URIS[1], True)})
    theirs = Binding.of(Binding().layout.owned(other), ()).extended("a", other.locate(_URIS[0]))
    theirs = theirs.extended("c", other.locate(_URIS[2]))
    merged = mine.merged(theirs)
    assert merged == Binding({"a": _URIS[0], "b": _URIS[1], "c": _URIS[2]})
    assert mine.merged(theirs.extended("b", other.locate(_URIS[3]))) is None


# --------------------------------------------------------------------------- #
# the response encoder
# --------------------------------------------------------------------------- #

NEW = "http://example.org/new/"


def _reference(outcome) -> bytes:
    """``json.dumps`` of the stringified document: the encoder's specification."""
    result = outcome.result
    if isinstance(result, AskResult):
        return json.dumps({"head": {}, "boolean": result.boolean}).encode("utf-8")
    rows = [[None if value is None else str(value) for value in row] for row in result.to_tuples()]
    document = {"head": {"vars": list(result.variables)}, "results": {"rows": rows}}
    return json.dumps(document).encode("utf-8")


def _pending_writes(store, graph) -> None:
    """Inserts of new and existing entities, and deletes, left in the delta."""
    takes = [t for t in graph if t.predicate == LUBM.takesCourse]
    for triple in takes[::7]:
        assert store.delete(triple)
    for index, triple in enumerate(takes[1::9]):
        newcomer = URI(f"{NEW}student{index}")
        store.insert(Triple(newcomer, LUBM.takesCourse, triple.object))
        store.insert(Triple(newcomer, RDF_TYPE, LUBM.GraduateStudent))
        store.insert(Triple(newcomer, LUBM.name, Literal(f"new élève \"{index}\"")))


@pytest.fixture(scope="module")
def stores(small_lubm, tmp_path_factory):
    built = SuccinctEdge.from_graph(small_lubm.graph, ontology=small_lubm.ontology)
    path = tmp_path_factory.mktemp("binding_rows") / "small_lubm.sedg"
    save_store_image(built, str(path), atomic=True)
    live = load_store(str(path), mmap=True).updatable(MANUAL_COMPACTION)
    _pending_writes(live, small_lubm.graph)
    return {
        "built": built,
        "mapped": load_store(str(path), mmap=True),
        "updatable": live,
        "sharded": ShardedStore.from_store(built, shards=2),
    }


@pytest.mark.parametrize("kind", ["built", "mapped", "updatable", "sharded"])
def test_encoder_bytes_equal_the_reference(stores, small_lubm_catalog, kind):
    service = QueryService(stores[kind], cache_capacity=0)
    try:
        for query in small_lubm_catalog.extended_queries():
            outcome = service.execute(query.sparql, reasoning=query.requires_reasoning)
            body = encode_result(outcome)
            assert body == _reference(outcome), (kind, query.identifier)
            assert encode_result(outcome) == body  # memo hits write the same bytes
        ask = service.execute(f"ASK {{ ?s <{LUBM.takesCourse}> ?o }}")
        assert encode_result(ask) == _reference(ask)
        optional = service.execute(
            f"SELECT ?s ?n WHERE {{ ?s <{LUBM.takesCourse}> ?o OPTIONAL {{ ?s <{LUBM.emailAddress}> ?n }} }}"
        )
        assert encode_result(optional) == _reference(optional)
    finally:
        service.close()


@pytest.mark.parametrize("kind", ["built", "mapped", "updatable", "sharded"])
def test_encoder_bytes_for_every_batch_shape(stores, small_lubm, kind):
    store = stores[kind]
    # The second takesCourse triple: ``_pending_writes`` keeps it.
    takes = [t for t in small_lubm.graph if t.predicate == LUBM.takesCourse]
    student, course = takes[1].subject, takes[1].object
    queries = {
        # most people head nothing: ?h is null in most rows
        "optional": f"SELECT ?x ?h WHERE {{ ?x <{LUBM.worksFor}> ?d OPTIONAL {{ ?x <{LUBM.headOf}> ?h }} }}",
        "union": f"SELECT ?x ?d ?c WHERE {{ {{ ?x <{LUBM.worksFor}> ?d }} UNION {{ ?x <{LUBM.takesCourse}> ?c }} }}",
        "empty projection": f"SELECT * WHERE {{ <{student}> <{LUBM.takesCourse}> <{course}> }}",
        "no rows": f"SELECT ?x WHERE {{ ?x <{LUBM.takesCourse}> <{NEW}nothing> }}",
        "terms": f"SELECT ?x ?c ?n WHERE {{ ?x <{LUBM.takesCourse}> ?c BIND(STR(?c) AS ?n) VALUES ?c {{ <{course}> }} }}",
    }
    service = QueryService(store, cache_capacity=0)
    try:
        for name, sparql in queries.items():
            outcome = service.execute(sparql)
            assert encode_result(outcome) == _reference(outcome), (kind, name)
        optional = service.execute(queries["optional"])
        assert b"null" in encode_result(optional)
        assert encode_result(service.execute(queries["empty projection"])).endswith(b'"rows": [[]]}}')
        union = service.execute(queries["union"])
        assert len({batch.layout for batch in union.result.batches}) > 1
    finally:
        service.close()

    # A column mixing ids, terms and unbound values within one batch.
    layout = Binding().layout.owned(store.instances).child("a").child("b")
    course_id = store.instances.locate(course)
    batch = Batch(layout, [(course_id, Literal("é \"x\"")), (course, course_id), (URI(f"{NEW}x"), course_id)])
    mixed = ResultSet(["b", "missing", "a"], batches=[batch])
    outcome = QueryOutcome(result=mixed, cached=False, elapsed_ms=0.0, epoch=(0, 0))
    assert encode_result(outcome) == _reference(outcome)
    # Rows of bindings (the oracle's form) are cut into batches on demand.
    terms = ResultSet(["a", "b"], [Binding({"a": course}), Binding({"a": course, "b": Literal("1")})])
    outcome = QueryOutcome(result=terms, cached=False, elapsed_ms=0.0, epoch=(0, 0))
    assert encode_result(outcome) == _reference(outcome)


def test_a_cached_result_encodes_twice_to_the_same_bytes(stores, small_lubm_catalog):
    service = QueryService(stores["mapped"])
    try:
        for query in small_lubm_catalog.extended_queries():
            first = service.execute(query.sparql, reasoning=query.requires_reasoning)
            again = service.execute(query.sparql, reasoning=query.requires_reasoning)
            assert again.cached and again.result is first.result
            assert encode_result(first) == encode_result(again) == _reference(again), query.identifier
    finally:
        service.close()


def test_encoder_after_a_compaction(small_lubm, small_lubm_catalog, tmp_path):
    path = tmp_path / "small_lubm.sedg"
    save_store_image(SuccinctEdge.from_graph(small_lubm.graph, ontology=small_lubm.ontology), str(path))
    store = load_store(str(path), mmap=True).updatable(MANUAL_COMPACTION)
    _pending_writes(store, small_lubm.graph)
    service = QueryService(store, cache_capacity=0)
    try:
        outcomes = [
            service.execute(query.sparql, reasoning=query.requires_reasoning)
            for query in small_lubm_catalog.extended_queries()
        ]
        expected = [_reference(outcome) for outcome in outcomes]
        store.insert(Triple(URI(f"{NEW}late"), LUBM.takesCourse, URI(f"{NEW}course")))
        store.compact()
        assert [encode_result(outcome) for outcome in outcomes] == expected
    finally:
        service.close()
