"""Differential property-based tests.

Random small graphs and random basic graph patterns are evaluated by three
independent implementations — the SuccinctEdge engine (SDS access paths,
LiteMat reasoning), the multi-index baseline (hash indexes, UNION rewriting)
and the naive nested-loop oracle — which must always agree.  This is the
strongest end-to-end invariant of the reproduction: whatever the data and
query shape, the compact self-indexed store answers exactly like a
conventional store.
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.multi_index_store import MultiIndexMemoryStore
from repro.ontology.schema import OntologySchema
from repro.rdf.graph import Graph
from repro.rdf.namespaces import Namespace, RDF, RDFS
from repro.rdf.terms import Literal, Triple
from repro.sparql.ast import BasicGraphPattern, GroupGraphPattern, SelectQuery, TriplePattern, Variable
from repro.store.succinct_edge import SuccinctEdge
from tests.conftest import hierarchy_closure, naive_bgp_bindings

EX = Namespace("http://fuzz.example.org/")

_CONCEPTS = [EX[f"C{i}"] for i in range(6)]
_PROPERTIES = [EX[f"p{i}"] for i in range(4)]
_DATA_PROPERTIES = [EX[f"d{i}"] for i in range(2)]
_INDIVIDUALS = [EX[f"i{i}"] for i in range(10)]
_LITERALS = [Literal(value) for value in (1, 2, 3, "a", "b")]


@st.composite
def random_dataset(draw):
    """A random ontology (forest over concepts/properties) plus a random ABox."""
    ontology = Graph()
    for index, concept in enumerate(_CONCEPTS[1:], start=1):
        parent_index = draw(st.integers(min_value=0, max_value=index - 1))
        if draw(st.booleans()):
            ontology.add(Triple(concept, RDFS.subClassOf, _CONCEPTS[parent_index]))
    for index, prop in enumerate(_PROPERTIES[1:], start=1):
        parent_index = draw(st.integers(min_value=0, max_value=index - 1))
        if draw(st.booleans()):
            ontology.add(Triple(prop, RDFS.subPropertyOf, _PROPERTIES[parent_index]))

    data = Graph()
    triple_count = draw(st.integers(min_value=0, max_value=40))
    for _ in range(triple_count):
        kind = draw(st.integers(min_value=0, max_value=2))
        subject = draw(st.sampled_from(_INDIVIDUALS))
        if kind == 0:
            data.add(Triple(subject, RDF.type, draw(st.sampled_from(_CONCEPTS))))
        elif kind == 1:
            data.add(
                Triple(subject, draw(st.sampled_from(_PROPERTIES)), draw(st.sampled_from(_INDIVIDUALS)))
            )
        else:
            data.add(
                Triple(subject, draw(st.sampled_from(_DATA_PROPERTIES)), draw(st.sampled_from(_LITERALS)))
            )
    return ontology, data


@st.composite
def random_bgp(draw):
    """A random BGP of 1-3 triple patterns over a small variable pool."""
    variables = [Variable(name) for name in ("x", "y", "z")]
    pattern_count = draw(st.integers(min_value=1, max_value=3))
    patterns = []
    for _ in range(pattern_count):
        subject = draw(st.one_of(st.sampled_from(variables), st.sampled_from(_INDIVIDUALS)))
        if draw(st.booleans()):
            predicate = RDF.type
            obj = draw(st.one_of(st.sampled_from(variables), st.sampled_from(_CONCEPTS)))
        else:
            predicate = draw(st.sampled_from(_PROPERTIES + _DATA_PROPERTIES))
            obj = draw(
                st.one_of(
                    st.sampled_from(variables),
                    st.sampled_from(_INDIVIDUALS),
                    st.sampled_from(_LITERALS),
                )
            )
        patterns.append(TriplePattern(subject, predicate, obj))
    return patterns


def _project(bindings, names):
    return {tuple(binding.get(name) for name in names) for binding in bindings}


@settings(max_examples=40, deadline=None, derandomize=True)
@given(dataset=random_dataset(), patterns=random_bgp())
def test_differential_plain_bgp(dataset, patterns):
    """Without reasoning, all three implementations agree on every BGP."""
    ontology, data = dataset
    names = sorted({name for pattern in patterns for name in pattern.variable_names()})
    query = SelectQuery(
        projection=[Variable(name) for name in names] or None,
        where=GroupGraphPattern(bgp=BasicGraphPattern(patterns=list(patterns))),
    )

    succinct = SuccinctEdge.from_graph(data, ontology=ontology)
    baseline = MultiIndexMemoryStore()
    baseline.load(data, ontology=ontology)

    expected = _project(naive_bgp_bindings(data, list(patterns)), names)
    assert _project(succinct.query(query, reasoning=False), names) == expected
    assert _project(baseline.query(query, reasoning=False), names) == expected


@settings(max_examples=25, deadline=None, derandomize=True)
@given(dataset=random_dataset(), patterns=random_bgp())
def test_differential_reasoning_bgp(dataset, patterns):
    """With reasoning, LiteMat intervals agree with the materialised closure."""
    ontology, data = dataset
    names = sorted({name for pattern in patterns for name in pattern.variable_names()})
    query = SelectQuery(
        projection=[Variable(name) for name in names] or None,
        where=GroupGraphPattern(bgp=BasicGraphPattern(patterns=list(patterns))),
    )

    succinct = SuccinctEdge.from_graph(data, ontology=ontology)
    schema = OntologySchema.from_graph(ontology)
    closure = hierarchy_closure(data, schema)

    expected = _project(naive_bgp_bindings(closure, list(patterns)), names)
    actual = _project(succinct.query(query, reasoning=True), names)
    assert actual == expected


# --------------------------------------------------------------------------- #
# process execution backend vs the materializing oracle
# --------------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def worker_pool():
    """One worker pool shared by every fuzz example.

    Tasks carry their own attach spec, so the pool is store-agnostic:
    each example's engine ships its own freshly saved image (engines own a
    private workspace, so image paths — and with them the workers' attach
    tokens — never collide between examples).  Sharing the pool means the
    workers fork exactly once for the whole run.
    """
    from repro.query.multiproc import WorkerPool

    pool = WorkerPool(max_workers=2)
    yield pool
    pool.close()


def _multiset(result, names):
    return Counter(tuple(binding.get(name) for name in names) for binding in result)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(dataset=random_dataset(), patterns=random_bgp(), reasoning=st.booleans())
def test_differential_process_backend(worker_pool, dataset, patterns, reasoning):
    """The process backend agrees with the materializing oracle on any BGP.

    The oracle is a genuinely independent evaluation strategy (fully
    materialized operators in the coordinator process); the process engine
    answers from workers that attached to a saved image of the same store.
    Multiset equality over the projected rows is the bar — it catches
    dropped rows, duplicated rows and wrong bindings alike.
    """
    from repro.query.materializing import MaterializingQueryEngine
    from repro.query.multiproc import ProcessPoolQueryEngine

    ontology, data = dataset
    names = sorted({name for pattern in patterns for name in pattern.variable_names()})
    query = SelectQuery(
        projection=[Variable(name) for name in names] or None,
        where=GroupGraphPattern(bgp=BasicGraphPattern(patterns=list(patterns))),
    )

    store = SuccinctEdge.from_graph(data, ontology=ontology)
    oracle = MaterializingQueryEngine(store, reasoning=reasoning)
    expected = _multiset(oracle.execute(query), names)
    engine = ProcessPoolQueryEngine(
        store, reasoning=reasoning, batch_size=3, pool=worker_pool
    )
    try:
        assert _multiset(engine.execute(query), names) == expected
    finally:
        engine.close()


# --------------------------------------------------------------------------- #
# replication fuzzing (repro.serve.cluster)
# --------------------------------------------------------------------------- #


def _store_scan_multiset(store, reasoning=False):
    """Every triple in ``store`` as a multiset, via exhaustive pattern scans.

    One ``?x p ?y`` scan per property plus one ``?x rdf:type ?c`` scan
    enumerates the full dataset (the fuzz vocabulary is closed), giving a
    store-independent way to compare a replica against its primary.
    """
    from repro.query.materializing import MaterializingQueryEngine

    engine = MaterializingQueryEngine(store, reasoning=reasoning)
    x, y = Variable("x"), Variable("y")
    counts = Counter()
    for predicate in _PROPERTIES + _DATA_PROPERTIES:
        query = SelectQuery(
            projection=[x, y],
            where=GroupGraphPattern(
                bgp=BasicGraphPattern(patterns=[TriplePattern(x, predicate, y)])
            ),
        )
        for binding in engine.execute(query):
            counts[(predicate.value, binding.get("x"), binding.get("y"))] += 1
    query = SelectQuery(
        projection=[x, y],
        where=GroupGraphPattern(
            bgp=BasicGraphPattern(patterns=[TriplePattern(x, RDF.type, y)])
        ),
    )
    for binding in engine.execute(query):
        counts[(RDF.type.value, binding.get("x"), binding.get("y"))] += 1
    return counts


@st.composite
def replication_script(draw):
    """A random interleaving of writes, compactions and replica syncs.

    ``("insert"|"delete", triple)`` mutate the primary (deleting an absent
    triple is a no-op, which is itself worth covering), ``("sync", None)``
    ships the log suffix to the followers mid-stream and checks them, and the rare
    ``("compact", None)`` rotates the primary's generation so the replica
    must detect the stale image and re-bootstrap.
    """
    ops = []
    for _ in range(draw(st.integers(min_value=1, max_value=25))):
        kind = draw(
            st.sampled_from(
                ["insert", "insert", "insert", "delete", "sync", "compact"]
            )
        )
        if kind in ("insert", "delete"):
            subject = draw(st.sampled_from(_INDIVIDUALS))
            shape = draw(st.integers(min_value=0, max_value=2))
            if shape == 0:
                triple = Triple(subject, RDF.type, draw(st.sampled_from(_CONCEPTS)))
            elif shape == 1:
                triple = Triple(
                    subject,
                    draw(st.sampled_from(_PROPERTIES)),
                    draw(st.sampled_from(_INDIVIDUALS)),
                )
            else:
                triple = Triple(
                    subject,
                    draw(st.sampled_from(_DATA_PROPERTIES)),
                    draw(st.sampled_from(_LITERALS)),
                )
            ops.append((kind, triple))
        else:
            ops.append((kind, None))
    return ops


def _worker_scan_multiset(pool, spec, primary):
    """A worker follower's ``?x p ?y`` scans, as raw id-level replies.

    Each scan is one ``eval_many`` unit run by a pool worker attached through
    ``spec``; the reply is compared *before* decoding, so a worker that
    assigned a different identifier to any individual cannot hide behind the
    coordinator's dictionary.  Returns ``(worker, primary)`` multisets.
    """
    from repro.query.units import encode_reply, encode_request, execute_unit
    from repro.sparql.bindings import Binding

    x, y = Variable("x"), Variable("y")
    worker, expected = Counter(), Counter()
    for predicate in _PROPERTIES + _DATA_PROPERTIES + [RDF.type]:
        args = (TriplePattern(x, predicate, y), [Binding()])
        reply = pool.result(pool.submit(spec, "eval_many", encode_request("eval_many", args), False))
        worker.update(reply)
        inline = execute_unit(primary, "eval_many", args, False)
        expected.update(encode_reply("eval_many", inline, primary.instances))
    return worker, expected


def _check_followers(primary, source, replica, executor, pool):
    """Both followers stand at the primary's position with its triples and ids."""
    generation, epoch = source.position()
    replica.sync(upto_epoch=epoch)
    assert (replica.generation, replica.epoch) == (generation, epoch)
    assert _store_scan_multiset(replica.store) == _store_scan_multiset(primary)
    assert [replica.store.instances.try_locate(term) for term in _INDIVIDUALS] == [
        primary.instances.try_locate(term) for term in _INDIVIDUALS
    ]
    spec = executor._session()
    assert (spec["generation"], spec["epoch"]) == (generation, epoch)
    worker, expected = _worker_scan_multiset(pool, spec, primary)
    assert worker == expected


def _replicate_and_check(pool, primary, script):
    """Run ``script`` on ``primary`` with a replica and a pool worker following."""
    import shutil
    import tempfile

    from repro.query.multiproc import ProcessPoolQueryEngine
    from repro.serve.cluster import ClusterReplica, LocalReplicationClient, ReplicationSource

    workspace = tempfile.mkdtemp(prefix="fuzz-repl-")
    engine = ProcessPoolQueryEngine(
        primary, reasoning=False, pool=pool, workspace=workspace + "/worker"
    )
    try:
        source = ReplicationSource(primary, workspace=workspace + "/ship")
        replica = ClusterReplica(
            LocalReplicationClient(source), workspace + "/replica"
        ).bootstrap()
        for kind, triple in script:
            if kind == "insert":
                primary.insert(triple)
            elif kind == "delete":
                primary.delete(triple)
            elif kind == "compact":
                primary.compact()
            else:
                _check_followers(primary, source, replica, engine.evaluator, pool)
        _check_followers(primary, source, replica, engine.evaluator, pool)
        source.close()
    finally:
        engine.close()
        shutil.rmtree(workspace, ignore_errors=True)


@settings(max_examples=15, deadline=None, derandomize=True)
@given(dataset=random_dataset(), script=replication_script())
def test_differential_replication_convergence(worker_pool, dataset, script):
    """After any write/ship/query interleaving both followers equal the primary.

    A monolithic live primary and its two kinds of follower: a replica
    driven through :class:`~repro.serve.cluster.LocalReplicationClient` (the
    same wire documents as HTTP, minus the socket) and a pool worker
    attached through a process executor's spec.  Each check syncs both to
    the primary's current position; they must stand exactly there, hold the
    **same triple multiset** and assign the same instance ids — across
    inserts, deletes, no-op deletes, mid-stream checks and even
    generation-rotating compactions.
    """
    from repro.store.updatable import UpdatableSuccinctEdge

    ontology, data = dataset
    primary = UpdatableSuccinctEdge.from_graph(data, ontology=ontology)
    _replicate_and_check(worker_pool, primary, script)


@settings(max_examples=15, deadline=None, derandomize=True)
@given(dataset=random_dataset(), script=replication_script())
def test_differential_replication_convergence_sharded(worker_pool, dataset, script):
    """The same with a 2-shard live store as the primary.

    Its log's base is a shard image directory; shard compactions restart
    it, and followers re-bootstrap from the next directory.
    """
    from repro.store.sharding import ShardedStore

    ontology, data = dataset
    primary = ShardedStore.from_graph(data, ontology=ontology, shards=2, updatable=True)
    _replicate_and_check(worker_pool, primary, script)


# --------------------------------------------------------------------------- #
# property-path fuzzing (repro.query.paths vs the naive oracle)
# --------------------------------------------------------------------------- #

from repro.sparql.ast import (  # noqa: E402  (section-local, keeps the BGP half standalone)
    PathAlternative,
    PathInverse,
    PathLink,
    PathNegatedSet,
    PathOneOrMore,
    PathSequence,
    PathZeroOrMore,
    PathZeroOrOne,
    PropertyPathPattern,
)

_PATH_PREDICATES = _PROPERTIES + _DATA_PROPERTIES + [RDF.type]
#: A term that never appears in any random dataset — SPARQL's zero-length
#: paths must still match it to itself (§9.3 ALP starts from the given term).
_GHOST = EX["ghost"]


@st.composite
def random_path(draw, depth: int = 3):
    """A random path expression of operator-nesting depth ≤ ``depth`` + leaf.

    The distribution leans toward links (so most paths stay satisfiable)
    but every operator of the grammar — inverse, sequence, alternation,
    ``?``/``*``/``+`` and negated property sets with forward *and* inverse
    members — appears under every other operator, including closures over
    alternations (the ``expand_frontier`` BFS) and closures over sequences
    (closed over the inner relation).
    """
    if depth <= 0:
        return PathLink(draw(st.sampled_from(_PATH_PREDICATES)))
    kind = draw(
        st.sampled_from(
            [
                "link",
                "link",
                "inverse",
                "sequence",
                "alternative",
                "zero-or-one",
                "zero-or-more",
                "one-or-more",
                "negated",
            ]
        )
    )
    if kind == "link":
        return PathLink(draw(st.sampled_from(_PATH_PREDICATES)))
    if kind == "inverse":
        return PathInverse(draw(random_path(depth=depth - 1)))
    if kind == "sequence":
        count = draw(st.integers(min_value=2, max_value=3))
        return PathSequence(tuple(draw(random_path(depth=depth - 1)) for _ in range(count)))
    if kind == "alternative":
        count = draw(st.integers(min_value=2, max_value=3))
        return PathAlternative(tuple(draw(random_path(depth=depth - 1)) for _ in range(count)))
    if kind == "zero-or-one":
        return PathZeroOrOne(draw(random_path(depth=depth - 1)))
    if kind == "zero-or-more":
        return PathZeroOrMore(draw(random_path(depth=depth - 1)))
    if kind == "one-or-more":
        return PathOneOrMore(draw(random_path(depth=depth - 1)))
    forward = tuple(draw(st.lists(st.sampled_from(_PATH_PREDICATES), max_size=3)))
    inverse = tuple(draw(st.lists(st.sampled_from(_PATH_PREDICATES), max_size=2)))
    if not forward and not inverse:
        forward = (draw(st.sampled_from(_PATH_PREDICATES)),)
    return PathNegatedSet(forward=forward, inverse=inverse)


@st.composite
def random_path_pattern(draw):
    """A random path pattern: random endpoints around a random path.

    Endpoint shapes cover all four bound/unbound combinations, the diagonal
    ``?x path ?x`` (both slots one variable), literal and class objects
    and the off-graph ghost term on either side.
    """
    x, y = Variable("x"), Variable("y")
    subject = draw(
        st.one_of(
            st.sampled_from([x, x, y]),
            st.sampled_from(_INDIVIDUALS),
            st.just(_GHOST),
        )
    )
    obj = draw(
        st.one_of(
            st.sampled_from([y, y, x]),
            st.sampled_from(_INDIVIDUALS),
            st.sampled_from(_LITERALS),
            st.sampled_from(_CONCEPTS),
            st.just(_GHOST),
        )
    )
    return PropertyPathPattern(subject, draw(random_path(depth=3)), obj)


def _path_query(pattern: PropertyPathPattern) -> SelectQuery:
    names = sorted(set(pattern.variable_names()))
    return SelectQuery(
        projection=[Variable(name) for name in names] or None,
        where=GroupGraphPattern(paths=[pattern]),
    )


def _check_path_example(dataset, pattern, reasoning):
    """One fuzz example: the streaming path evaluator vs the naive oracle."""
    from repro.query.engine import QueryEngine
    from repro.query.materializing import MaterializingQueryEngine

    ontology, data = dataset
    store = SuccinctEdge.from_graph(data, ontology=ontology)
    query = _path_query(pattern)
    names = sorted(set(pattern.variable_names()))
    expected = _multiset(MaterializingQueryEngine(store, reasoning=reasoning).execute(query), names)
    actual = _multiset(QueryEngine(store, reasoning=reasoning).execute(query), names)
    assert actual == expected


#: ``(p?)+`` / ``(p*)+`` from a bound endpoint with no ``p`` edge: the first
#: step ``eval(c, p?)`` already contains ``c`` (SPARQL 1.1 §18.4), so the
#: answer is ``c`` even on an empty graph.  The fuzzer's shrunk example.
_P = _PROPERTIES[0]
_EDGELESS_ENDPOINT_ROWS = [
    (f"SELECT ?x WHERE {{ ?x (<{_P.value}>?)+ <{_GHOST.value}> }}", [(_GHOST,)]),
    (f"SELECT ?x WHERE {{ <{_GHOST.value}> (<{_P.value}>?)+ ?x }}", [(_GHOST,)]),
    (f"SELECT ?x WHERE {{ <{_GHOST.value}> (<{_P.value}>*)+ ?x }}", [(_GHOST,)]),
    (f"ASK {{ <{_GHOST.value}> (<{_P.value}>?)+ <{_GHOST.value}> }}", True),
]


@pytest.mark.parametrize("triples", [0, 1], ids=["empty-graph", "one-triple"])
@pytest.mark.parametrize("reasoning", [False, True])
@pytest.mark.parametrize(
    "sparql, expected",
    _EDGELESS_ENDPOINT_ROWS,
    ids=["?x (p?)+ c", "c (p?)+ ?x", "c (p*)+ ?x", "ask c (p?)+ c"],
)
def test_one_or_more_from_edgeless_endpoint(sparql, expected, reasoning, triples):
    from repro.query.engine import QueryEngine
    from repro.query.materializing import MaterializingQueryEngine

    data = Graph()
    if triples:
        data.add(Triple(_INDIVIDUALS[0], _P, _INDIVIDUALS[1]))
    store = SuccinctEdge.from_graph(data, ontology=Graph())
    for engine in (QueryEngine, MaterializingQueryEngine):
        result = engine(store, reasoning=reasoning).execute(sparql)
        assert (result.boolean if expected is True else result.to_tuples()) == expected


@settings(max_examples=40, deadline=None, derandomize=True)
@given(dataset=random_dataset(), pattern=random_path_pattern(), reasoning=st.booleans())
def test_differential_path_fuzzing(dataset, pattern, reasoning):
    """Any path over any graph: production must equal the naive fixpoint.

    The datasets freely contain cycles (properties connect arbitrary
    individuals), so this continuously exercises cycle-safe termination;
    multiset equality over the projected rows catches dropped solutions,
    duplicate solutions (the ``?``/``*``/``+`` forms are DISTINCT, the
    algebraic forms are not) and wrong bindings alike.
    """
    _check_path_example(dataset, pattern, reasoning)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    dataset=random_dataset(),
    inner=random_path(depth=2),
    start=st.sampled_from(_INDIVIDUALS + [_GHOST]),
    closure_kind=st.sampled_from([PathZeroOrMore, PathZeroOrOne]),
    direction=st.sampled_from(["forward", "backward", "diagonal"]),
    reasoning=st.booleans(),
)
def test_differential_zero_length_paths(dataset, inner, start, closure_kind, direction, reasoning):
    """Zero-length semantics on bound and unbound endpoints, incl. off-graph.

    ``start p* ?o`` must emit ``start`` itself even when ``start`` appears
    in no triple (the ghost), ``?s p* end`` symmetrically, and the fully
    bound ``start p* start`` always holds — exactly what the spec's ALP
    procedure produces and a naive "filter the closure relation" gets wrong.
    """
    path = closure_kind(inner)
    if direction == "forward":
        pattern = PropertyPathPattern(start, path, Variable("o"))
    elif direction == "backward":
        pattern = PropertyPathPattern(Variable("s"), path, start)
    else:
        pattern = PropertyPathPattern(start, path, start)
    _check_path_example(dataset, pattern, reasoning)


@pytest.mark.slow
@settings(max_examples=250, deadline=None)
@given(dataset=random_dataset(), pattern=random_path_pattern(), reasoning=st.booleans())
def test_differential_path_fuzzing_deep(dataset, pattern, reasoning):
    """The raised-example-count sweep for the dedicated CI paths job."""
    _check_path_example(dataset, pattern, reasoning)
