"""Operators on id batches: UNION/VALUES, OPTIONAL, GROUP BY and path steps.

Every operator between the BGP and the solution modifiers takes and yields
batches of id rows.  The rows they produce are pinned here **in order**, as
the per-binding operators they replaced produced them, and compared as
multisets with the materializing oracle: a UNION whose branches bind
different variables, VALUES with literals, an IRI the dictionary does not
hold and ``UNDEF``, nested OPTIONALs, an OPTIONAL with an inner FILTER and
one over repeated outer rows, COUNT(DISTINCT), SUM and GROUP BY on an
expression, and every endpoint shape of a path step on a built, a mapped,
a 2-shard and an updatable store with a pending delta.  OPTIONAL under a
``LIMIT`` must make no more SDS kernel calls than the per-binding operator
did, and the path oracle's closure must equal a BFS from every node.
"""

from __future__ import annotations

import collections

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.measure import measure_call
from repro.query.engine import QueryEngine
from repro.query.materializing import MaterializingQueryEngine, NaivePathOracle
from repro.rdf.graph import Graph
from repro.rdf.namespaces import RDF, RDFS, Namespace
from repro.rdf.terms import Literal, Triple, URI, XSD_INTEGER
from repro.store.delta import CompactionPolicy
from repro.store.persistence import load_store, save_store_image
from repro.store.sharding import ShardedStore
from repro.store.succinct_edge import SuccinctEdge

EX = Namespace("http://batch.example.org/")

PREFIXES = (
    f"PREFIX ex: <{EX.prefix}>\n"
    "PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>\n"
)

QUERIES = {
    "union-mixed-layouts": (
        "SELECT ?x ?y ?d ?n WHERE { ?x ex:knows ?y . { ?x ex:worksFor ?d } UNION { ?y ex:name ?n } }"
    ),
    "union-only": "SELECT ?x ?d ?a WHERE { { ?x ex:headOf ?d } UNION { ?x ex:age ?a } }",
    "values-literal": 'SELECT ?x ?a WHERE { ?x ex:age ?a VALUES ?a { 27 55 "27" } }',
    "values-unknown-iri-undef": (
        "SELECT ?x ?d WHERE { ?x ex:worksFor ?d "
        "VALUES (?x ?d) { (ex:p1 ex:d1) (ex:nobody ex:d1) (UNDEF ex:d2) (ex:p3 UNDEF) } }"
    ),
    "values-new-variable": (
        'SELECT ?x ?d ?tag WHERE { ?x ex:headOf ?d VALUES (?d ?tag) { (ex:d0 "zero") (UNDEF "any") } }'
    ),
    "optional-nested": (
        "SELECT ?x ?h ?a ?n WHERE { ?x ex:worksFor ?d "
        "OPTIONAL { ?x ex:headOf ?h OPTIONAL { ?x ex:age ?a } } OPTIONAL { ?x ex:name ?n } }"
    ),
    "optional-inner-filter": (
        "SELECT ?x ?a WHERE { ?x rdf:type ex:Person OPTIONAL { ?x ex:age ?a FILTER(?a > 40) } }"
    ),
    # headOf is a subproperty of worksFor: p0 and p4 come twice, far apart.
    "optional-repeated-rows": "SELECT ?x ?d ?n WHERE { ?x ex:worksFor ?d OPTIONAL { ?x ex:name ?n } }",
    # ... and p4's two rows share a batch with only unmatched rows between them.
    "optional-repeated-rows-sparse": (
        "SELECT ?x ?d ?h WHERE { ?x ex:worksFor ?d OPTIONAL { ?x ex:headOf ?h FILTER(?h = ex:d1) } }"
    ),
    "count-distinct-sum": (
        "SELECT ?d (COUNT(DISTINCT ?y) AS ?c) (SUM(?a) AS ?s) (COUNT(?a) AS ?k) "
        "WHERE { ?x ex:worksFor ?d . ?x ex:knows ?y OPTIONAL { ?x ex:age ?a } } GROUP BY ?d"
    ),
    "group-by-expression": (
        "SELECT (COUNT(*) AS ?c) (SAMPLE(?x) AS ?s) (MAX(?a) AS ?m) WHERE { ?x ex:age ?a } GROUP BY (?a > 40)"
    ),
    "count-over-nothing": "SELECT (COUNT(*) AS ?c) (COUNT(DISTINCT ?x) AS ?k) WHERE { ?x ex:nothing ?y }",
}

#: The rows the per-binding operators returned, in their order.
EXPECTED = {
    "union-mixed-layouts": [
        "ex:p0 ex:p1 ex:d0 -", "ex:p0 ex:p1 ex:d0 -", "ex:p0 ex:p1 - name1", "ex:p0 ex:p3 ex:d0 -",
        "ex:p0 ex:p3 ex:d0 -", "ex:p0 ex:p3 - name3", "ex:p1 ex:p2 ex:d1 -", "ex:p3 ex:p4 ex:d0 -",
        "ex:p3 ex:p4 - name4", "ex:p2 ex:p3 ex:d2 -", "ex:p2 ex:p3 - name3", "ex:p2 ex:p2 ex:d2 -",
        "ex:p2 ex:p5 ex:d2 -", "ex:p5 ex:p6 ex:d2 -", "ex:p5 ex:p6 - name6", "ex:p4 ex:p5 ex:d1 -",
        "ex:p4 ex:p5 ex:d1 -", "ex:p4 ex:p7 ex:d1 -", "ex:p4 ex:p7 ex:d1 -", "ex:p4 ex:p7 - name7",
        "ex:p7 ex:p0 ex:d1 -", "ex:p7 ex:p0 - name0", "ex:p6 ex:p1 ex:d0 -", "ex:p6 ex:p1 - name1",
        "ex:p6 ex:p7 ex:d0 -", "ex:p6 ex:p7 - name7",
    ],
    "union-only": [
        "ex:p0 ex:d0 -", "ex:p4 ex:d1 -", "ex:p0 - 20", "ex:p1 - 27", "ex:p2 - 34", "ex:p5 - 55",
        "ex:p4 - 48", "ex:p6 - 62",
    ],
    "values-literal": ["ex:p1 27", "ex:p5 55"],
    "values-unknown-iri-undef": ["ex:p1 ex:d1", "ex:p3 ex:d0", "ex:p2 ex:d2", "ex:p5 ex:d2"],
    "values-new-variable": ["ex:p0 ex:d0 zero", "ex:p0 ex:d0 any", "ex:p4 ex:d1 any"],
    "optional-nested": [
        "ex:p0 ex:d0 20 name0", "ex:p1 - - name1", "ex:p3 - - name3", "ex:p2 - - -", "ex:p5 - - -",
        "ex:p4 ex:d1 48 name4", "ex:p7 - - name7", "ex:p6 - - name6", "ex:p0 ex:d0 20 name0",
        "ex:p4 ex:d1 48 name4",
    ],
    "optional-inner-filter": [
        "ex:p0 -", "ex:p1 -", "ex:p3 -", "ex:p2 -", "ex:p5 55", "ex:p4 48", "ex:p7 -", "ex:p6 62",
    ],
    "optional-repeated-rows": [
        "ex:p0 ex:d0 name0", "ex:p1 ex:d1 name1", "ex:p3 ex:d0 name3", "ex:p2 ex:d2 -", "ex:p5 ex:d2 -",
        "ex:p4 ex:d1 name4", "ex:p7 ex:d1 name7", "ex:p6 ex:d0 name6", "ex:p0 ex:d0 name0",
        "ex:p4 ex:d1 name4",
    ],
    "optional-repeated-rows-sparse": [
        "ex:p0 ex:d0 -", "ex:p1 ex:d1 -", "ex:p3 ex:d0 -", "ex:p2 ex:d2 -", "ex:p5 ex:d2 -",
        "ex:p4 ex:d1 ex:d1", "ex:p7 ex:d1 -", "ex:p6 ex:d0 -", "ex:p0 ex:d0 -", "ex:p4 ex:d1 ex:d1",
    ],
    "count-distinct-sum": ["ex:d0 4 204 6", "ex:d1 4 219 5", "ex:d2 4 157 4"],
    "group-by-expression": ["3 ex:p0 34", "3 ex:p5 62"],
    "count-over-nothing": ["0 0"],
}

PATH_QUERIES = {
    "path-bound-subject": "SELECT ?x ?y WHERE { ?x ex:headOf ?d . ?x ex:knows+ ?y }",
    "path-bound-object": "SELECT ?x ?y WHERE { ?y ex:name ?n . ?x ex:knows/ex:knows ?y }",
    "path-both-bound": "SELECT ?x ?y WHERE { ?x ex:headOf ?d . ?y ex:worksFor ?d . ?x ex:knows* ?y }",
    "path-all-pairs": "SELECT ?x ?y WHERE { ?x ^ex:knows|ex:partOf ?y }",
    "path-diagonal": "SELECT ?x WHERE { ?x ex:knows+ ?x }",
    "path-literal-end": "SELECT ?x ?v WHERE { ?x ex:knows/ex:age ?v }",
}

#: The path rows of the per-binding evaluator on the built, mapped and 2-shard stores.
PATHS = {
    "path-bound-subject": [
        "ex:p0 ex:p0", "ex:p0 ex:p1", "ex:p0 ex:p2", "ex:p0 ex:p3", "ex:p0 ex:p4", "ex:p0 ex:p5",
        "ex:p0 ex:p6", "ex:p0 ex:p7", "ex:p4 ex:p0", "ex:p4 ex:p1", "ex:p4 ex:p2", "ex:p4 ex:p3",
        "ex:p4 ex:p4", "ex:p4 ex:p5", "ex:p4 ex:p6", "ex:p4 ex:p7",
    ],
    "path-bound-object": [
        "ex:p4 ex:p0", "ex:p6 ex:p0", "ex:p5 ex:p1", "ex:p7 ex:p1", "ex:p1 ex:p3", "ex:p2 ex:p3",
        "ex:p7 ex:p3", "ex:p0 ex:p4", "ex:p2 ex:p4", "ex:p3 ex:p7", "ex:p5 ex:p7", "ex:p2 ex:p6",
        "ex:p4 ex:p6",
    ],
    "path-both-bound": [
        "ex:p0 ex:p0", "ex:p0 ex:p3", "ex:p0 ex:p6", "ex:p0 ex:p0", "ex:p4 ex:p1", "ex:p4 ex:p4",
        "ex:p4 ex:p7", "ex:p4 ex:p4",
    ],
    "path-all-pairs": [
        "ex:d0 ex:org", "ex:d1 ex:org", "ex:d2 ex:org", "ex:p0 ex:p7", "ex:p1 ex:p0", "ex:p1 ex:p6",
        "ex:p2 ex:p1", "ex:p2 ex:p2", "ex:p3 ex:p0", "ex:p3 ex:p2", "ex:p4 ex:p3", "ex:p5 ex:p2",
        "ex:p5 ex:p4", "ex:p6 ex:p5", "ex:p7 ex:p4", "ex:p7 ex:p6",
    ],
    "path-diagonal": ["ex:p0", "ex:p1", "ex:p2", "ex:p3", "ex:p4", "ex:p5", "ex:p6", "ex:p7"],
    "path-literal-end": [
        "ex:p0 27", "ex:p1 34", "ex:p2 34", "ex:p2 55", "ex:p3 48", "ex:p4 55", "ex:p5 62", "ex:p6 27",
        "ex:p7 20",
    ],
}

#: ... and on the updatable store after :func:`_live_writes`, its delta pending.
PATHS_LIVE = {
    "path-bound-subject": [
        "ex:p0 ex:p0", "ex:p0 ex:p1", "ex:p0 ex:p3", "ex:p0 ex:p4", "ex:p0 ex:p5", "ex:p0 ex:p6",
        "ex:p0 ex:p7", "ex:p4 ex:p0", "ex:p4 ex:p1", "ex:p4 ex:p3", "ex:p4 ex:p4", "ex:p4 ex:p5",
        "ex:p4 ex:p6", "ex:p4 ex:p7",
    ],
    "path-bound-object": [
        "ex:p4 ex:p0", "ex:p6 ex:p0", "ex:p5 ex:p1", "ex:p7 ex:p1", "ex:p9 ex:p1", "ex:p2 ex:p3",
        "ex:p7 ex:p3", "ex:p9 ex:p3", "ex:p0 ex:p4", "ex:p2 ex:p4", "ex:p3 ex:p7", "ex:p5 ex:p7",
        "ex:p2 ex:p6", "ex:p4 ex:p6", "ex:p7 ex:p6",
    ],
    "path-both-bound": PATHS["path-both-bound"],
    "path-all-pairs": [
        "ex:d0 ex:org", "ex:d1 ex:org", "ex:d2 ex:org", "ex:p0 ex:p7", "ex:p0 ex:p9", "ex:p1 ex:p0",
        "ex:p1 ex:p6", "ex:p2 ex:p2", "ex:p3 ex:p0", "ex:p3 ex:p2", "ex:p4 ex:p3", "ex:p5 ex:p2",
        "ex:p5 ex:p4", "ex:p5 ex:p7", "ex:p6 ex:p5", "ex:p7 ex:p4", "ex:p7 ex:p6",
    ],
    "path-diagonal": ["ex:p0", "ex:p2", "ex:p3", "ex:p4", "ex:p5", "ex:p6", "ex:p7"],
    "path-literal-end": [
        "ex:p0 27", "ex:p2 34", "ex:p2 55", "ex:p3 48", "ex:p4 55", "ex:p5 62", "ex:p6 27", "ex:p7 20",
        "ex:p7 55", "ex:p9 20",
    ],
}

#: SDS kernel calls of OPTIONAL under LIMIT with the per-binding operator, on
#: the small LUBM store: A1 (a sparse optional) and A1 over ``name`` (dense).
OPTIONAL_LIMIT_CALLS = {
    ("A1", 1): 6, ("A1", 10): 26, ("A1", 100): 118,
    ("dense", 1): 6, ("dense", 10): 66, ("dense", 100): 612,
}


def _graph() -> Graph:
    """Eight people who know each other around a cycle (plus chords and a
    self-loop), in three departments, two heads; some lack an age or a name."""
    graph = Graph()
    people = [EX[f"p{index}"] for index in range(8)]
    for index, person in enumerate(people):
        graph.add(Triple(person, RDF.type, EX.Student if index % 3 == 0 else EX.Person))
        graph.add(Triple(person, EX.knows, people[(index + 1) % 8]))
        if index % 2 == 0:
            graph.add(Triple(person, EX.knows, people[(index + 3) % 8]))
        graph.add(Triple(person, EX.worksFor, EX[f"d{index % 3}"]))
        if index % 4 != 3:
            graph.add(Triple(person, EX.age, Literal(20 + 7 * index)))
        if index % 3 != 2:
            graph.add(Triple(person, EX.name, Literal(f"name{index}")))
    for department in range(3):
        graph.add(Triple(EX[f"d{department}"], EX.partOf, EX.org))
    graph.add(Triple(people[0], EX.headOf, EX.d0))
    graph.add(Triple(people[4], EX.headOf, EX.d1))
    graph.add(Triple(people[2], EX.knows, people[2]))
    return graph


def _ontology() -> Graph:
    ontology = Graph()
    ontology.add(Triple(EX.Student, RDFS.subClassOf, EX.Person))
    ontology.add(Triple(EX.headOf, RDFS.subPropertyOf, EX.worksFor))
    return ontology


def _live_writes(store) -> None:
    """A pending delta across the paths: a new edge, a removed edge, a new node."""
    store.insert(Triple(EX.p7, EX.knows, EX.p5))
    store.insert(Triple(EX.p9, EX.knows, EX.p0))
    store.insert(Triple(EX.p9, EX.worksFor, EX.d2))
    assert store.delete(Triple(EX.p1, EX.knows, EX.p2))


@pytest.fixture(scope="module")
def stores(tmp_path_factory):
    built = SuccinctEdge.from_graph(_graph(), ontology=_ontology())
    path = tmp_path_factory.mktemp("batch_operators") / "batch.sedg"
    save_store_image(built, str(path), atomic=True)
    live = SuccinctEdge.from_graph(_graph(), ontology=_ontology()).updatable(
        CompactionPolicy(max_delta_operations=None, max_delta_ratio=None)
    )
    _live_writes(live)
    assert live.snapshot_info()["compaction_epoch"] == 0
    return {
        "built": built,
        "mapped": load_store(str(path), mmap=True),
        "sharded": ShardedStore.from_store(built, shards=2),
        "updatable": live,
    }


def _short(term) -> str:
    if term is None:
        return "-"
    if isinstance(term, URI):
        return "ex:" + term.value[len(EX.prefix):]
    return term.lexical if term.datatype != XSD_INTEGER else str(int(term.lexical))


def _rows(result) -> list:
    return [" ".join(map(_short, row)) for row in result.to_tuples()]


def _check(store, text: str, expected: list) -> None:
    """The engine's rows in order, and the oracle's as a multiset."""
    assert _rows(QueryEngine(store).execute(PREFIXES + text)) == expected
    oracle = _rows(MaterializingQueryEngine(store).execute(PREFIXES + text))
    assert collections.Counter(oracle) == collections.Counter(expected)


@pytest.mark.parametrize("name", list(QUERIES))
def test_operators_keep_the_per_binding_order(stores, name):
    _check(stores["built"], QUERIES[name], EXPECTED[name])


@pytest.mark.parametrize("kind", ["built", "mapped", "sharded", "updatable"])
@pytest.mark.parametrize("name", list(PATH_QUERIES))
def test_path_steps_on_every_store(stores, kind, name):
    expected = PATHS_LIVE if kind == "updatable" else PATHS
    _check(stores[kind], PATH_QUERIES[name], expected[name])


@pytest.mark.parametrize("limit", [1, 10, 100])
@pytest.mark.parametrize("shape", ["A1", "dense"])
def test_optional_under_limit_costs_no_more_kernel_calls(small_lubm_store, small_lubm_catalog, shape, limit):
    query = small_lubm_catalog.by_identifier()["A1"].sparql
    if shape == "dense":
        query = query.replace("lubm:headOf ?h", "lubm:name ?h")
    text = f"{query} LIMIT {limit}"
    engine = QueryEngine(small_lubm_store)
    engine.execute(text)  # warm the plan cache and the property lookups
    measured = measure_call(lambda: engine.execute(text))
    assert len(measured.result) == limit
    assert measured.kernel_calls <= OPTIONAL_LIMIT_CALLS[shape, limit]


def _reachable(relation, start):
    """The nodes one or more steps from ``start``: a plain BFS."""
    edges = collections.defaultdict(list)
    for source, target in relation:
        edges[source].append(target)
    reached, frontier = set(), [start]
    while frontier:
        frontier = [target for node in frontier for target in edges[node] if target not in reached]
        reached.update(frontier)
    return reached


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=30))
def test_oracle_closure_equals_a_bfs_from_every_node(relation):
    nodes = {node for pair in relation for node in pair}
    expected = {(start, end) for start in nodes for end in _reachable(relation, start)}
    assert NaivePathOracle._closure(relation) == expected
