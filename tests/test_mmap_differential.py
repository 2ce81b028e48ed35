"""Differential tests: a mapped v4 store must equal the builder output.

The acceptance bar of persistence v4: for every one of the paper's 26
evaluation queries (S1-S15, M1-M5, R1-R6) plus the A1-A6 analytics, query
results over a memory-mapped store image are **byte-identical** (same
variables, same rows, same order) to the in-memory builder path — straight
after loading, with a live delta riding on the mapped base, and after a
compact-and-swap cycle that re-maps the freshly written image.

Byte-identity is a strong bar on purpose: the mapped store shares no code
path with the builder for its word buffers (``memoryview`` slices of the
mapping vs. heap ``array`` objects), and the v4 meta stream must restore the
cost-based planner's join statistics exactly, or plans — and therefore row
order — silently diverge.
"""

from __future__ import annotations

import pytest

from repro.rdf.graph import Graph
from repro.rdf.terms import Literal, Triple, URI
from repro.sparql.bindings import AskResult
from repro.store.persistence import load_store, save_store_image
from repro.store.succinct_edge import SuccinctEdge

ALL_QUERY_IDS = (
    [f"S{i}" for i in range(1, 16)]
    + [f"M{i}" for i in range(1, 6)]
    + [f"R{i}" for i in range(1, 7)]
    + [f"A{i}" for i in range(1, 7)]
)


def assert_identical(left_store, right_store, sparql, reasoning=True):
    left = left_store.query(sparql, reasoning=reasoning)
    right = right_store.query(sparql, reasoning=reasoning)
    if isinstance(left, AskResult):
        assert isinstance(right, AskResult)
        assert left.boolean == right.boolean
        return
    assert left.variables == right.variables
    assert left.to_tuples() == right.to_tuples()


# --------------------------------------------------------------------------- #
# fixtures: mapped twin of the builder store, mapped base + live delta
# --------------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def mapped(small_lubm_store, tmp_path_factory):
    """The reference store, saved as a store image and loaded back mapped."""
    path = tmp_path_factory.mktemp("images") / "small_lubm.sedg"
    save_store_image(small_lubm_store, str(path), atomic=True)
    store = load_store(str(path), mmap=True)
    assert store.image is not None and store.image.mapped
    return store


@pytest.fixture(scope="module")
def live_dataset(small_lubm):
    """~80/20 split: base graph plus the triples streamed in live."""
    base = Graph()
    live = []
    for index, triple in enumerate(small_lubm.graph):
        if index % 5 == 4:
            live.append(triple)
        else:
            base.add(triple)
    return base, live


@pytest.fixture(scope="module")
def mapped_live(small_lubm, live_dataset, tmp_path_factory):
    """A live store whose *base* is memory-mapped; deltas arrive via insert()."""
    base, live = live_dataset
    built = SuccinctEdge.from_graph(base, ontology=small_lubm.ontology)
    path = tmp_path_factory.mktemp("live") / "base.sedg"
    save_store_image(built, str(path), atomic=True)
    store = load_store(str(path), mmap=True).updatable(ontology=small_lubm.ontology)
    inserted = sum(1 for triple in live if store.insert(triple))
    assert inserted == len(live)
    return store


@pytest.fixture(scope="module")
def live_reference(small_lubm, live_dataset):
    """Monolithic rebuild over base-then-live data (matches insert order)."""
    base, live = live_dataset
    merged = Graph()
    for triple in base:
        merged.add(triple)
    for triple in live:
        merged.add(triple)
    return SuccinctEdge.from_graph(merged, ontology=small_lubm.ontology)


# --------------------------------------------------------------------------- #
# the differential matrix
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize("identifier", ALL_QUERY_IDS)
def test_mapped_results_byte_identical(mapped, small_lubm_store, small_lubm_catalog, identifier):
    query = small_lubm_catalog.by_identifier()[identifier]
    assert_identical(mapped, small_lubm_store, query.sparql, query.requires_reasoning)


@pytest.mark.parametrize("identifier", ALL_QUERY_IDS)
def test_mapped_with_live_delta_byte_identical(
    mapped_live, live_reference, small_lubm_catalog, identifier
):
    # Writes never touch the read-only mapping: they ride the delta overlay,
    # and the overlay's merged enumeration over a mapped base must stay
    # byte-identical to a monolithic rebuild over the same data.
    query = small_lubm_catalog.by_identifier()[identifier]
    assert_identical(mapped_live, live_reference, query.sparql, query.requires_reasoning)


def test_compact_and_swap_changes_nothing(
    mapped_live, live_reference, small_lubm_catalog, tmp_path_factory
):
    # Fold the delta, persist the compacted base as a fresh image, and swap
    # the new mapping in as the serving base — the full image lifecycle.
    path = tmp_path_factory.mktemp("swap") / "compacted.sedg"
    report = mapped_live.compact(image_path=str(path), remap=True)
    assert report.epoch == 1
    assert mapped_live.delta_operation_count == 0
    assert mapped_live.image is not None and mapped_live.image.mapped
    assert str(mapped_live.image.path) == str(path)
    for identifier in ALL_QUERY_IDS:
        query = small_lubm_catalog.by_identifier()[identifier]
        assert_identical(mapped_live, live_reference, query.sparql, query.requires_reasoning)


def test_writes_after_swap_stay_visible(mapped_live):
    # Ordered after the swap test: the remapped base must still compose with
    # the (fresh) delta overlay — post-swap writes serve like any others.
    subject = URI("http://serving.succinct-edge.example/post-swap")
    predicate = URI("http://serving.succinct-edge.example/value")
    assert mapped_live.insert(Triple(subject, predicate, Literal(7)))
    rows = mapped_live.query(
        "SELECT ?v WHERE { <%s> <%s> ?v }" % (subject, predicate), reasoning=False
    )
    assert len(rows) == 1
    assert mapped_live.delete(Triple(subject, predicate, Literal(7)))


def test_match_enumeration_equals_builder(mapped, small_lubm_store):
    left = sorted(tuple(map(str, triple)) for triple in mapped.match())
    right = sorted(tuple(map(str, triple)) for triple in small_lubm_store.match())
    assert left == right


def test_mapped_size_accounting_is_finite(mapped):
    # Sanity: the accounting paths the docs and benchmarks rely on work over
    # buffer-backed layouts (memoryview words, frozen pair trees, lazy
    # literals) without decoding anything.
    assert mapped.image.size_in_bytes() > 0
    assert mapped.triple_storage_size_in_bytes() > 0
    assert mapped.memory_footprint_in_bytes() > 0
