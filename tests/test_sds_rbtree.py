"""Tests for the sorted pair runs backing the RDFType store.

The paper keeps ``rdf:type`` triples in red-black trees; the reproduction
keeps two sorted pair runs (:class:`repro.store.rdftype_store.PairRun`)
instead.  These tests pin the run itself — construction through the type
store (sort + dedupe), binary-search membership, slices by first element
with the ``(id, -1)`` sentinel-bound semantics the store relies on — for
both backings: a built ``array('Q')`` and a read-only ``memoryview`` like a
mapped store image hands out.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sds.kernels import words_view
from repro.store.rdftype_store import PairRun, RDFTypeStore


def _run(pairs) -> PairRun:
    """A run built the way the type store builds its SO run."""
    return RDFTypeStore(pairs)._so


def _mapped(run: PairRun) -> PairRun:
    """The same run over a read-only word view, as a mapped image serves it."""
    return PairRun(words_view(run.words.tobytes()), len(run))


def _slice(run: PairRun, low: int, high: int):
    """Pairs whose first element lies in ``[low, high)``."""
    begin, end = run.span(low, high)
    return list(zip(run.firsts(begin, end), run.seconds(begin, end)))


class TestBasics:
    def test_empty_tree(self):
        run = _run([])
        assert len(run) == 0
        assert list(run) == []
        assert (5, 5) not in run
        assert run.span(0, 10) == (0, 0)

    def test_insert_and_lookup(self):
        run = _run([(3, 30), (1, 10), (2, 20)])
        for pair in ((1, 10), (2, 20), (3, 30)):
            assert pair in run
        assert (2, 10) not in run
        assert (4, 0) not in run
        assert len(run) == 3

    def test_duplicate_insert_overwrites(self):
        # Duplicate input pairs collapse to one stored pair.
        run = _run([(1, 10), (1, 10), (1, 10)])
        assert len(run) == 1
        assert list(run) == [(1, 10)]

    def test_in_order_iteration(self):
        keys = [5, 3, 8, 1, 4, 7, 9]
        run = _run([(key, key * 10) for key in keys])
        assert [a for a, _ in run] == [1, 3, 4, 5, 7, 8, 9]
        assert [b for _, b in run] == [10, 30, 40, 50, 70, 80, 90]
        assert run.firsts(0, len(run)) == [1, 3, 4, 5, 7, 8, 9]

    def test_tuple_keys_range(self):
        run = _run([(1, 10), (1, 20), (2, 5), (2, 6), (3, 1)])
        assert _slice(run, 2, 3) == [(2, 5), (2, 6)]
        assert _slice(_mapped(run), 2, 3) == [(2, 5), (2, 6)]

    def test_size_in_bytes(self):
        run = _run([(key, 0) for key in range(100)])
        assert run.size_in_bytes() == 100 * 2 * 8
        assert RDFTypeStore([(key, 0) for key in range(100)]).size_in_bytes() == 100 * 2 * 16


class TestInvariants:
    # A sorted run's counterpart of tree balance: whatever the input order,
    # every pair ends up sorted and binary search finds it.

    def test_sequential_insert_keeps_balance(self):
        run = _run([(key, key) for key in range(500)])
        assert list(run) == [(key, key) for key in range(500)]
        assert all((key, key) in run for key in range(500))

    def test_reverse_insert_keeps_balance(self):
        run = _run([(key, key) for key in reversed(range(500))])
        assert list(run) == [(key, key) for key in range(500)]
        assert all((key, key) in run for key in range(500))

    def test_random_insert_matches_dict(self):
        rng = random.Random(5)
        pairs = [(rng.randrange(1000), rng.randrange(100)) for _ in range(2000)]
        run = _run(pairs)
        assert list(run) == sorted(set(pairs))
        assert list(_mapped(run)) == sorted(set(pairs))


class TestRangeItems:
    def test_range_is_half_open(self):
        run = _run([(key, key) for key in range(10)])
        assert [a for a, _ in _slice(run, 3, 7)] == [3, 4, 5, 6]

    def test_range_outside_keys(self):
        run = _run([(2, 0), (4, 0), (6, 0)])
        assert _slice(run, 7, 100) == []
        assert [a for a, _ in _slice(run, 0, 100)] == [2, 4, 6]


_PAIRS = st.lists(
    st.tuples(st.integers(min_value=0, max_value=60), st.integers(min_value=0, max_value=60)),
    max_size=300,
)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(pairs=_PAIRS, probes=_PAIRS)
def test_property_invariants_and_order(pairs, probes):
    stored = sorted(set(pairs))
    for run in (_run(pairs), _mapped(_run(pairs))):
        assert len(run) == len(stored)
        assert list(run) == stored
        for probe in probes:
            assert (probe in run) == (probe in set(stored))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    pairs=_PAIRS,
    low=st.integers(min_value=0, max_value=70),
    span=st.integers(min_value=0, max_value=30),
)
def test_property_range_items_matches_filter(pairs, low, span):
    high = low + span
    expected = [pair for pair in sorted(set(pairs)) if (low, -1) <= pair < (high, -1)]
    for run in (_run(pairs), _mapped(_run(pairs))):
        assert _slice(run, low, high) == expected
