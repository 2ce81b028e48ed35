"""Tests for the PSO id layers ``wt_p``, ``wt_s`` and ``wt_o``.

The paper keeps each layer in a wavelet tree (Figure 3); this reproduction
keeps it in a byte-aligned :class:`~repro.sds.int_sequence.IntSequence`
(``docs/architecture.md``, "Deviations from the paper").  These tests pin
what the paper's algorithms ask of a layer — ``access``, ``range_search``
(which also answers a symbol's rank and select) and, on the ascending
layers, symbol intervals by bisection — on the paper's examples.  The
brute-force property suite of the column type is in
``test_sds_int_sequence.py``.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sds.int_sequence import IntSequence


def _interval(layer: IntSequence, begin: int, end: int, low: int, high: int):
    """``(position, id)`` of the ids in ``[low, high)`` inside ``[begin, end)``
    of an ascending layer: two bisections, as a LiteMat interval on ``wt_p``."""
    first = layer.locate(low, begin, end)
    last = layer.locate(high, first, end)
    return list(zip(range(first, last), layer.access_range(first, last)))


class TestConstruction:
    def test_empty_sequence(self):
        wt = IntSequence([])
        assert len(wt) == 0
        assert wt.to_list() == []
        assert wt.range_search(0, 0, 0) == []
        assert wt.locate(0) == 0

    def test_paper_example_sequence(self):
        # The ABFECBCCADEF example of Figure 3 of the paper (A=0 ... F=5).
        sequence = [0, 1, 5, 4, 2, 1, 2, 2, 0, 3, 4, 5]
        wt = IntSequence(sequence)
        assert wt.to_list() == sequence
        assert wt.range_search(0, len(sequence), 2) == [4, 6, 7]
        assert wt.range_search(0, 8, 2) == [4, 6, 7]
        assert wt.range_search(5, 12, 5) == [11]

    def test_single_symbol_alphabet(self):
        wt = IntSequence([0, 0, 0, 0])
        assert wt.to_list() == [0, 0, 0, 0]
        assert wt.range_search(0, 3, 0) == [0, 1, 2]
        assert wt.locate(0) == 0
        assert wt.locate(1) == 4

    def test_symbol_outside_alphabet_raises(self):
        # The alphabet of a layer is the 64-bit id space.
        with pytest.raises(ValueError):
            IntSequence([1 << 64])

    def test_negative_symbol_raises(self):
        with pytest.raises(ValueError):
            IntSequence([-1])

    def test_repr(self):
        assert "IntSequence" in repr(IntSequence([1, 2, 3]))


class TestAccess:
    def test_access_round_trip(self):
        sequence = [4, 1, 3, 3, 0, 2, 4, 4, 1]
        wt = IntSequence(sequence)
        for index, expected in enumerate(sequence):
            assert wt.access(index) == expected

    def test_access_out_of_range(self):
        wt = IntSequence([1, 2])
        with pytest.raises(IndexError):
            wt.access(2)


class TestRankSelect:
    """A symbol's rank and select, as a layer answers them now: the
    positions ``range_search`` reports in a prefix, and its n-th hit."""

    SEQUENCE = [3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3]

    def test_rank_matches_prefix_count(self):
        wt = IntSequence(self.SEQUENCE)
        for index in range(len(self.SEQUENCE) + 1):
            for symbol in set(self.SEQUENCE):
                assert len(wt.range_search(0, index, symbol)) == self.SEQUENCE[:index].count(symbol)

    def test_rank_unknown_symbol_is_zero(self):
        wt = IntSequence(self.SEQUENCE)
        assert wt.range_search(0, 10, 1000) == []

    def test_select_finds_nth_occurrence(self):
        wt = IntSequence(self.SEQUENCE)
        for symbol in set(self.SEQUENCE):
            positions = [i for i, v in enumerate(self.SEQUENCE) if v == symbol]
            assert wt.range_search(0, len(self.SEQUENCE), symbol) == positions

    def test_count(self):
        wt = IntSequence(self.SEQUENCE)
        assert len(wt.range_search(0, len(self.SEQUENCE), 5)) == 3
        assert len(wt.range_search(0, len(self.SEQUENCE), 1000)) == 0


class TestRangeSearch:
    SEQUENCE = [7, 2, 7, 1, 7, 3, 2, 7, 0, 7, 2, 5]

    def test_range_search_returns_positions_in_order(self):
        wt = IntSequence(self.SEQUENCE)
        assert wt.range_search(0, len(self.SEQUENCE), 7) == [0, 2, 4, 7, 9]
        assert wt.range_search(2, 9, 7) == [2, 4, 7]
        assert wt.range_search(3, 4, 7) == []

    def test_range_search_clamps_bounds(self):
        wt = IntSequence(self.SEQUENCE)
        assert wt.range_search(-5, 100, 0) == [8]
        assert wt.range_search(10, 2, 7) == []

    def test_range_search_symbols_reports_interval_matches(self):
        ordered = sorted(self.SEQUENCE)
        wt = IntSequence(ordered)
        expected = [(i, v) for i, v in enumerate(ordered) if 2 <= v < 6 and 1 <= i < 11]
        assert _interval(wt, 1, 11, 2, 6) == expected

    def test_range_search_symbols_empty_interval(self):
        wt = IntSequence(sorted(self.SEQUENCE))
        assert _interval(wt, 0, 12, 6, 6) == []
        assert _interval(wt, 5, 5, 0, 8) == []


class TestLevels:
    """The layer's width: one fixed-width item per id, the narrowest whole
    number of bytes (1, 2, 4 or 8) that holds the alphabet."""

    SEQUENCE = [4, 0, 3, 4, 1, 2, 4, 0, 3]  # sigma = 5

    @pytest.mark.parametrize("sigma", [1, 2, 3, 4, 5, 7, 8, 9, 17, 1000])
    def test_one_level_per_bit_of_the_alphabet(self, sigma):
        sequence = [(i * 7) % sigma for i in range(23)]
        wt = IntSequence(sequence)
        itemsize = 1 if max(sequence) < 256 else 2
        assert wt.itemsize == itemsize
        assert wt.size_in_bytes() == len(sequence) * itemsize
        assert wt.to_list() == sequence

    def test_single_symbol_alphabet_has_no_levels(self):
        wt = IntSequence([0] * 5)
        assert wt.itemsize == 1
        assert wt.access(4) == 0
        assert wt.range_search(1, 4, 0) == [1, 2, 3]
        assert _interval(wt, 0, 5, 0, 1) == [(i, 0) for i in range(5)]

    def test_empty_sequence_over_a_wide_alphabet(self):
        wt = IntSequence([])
        assert wt.to_list() == []
        assert wt.range_search(0, 10, 4) == []
        assert _interval(wt, 0, 0, 0, 5) == []
        with pytest.raises(IndexError):
            wt.access(0)

    def test_largest_symbol_of_a_non_power_of_two_alphabet(self):
        wt = IntSequence(self.SEQUENCE)
        assert wt.range_search(0, 9, 4) == [0, 3, 6]
        assert wt.range_search(1, 9, 4) == [3, 6]
        # Ids the layer never stores, inside and past its item width.
        assert wt.range_search(0, 9, 5) == []
        assert wt.range_search(0, 9, 1 << 20) == []
        ordered = IntSequence(sorted(self.SEQUENCE))
        assert _interval(ordered, 0, 9, 4, 5) == [(6, 4), (7, 4), (8, 4)]

    def test_symbol_intervals_straddling_level_boundaries(self):
        # Ids on both sides of the one-byte boundary (255/256).
        sequence = sorted((i * 37 + 3) % 512 for i in range(40))
        wt = IntSequence(sequence)
        assert wt.itemsize == 2
        for low in range(0, 520, 13):
            for high in range(low, 530, 29):
                expected = [(i, v) for i, v in enumerate(sequence) if low <= v < high]
                assert _interval(wt, 0, len(sequence), low, high) == expected
                assert _interval(wt, 3, 31, low, high) == [
                    (i, v) for i, v in expected if 3 <= i < 31
                ]

    def test_from_levels_reassembles_the_sequence(self):
        # The mapped-image path: the same ids wrapped around raw bytes.
        raw = bytes(self.SEQUENCE)
        rebuilt = IntSequence.from_buffers(raw, 1)
        assert rebuilt.to_list() == self.SEQUENCE
        assert rebuilt.range_search(0, 9, 3) == IntSequence(self.SEQUENCE).range_search(0, 9, 3)


class TestSizeAccounting:
    def test_size_in_bytes_positive_for_nonempty(self):
        assert IntSequence([1, 2, 3, 4]).size_in_bytes() > 0

    def test_size_grows_with_sequence(self):
        small = IntSequence(list(range(16)) * 2)
        large = IntSequence(list(range(16)) * 200)
        assert large.size_in_bytes() > small.size_in_bytes()


@settings(max_examples=50, deadline=None)
@given(sequence=st.lists(st.integers(min_value=0, max_value=40), max_size=300))
def test_property_access_reconstructs_sequence(sequence):
    wt = IntSequence(sequence)
    assert wt.to_list() == sequence


@settings(max_examples=50, deadline=None)
@given(
    sequence=st.lists(st.integers(min_value=0, max_value=25), min_size=1, max_size=200),
    data=st.data(),
)
def test_property_rank_select_consistency(sequence, data):
    wt = IntSequence(sequence)
    symbol = data.draw(st.sampled_from(sequence))
    index = data.draw(st.integers(min_value=0, max_value=len(sequence)))
    assert len(wt.range_search(0, index, symbol)) == sequence[:index].count(symbol)
    occurrence = data.draw(st.integers(min_value=1, max_value=sequence.count(symbol)))
    expected_position = [i for i, v in enumerate(sequence) if v == symbol][occurrence - 1]
    assert wt.range_search(0, len(sequence), symbol)[occurrence - 1] == expected_position


@settings(max_examples=40, deadline=None)
@given(
    sequence=st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=150),
    low=st.integers(min_value=0, max_value=30),
    span=st.integers(min_value=0, max_value=15),
)
def test_property_symbol_range_report_matches_bruteforce(sequence, low, span):
    ordered = sorted(sequence)
    wt = IntSequence(ordered)
    high = low + span
    expected = [(i, v) for i, v in enumerate(ordered) if low <= v < high]
    assert _interval(wt, 0, len(ordered), low, high) == expected
