"""Unit and property-based tests for the PSO layers' wavelet matrix.

The matrix is the flat form of the paper's wavelet tree (Figure 3): the same
operations over the same sequences, so the tree examples carry over.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sds.bitvector import BitVector
from repro.sds.wavelet_matrix import WaveletMatrix


class TestConstruction:
    def test_empty_sequence(self):
        wt = WaveletMatrix([])
        assert len(wt) == 0
        assert wt.to_list() == []
        assert wt.count(0) == 0
        assert wt.rank(0, 0) == 0

    def test_paper_example_sequence(self):
        # The ABFECBCCADEF example of Figure 3 of the paper (A=0 ... F=5).
        sequence = [0, 1, 5, 4, 2, 1, 2, 2, 0, 3, 4, 5]
        wt = WaveletMatrix(sequence)
        assert wt.to_list() == sequence
        assert wt.count(2) == 3
        assert wt.rank(8, 2) == 3
        assert wt.select(2, 2) == 6

    def test_single_symbol_alphabet(self):
        wt = WaveletMatrix([0, 0, 0, 0])
        assert wt.to_list() == [0, 0, 0, 0]
        assert wt.rank(3, 0) == 3
        assert wt.select(4, 0) == 3

    def test_explicit_alphabet_size(self):
        wt = WaveletMatrix([1, 3], alphabet_size=10)
        assert wt.alphabet_size == 10
        assert wt.count(7) == 0
        assert wt.rank(2, 9) == 0

    def test_symbol_outside_alphabet_raises(self):
        with pytest.raises(ValueError):
            WaveletMatrix([5], alphabet_size=3)

    def test_negative_symbol_raises(self):
        with pytest.raises(ValueError):
            WaveletMatrix([-1])

    def test_repr(self):
        assert "WaveletMatrix" in repr(WaveletMatrix([1, 2, 3]))


class TestAccess:
    def test_access_round_trip(self):
        sequence = [4, 1, 3, 3, 0, 2, 4, 4, 1]
        wt = WaveletMatrix(sequence)
        for index, expected in enumerate(sequence):
            assert wt.access(index) == expected

    def test_access_out_of_range(self):
        wt = WaveletMatrix([1, 2])
        with pytest.raises(IndexError):
            wt.access(2)


class TestRankSelect:
    SEQUENCE = [3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3]

    def test_rank_matches_prefix_count(self):
        wt = WaveletMatrix(self.SEQUENCE)
        for index in range(len(self.SEQUENCE) + 1):
            for symbol in set(self.SEQUENCE):
                assert wt.rank(index, symbol) == self.SEQUENCE[:index].count(symbol)

    def test_rank_unknown_symbol_is_zero(self):
        wt = WaveletMatrix(self.SEQUENCE)
        assert wt.rank(10, 1000) == 0

    def test_select_finds_nth_occurrence(self):
        wt = WaveletMatrix(self.SEQUENCE)
        for symbol in set(self.SEQUENCE):
            positions = [i for i, v in enumerate(self.SEQUENCE) if v == symbol]
            for occurrence, expected in enumerate(positions, start=1):
                assert wt.select(occurrence, symbol) == expected

    def test_select_too_many_occurrences_raises(self):
        wt = WaveletMatrix(self.SEQUENCE)
        with pytest.raises(ValueError):
            wt.select(10, 3)

    def test_select_non_positive_occurrence_raises(self):
        wt = WaveletMatrix(self.SEQUENCE)
        with pytest.raises(ValueError):
            wt.select(0, 3)

    def test_count(self):
        wt = WaveletMatrix(self.SEQUENCE)
        assert wt.count(5) == 3
        assert wt.count(1000) == 0


class TestRangeSearch:
    SEQUENCE = [7, 2, 7, 1, 7, 3, 2, 7, 0, 7, 2, 5]

    def test_range_search_returns_positions_in_order(self):
        wt = WaveletMatrix(self.SEQUENCE)
        assert wt.range_search(0, len(self.SEQUENCE), 7) == [0, 2, 4, 7, 9]
        assert wt.range_search(2, 9, 7) == [2, 4, 7]
        assert wt.range_search(3, 4, 7) == []

    def test_range_search_clamps_bounds(self):
        wt = WaveletMatrix(self.SEQUENCE)
        assert wt.range_search(-5, 100, 0) == [8]
        assert wt.range_search(10, 2, 7) == []

    def test_range_search_symbols_reports_interval_matches(self):
        wt = WaveletMatrix(self.SEQUENCE)
        expected = sorted(
            (i, v) for i, v in enumerate(self.SEQUENCE) if 2 <= v < 6 and 1 <= i < 11
        )
        assert wt.range_search_symbols(1, 11, 2, 6) == expected

    def test_range_search_symbols_empty_interval(self):
        wt = WaveletMatrix(self.SEQUENCE)
        assert wt.range_search_symbols(0, 12, 6, 6) == []
        assert wt.range_search_symbols(5, 5, 0, 8) == []


class TestLevels:
    """The flat layout: one level bitvector per bit of ``sigma - 1``."""

    SEQUENCE = [4, 0, 3, 4, 1, 2, 4, 0, 3]  # sigma = 5: a part-used last level

    @pytest.mark.parametrize("sigma", [1, 2, 3, 4, 5, 7, 8, 9, 17, 1000])
    def test_one_level_per_bit_of_the_alphabet(self, sigma):
        sequence = [(i * 7) % sigma for i in range(23)]
        wt = WaveletMatrix(sequence, alphabet_size=sigma)
        assert len(wt.levels) == (sigma - 1).bit_length()
        assert all(len(bits) == len(sequence) for bits in wt.levels)
        assert wt.to_list() == sequence

    def test_single_symbol_alphabet_has_no_levels(self):
        wt = WaveletMatrix([0] * 5, alphabet_size=1)
        assert wt.levels == []
        assert wt.access(4) == 0
        assert wt.count(0) == 5
        assert wt.rank(3, 0) == 3
        assert wt.select(5, 0) == 4
        assert wt.range_search(1, 4, 0) == [1, 2, 3]
        assert wt.range_search_symbols(0, 5, 0, 1) == [(i, 0) for i in range(5)]

    def test_empty_sequence_over_a_wide_alphabet(self):
        wt = WaveletMatrix([], alphabet_size=5)
        assert [len(bits) for bits in wt.levels] == [0, 0, 0]
        assert wt.to_list() == []
        assert wt.count(4) == 0
        assert wt.range_search(0, 10, 4) == []
        assert wt.range_search_symbols(0, 10, 0, 5) == []
        with pytest.raises(ValueError):
            wt.select(1, 4)

    def test_largest_symbol_of_a_non_power_of_two_alphabet(self):
        wt = WaveletMatrix(self.SEQUENCE, alphabet_size=5)
        assert wt.count(4) == 3
        assert wt.rank(7, 4) == 3
        assert [wt.select(j, 4) for j in (1, 2, 3)] == [0, 3, 6]
        assert wt.range_search(1, 9, 4) == [3, 6]
        assert wt.range_search_symbols(0, 9, 4, 5) == [(0, 4), (3, 4), (6, 4)]
        # Symbols in [sigma, 2 ** levels) are representable but never stored.
        assert wt.count(5) == 0
        assert wt.range_search(0, 9, 7) == []

    def test_symbol_intervals_straddling_level_boundaries(self):
        sequence = [(i * 5 + 3) % 16 for i in range(40)]
        wt = WaveletMatrix(sequence, alphabet_size=16)
        for low in range(17):
            for high in range(low, 18):
                expected = [(i, v) for i, v in enumerate(sequence) if low <= v < high]
                assert wt.range_search_symbols(0, len(sequence), low, high) == expected
                assert wt.range_search_symbols(3, 31, low, high) == [
                    (i, v) for i, v in expected if 3 <= i < 31
                ]

    def test_single_match_takes_the_one_position_ascent(self):
        from repro.sds.kernels import kernel_counters, reset_kernel_counters

        wt = WaveletMatrix(self.SEQUENCE, alphabet_size=5)
        reset_kernel_counters()
        assert wt.range_search(0, 9, 2) == [5]
        counters = kernel_counters()
        assert counters["select"] == 1
        assert counters["select_many"] == 0
        assert wt.range_search(0, 9, 0) == [1, 7]
        assert kernel_counters()["select_many"] == len(wt.levels)

    def test_from_levels_reassembles_the_sequence(self):
        wt = WaveletMatrix(self.SEQUENCE, alphabet_size=5)
        copies = [BitVector(bits.to_list()) for bits in wt.levels]
        rebuilt = WaveletMatrix.from_levels(len(wt), wt.alphabet_size, copies)
        assert rebuilt.to_list() == self.SEQUENCE
        assert rebuilt.range_search_symbols(0, 9, 1, 4) == wt.range_search_symbols(0, 9, 1, 4)


class TestSizeAccounting:
    def test_size_in_bytes_positive_for_nonempty(self):
        assert WaveletMatrix([1, 2, 3, 4]).size_in_bytes() > 0

    def test_size_grows_with_sequence(self):
        small = WaveletMatrix(list(range(16)) * 2)
        large = WaveletMatrix(list(range(16)) * 200)
        assert large.size_in_bytes() > small.size_in_bytes()


@settings(max_examples=50, deadline=None)
@given(sequence=st.lists(st.integers(min_value=0, max_value=40), max_size=300))
def test_property_access_reconstructs_sequence(sequence):
    wt = WaveletMatrix(sequence)
    assert wt.to_list() == sequence


@settings(max_examples=50, deadline=None)
@given(
    sequence=st.lists(st.integers(min_value=0, max_value=25), min_size=1, max_size=200),
    data=st.data(),
)
def test_property_rank_select_consistency(sequence, data):
    wt = WaveletMatrix(sequence)
    symbol = data.draw(st.sampled_from(sequence))
    index = data.draw(st.integers(min_value=0, max_value=len(sequence)))
    assert wt.rank(index, symbol) == sequence[:index].count(symbol)
    occurrences = sequence.count(symbol)
    occurrence = data.draw(st.integers(min_value=1, max_value=occurrences))
    expected_position = [i for i, v in enumerate(sequence) if v == symbol][occurrence - 1]
    assert wt.select(occurrence, symbol) == expected_position


@settings(max_examples=40, deadline=None)
@given(
    sequence=st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=150),
    low=st.integers(min_value=0, max_value=30),
    span=st.integers(min_value=0, max_value=15),
)
def test_property_symbol_range_report_matches_bruteforce(sequence, low, span):
    wt = WaveletMatrix(sequence)
    high = low + span
    expected = sorted((i, v) for i, v in enumerate(sequence) if low <= v < high)
    assert wt.range_search_symbols(0, len(sequence), low, high) == expected
