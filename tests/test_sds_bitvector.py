"""Unit and property-based tests for the rank/select bit vector."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sds.bitvector import BitVector, BitVectorBuilder


class TestBasics:
    def test_empty_vector(self):
        bv = BitVector([])
        assert len(bv) == 0
        assert bv.count(1) == 0
        assert bv.count(0) == 0
        assert bv.rank(0, 1) == 0

    def test_access_returns_stored_bits(self):
        bits = [1, 0, 1, 1, 0, 0, 1]
        bv = BitVector(bits)
        assert [bv.access(i) for i in range(len(bits))] == bits
        assert [bv[i] for i in range(len(bits))] == bits

    def test_access_out_of_range_raises(self):
        bv = BitVector([1, 0])
        with pytest.raises(IndexError):
            bv.access(2)
        with pytest.raises(IndexError):
            bv.access(-1)

    def test_len_and_iter(self):
        bits = [0, 1] * 50
        bv = BitVector(bits)
        assert len(bv) == 100
        assert list(bv) == bits
        assert bv.to_list() == bits

    def test_count(self):
        bv = BitVector([1, 1, 0, 1, 0])
        assert bv.count(1) == 3
        assert bv.count(0) == 2

    def test_count_invalid_bit_raises(self):
        with pytest.raises(ValueError):
            BitVector([1]).count(2)

    def test_equality_and_hash(self):
        a = BitVector([1, 0, 1])
        b = BitVector([1, 0, 1])
        c = BitVector([1, 0, 0])
        assert a == b
        assert a != c
        assert hash(a) == hash(b)

    def test_repr_is_readable(self):
        assert "BitVector" in repr(BitVector([1, 0]))


class TestBuilder:
    def test_builder_appends_in_order(self):
        builder = BitVectorBuilder()
        builder.append(1)
        builder.extend([0, 0, 1])
        assert len(builder) == 4
        assert builder.build().to_list() == [1, 0, 0, 1]

    def test_builder_rejects_non_bits(self):
        builder = BitVectorBuilder()
        with pytest.raises(ValueError):
            builder.append(2)

    def test_builder_spanning_many_words(self):
        bits = [i % 3 == 0 for i in range(1000)]
        bits = [1 if b else 0 for b in bits]
        bv = BitVectorBuilder()
        bv.extend(bits)
        assert bv.build().to_list() == bits


class TestRank:
    def test_rank_prefix_counts(self):
        bits = [1, 0, 1, 1, 0, 1]
        bv = BitVector(bits)
        for i in range(len(bits) + 1):
            assert bv.rank(i, 1) == sum(bits[:i])
            assert bv.rank(i, 0) == i - sum(bits[:i])

    def test_rank_full_length(self):
        bits = [1] * 130
        bv = BitVector(bits)
        assert bv.rank(130, 1) == 130
        assert bv.rank(130, 0) == 0

    def test_rank_out_of_range_raises(self):
        bv = BitVector([1, 0])
        with pytest.raises(IndexError):
            bv.rank(3, 1)

    def test_rank_invalid_bit_raises(self):
        bv = BitVector([1, 0])
        with pytest.raises(ValueError):
            bv.rank(1, 5)


class TestSelect:
    def test_select_ones(self):
        bits = [0, 1, 0, 0, 1, 1, 0, 1]
        bv = BitVector(bits)
        ones = [i for i, b in enumerate(bits) if b]
        for occurrence, expected in enumerate(ones, start=1):
            assert bv.select(occurrence, 1) == expected

    def test_select_zeros(self):
        # The store's bitmaps mark run starts with ones; selecting zeros is
        # not supported, while ranking them stays arithmetic on rank(·, 1).
        bits = [0, 1, 0, 0, 1, 1, 0, 1]
        bv = BitVector(bits)
        for occurrence in range(1, 5):
            with pytest.raises(ValueError):
                bv.select(occurrence, 0)
        assert [bv.rank(i, 0) for i in range(len(bits) + 1)] == [
            bits[:i].count(0) for i in range(len(bits) + 1)
        ]

    def test_select_beyond_population_raises(self):
        bv = BitVector([1, 0, 1])
        with pytest.raises(ValueError):
            bv.select(3, 1)
        with pytest.raises(ValueError):
            bv.select(2, 0)

    def test_select_zero_occurrence_raises(self):
        bv = BitVector([1])
        with pytest.raises(ValueError):
            bv.select(0, 1)

    def test_select_trailing_padding_not_counted_as_zero(self):
        # The last 64-bit word is padded with zero bits; they are not part of
        # the vector, and select(·, 0) is refused outright.
        bits = [1, 1, 1]
        bv = BitVector(bits)
        with pytest.raises(ValueError):
            bv.select(1, 0)

    def test_select_across_word_boundaries(self):
        bits = ([0] * 63) + [1] + ([0] * 63) + [1]
        bv = BitVector(bits)
        assert bv.select(1, 1) == 63
        assert bv.select(2, 1) == 127


class TestRankSelectInverse:
    def test_rank_of_select_identity(self):
        bits = [1, 0, 0, 1, 1, 0, 1, 0, 1, 1]
        bv = BitVector(bits)
        for occurrence in range(1, bv.count(1) + 1):
            position = bv.select(occurrence, 1)
            assert bv.rank(position, 1) == occurrence - 1
            assert bv.access(position) == 1


class TestSizeAccounting:
    def test_size_grows_with_length(self):
        small = BitVector([1] * 64)
        large = BitVector([1] * 6400)
        assert large.size_in_bytes() > small.size_in_bytes()

    def test_size_without_directories_smaller(self):
        bv = BitVector([1, 0] * 500)
        assert bv.size_in_bytes(include_directories=False) < bv.size_in_bytes()


@settings(max_examples=60, deadline=None)
@given(bits=st.lists(st.integers(min_value=0, max_value=1), max_size=600))
def test_property_rank_matches_prefix_sums(bits):
    bv = BitVector(bits)
    for index in range(0, len(bits) + 1, max(1, len(bits) // 7)):
        assert bv.rank(index, 1) == sum(bits[:index])
        assert bv.rank(index, 0) == index - sum(bits[:index])


@settings(max_examples=60, deadline=None)
@given(bits=st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=600))
def test_property_select_inverts_rank(bits):
    bv = BitVector(bits)
    positions = [i for i, b in enumerate(bits) if b]
    for occurrence, expected in enumerate(positions, start=1):
        assert bv.select(occurrence) == expected
        assert bv.rank(expected) == occurrence - 1
