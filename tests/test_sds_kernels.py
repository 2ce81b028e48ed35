"""Property-based and brute-force tests for the batched SDS kernels.

The vectorized hot path (sampled select directory, ``rank_many`` /
``select_many`` / ``select_range`` on bitvectors, batched ``access_range`` /
``range_search`` / ``locate`` on the id layers, word-level builder
ingestion) must agree bit-for-bit with the naive single-call definitions.
Every test here checks a batched kernel against its brute-force reference.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sds.bitvector import BitVector, BitVectorBuilder
from repro.sds.int_sequence import IntSequence
from repro.sds.kernels import (
    kernel_counters,
    nth_set_bit,
    popcount,
    reset_kernel_counters,
    set_offsets,
    total_kernel_calls,
)

bit_lists = st.lists(st.integers(min_value=0, max_value=1), max_size=700)

# Mixed densities exercise both the dense (offset-list) and sparse
# (directory re-seek) paths of the select scan.
sparse_bits = st.integers(min_value=1, max_value=1500).flatmap(
    lambda n: st.lists(
        st.sampled_from([0, 0, 0, 0, 0, 0, 0, 1]), min_size=n, max_size=n
    )
)


class TestWordKernels:
    def test_popcount_matches_bin_count(self):
        for word in (0, 1, 0xFF, 0xDEADBEEF, (1 << 64) - 1, 0x8000000000000001):
            assert popcount(word) == bin(word).count("1")

    def test_nth_set_bit_positions(self):
        word = 0b10110010_00000001_10000000_00000000_00000000_00000000_00000000_00000101
        expected = [i for i in range(64) if (word >> i) & 1]
        for n, offset in enumerate(expected, start=1):
            assert nth_set_bit(word, n) == offset
        assert set_offsets(word) == expected

    def test_nth_set_bit_exhausted_raises(self):
        with pytest.raises(ValueError):
            nth_set_bit(0b101, 3)


class TestSampledSelect:
    """The sampled select directory must agree with the naive definition."""

    @settings(max_examples=80, deadline=None)
    @given(bits=bit_lists)
    def test_select_matches_naive_reference(self, bits):
        bv = BitVector(bits)
        positions = [i for i, b in enumerate(bits) if b]
        for occurrence, expected in enumerate(positions, start=1):
            assert bv.select(occurrence) == expected

    def test_select_spanning_many_sample_strides(self):
        # More set bits than one sample stride (512) on both sides.
        bits = ([1] * 1500) + ([0] * 700) + ([1] * 900)
        bv = BitVector(bits)
        assert bv.select(1500, 1) == 1499
        assert bv.select(1501, 1) == 2200
        assert bv.select(2400, 1) == 3099

    def test_select_across_sample_strides_of_mixed_density(self):
        # Several select-sample strides per bit value, with dense, sparse,
        # run-shaped and random stretches: the in-window search must land on
        # the right word whatever the local density.
        import random

        rng = random.Random(5)
        bits = []
        for density in (0.5, 0.02, 0.98, 0.5, 1.0, 0.0, 0.3, 0.5):
            bits += [1 if rng.random() < density else 0 for _ in range(12_000)]
        bv = BitVector(bits)
        positions = [i for i, b in enumerate(bits) if b]
        for occurrence in sorted(set(rng.sample(range(1, len(positions) + 1), 400)) | {1, len(positions)}):
            assert bv.select(occurrence) == positions[occurrence - 1]
        assert bv.select_many(range(1, len(positions) + 1, 97)) == positions[::97]

    def test_select0_ignores_trailing_word_padding(self):
        # Select serves set bits only: asking for a zero is an error, also
        # where the last word's padding zeros would sit.
        bits = [1] * 65  # one full word plus one bit; padding zeros follow
        bv = BitVector(bits)
        with pytest.raises(ValueError):
            bv.select(1, 0)
        with pytest.raises(ValueError):
            bv.select_many([1], 0)
        with pytest.raises(ValueError):
            bv.select_range(1, 1, 0)


class TestBatchedBitVectorKernels:
    @settings(max_examples=60, deadline=None)
    @given(bits=bit_lists, data=st.data())
    def test_rank_many_matches_brute_force(self, bits, data):
        bv = BitVector(bits)
        indices = data.draw(
            st.lists(st.integers(min_value=0, max_value=len(bits)), max_size=30)
        )
        for bit in (0, 1):
            expected = [sum(1 for b in bits[:i] if b == bit) for i in indices]
            assert bv.rank_many(indices, bit) == expected

    @settings(max_examples=60, deadline=None)
    @given(bits=st.one_of(bit_lists, sparse_bits), data=st.data())
    def test_select_many_matches_repeated_select(self, bits, data):
        bv = BitVector(bits)
        total = bv.count(1)
        if total == 0:
            return
        occurrences = sorted(
            data.draw(st.lists(st.integers(min_value=1, max_value=total), max_size=40))
        )
        expected = [bv.select(j) for j in occurrences]
        assert bv.select_many(occurrences) == expected

    @settings(max_examples=60, deadline=None)
    @given(bits=bit_lists, data=st.data())
    def test_select_range_matches_repeated_select(self, bits, data):
        bv = BitVector(bits)
        total = bv.count(1)
        if total == 0:
            return
        first = data.draw(st.integers(min_value=1, max_value=total))
        last = data.draw(st.integers(min_value=first, max_value=total))
        expected = [bv.select(j) for j in range(first, last + 1)]
        assert bv.select_range(first, last) == expected

    def test_select_many_rejects_descending_occurrences(self):
        bv = BitVector([1] * 10)
        with pytest.raises(ValueError):
            bv.select_many([5, 3], 1)

    def test_select_many_beyond_population_raises(self):
        bv = BitVector([1, 0, 1])
        with pytest.raises(ValueError):
            bv.select_many([1, 3], 1)


class TestBuilderFastPaths:
    @settings(max_examples=50, deadline=None)
    @given(prefix=bit_lists, payload=bit_lists)
    def test_extend_bitvector_equals_per_bit_extend(self, prefix, payload):
        fast = BitVectorBuilder()
        fast.extend(prefix)
        fast.extend(BitVector(payload))  # word-level splice
        slow = BitVectorBuilder()
        slow.extend(prefix)
        for bit in payload:
            slow.append(bit)
        assert fast.build().to_list() == slow.build().to_list()

    @settings(max_examples=50, deadline=None)
    @given(prefix=bit_lists, payload=st.binary(max_size=40))
    def test_extend_bytes_little_endian_bit_order(self, prefix, payload):
        builder = BitVectorBuilder()
        builder.extend(prefix)
        builder.extend(payload)
        expected = prefix + [
            (byte >> offset) & 1 for byte in payload for offset in range(8)
        ]
        assert builder.build().to_list() == expected

    @settings(max_examples=50, deadline=None)
    @given(bits=bit_lists, run_bit=st.integers(min_value=0, max_value=1),
           run_length=st.integers(min_value=0, max_value=300))
    def test_append_run(self, bits, run_bit, run_length):
        builder = BitVectorBuilder()
        builder.extend(bits)
        builder.append_run(run_bit, run_length)
        assert builder.build().to_list() == bits + [run_bit] * run_length

    def test_extend_words_unaligned(self):
        builder = BitVectorBuilder()
        builder.append(1)  # misalign by one bit
        builder.extend_words([0xDEADBEEFCAFEBABE, 0x1FF], 73)
        expected = [1]
        for word, count in ((0xDEADBEEFCAFEBABE, 64), (0x1FF, 9)):
            expected.extend((word >> i) & 1 for i in range(count))
        assert builder.build().to_list() == expected

    def test_from_bytes_round_trip(self):
        payload = bytes(range(37))
        bv = BitVector.from_bytes(payload)
        assert len(bv) == len(payload) * 8
        assert bv.to_list() == [
            (byte >> offset) & 1 for byte in payload for offset in range(8)
        ]
        truncated = BitVector.from_bytes(payload, length=101)
        assert truncated.to_list() == bv.to_list()[:101]

    def test_builder_rejects_non_bits_in_fast_loop(self):
        builder = BitVectorBuilder()
        with pytest.raises(ValueError):
            builder.extend([0, 1, 2])


#: Id columns of every item size: ids up to 2**8, 2**16, 2**32 or 2**64.
int_sequences = st.sampled_from([8, 16, 32, 64]).flatmap(
    lambda bits: st.lists(st.integers(min_value=0, max_value=(1 << bits) - 1), max_size=300)
)


class TestIntSequenceBatch:
    @settings(max_examples=60, deadline=None)
    @given(values=int_sequences, data=st.data())
    def test_access_range_matches_slicing(self, values, data):
        seq = IntSequence(values)
        assert seq.to_list() == values
        start = data.draw(st.integers(min_value=0, max_value=len(values)))
        stop = data.draw(st.integers(min_value=start, max_value=len(values)))
        assert seq.access_range(start, stop) == values[start:stop]

    def test_values_straddling_word_boundaries(self):
        # Each id just past the previous item size widens the column.
        for values, itemsize in (
            ([255, 0], 1),
            ([255, 256], 2),
            ([65_535, 65_536], 4),
            ([(1 << 32) - 1, 1 << 32], 8),
        ):
            seq = IntSequence(values)
            assert seq.itemsize == itemsize
            assert [seq.access(i) for i in range(len(values))] == values
            assert seq.access_range(0, len(values)) == values


# Ids over alphabets of every size up to 40, as the PSO layers hold them.
wt_specs = st.integers(min_value=1, max_value=40).flatmap(
    lambda sigma: st.tuples(
        st.just(sigma),
        st.lists(st.integers(min_value=0, max_value=sigma - 1), max_size=300),
    )
)


class TestWaveletTreeBatch:
    """The batched kernels of the PSO id layers (the paper's wavelet trees)
    against slicing and brute force."""

    @settings(max_examples=50, deadline=None)
    @given(spec=wt_specs, data=st.data())
    def test_access_range_matches_slicing(self, spec, data):
        _sigma, values = spec
        layer = IntSequence(values)
        begin = data.draw(st.integers(min_value=0, max_value=len(values)))
        end = data.draw(st.integers(min_value=begin, max_value=len(values)))
        assert layer.access_range(begin, end) == values[begin:end]

    @settings(max_examples=50, deadline=None)
    @given(spec=wt_specs, data=st.data())
    def test_range_search_matches_brute_force(self, spec, data):
        sigma, values = spec
        layer = IntSequence(values)
        begin = data.draw(st.integers(min_value=0, max_value=len(values)))
        end = data.draw(st.integers(min_value=begin, max_value=len(values)))
        symbol = data.draw(st.integers(min_value=0, max_value=sigma - 1))
        assert layer.range_search(begin, end, symbol) == [
            i for i in range(begin, end) if values[i] == symbol
        ]

    @settings(max_examples=50, deadline=None)
    @given(spec=wt_specs, data=st.data())
    def test_range_search_symbols_matches_brute_force(self, spec, data):
        # A symbol interval on an ascending layer (a LiteMat property
        # interval on ``wt_p``) is two bisections.
        sigma, values = spec
        values = sorted(values)
        layer = IntSequence(values)
        lo = data.draw(st.integers(min_value=0, max_value=sigma))
        hi = data.draw(st.integers(min_value=0, max_value=sigma))
        begin = layer.locate(lo)
        end = layer.locate(hi, begin)
        assert list(zip(range(begin, end), layer.access_range(begin, end))) == [
            (i, value) for i, value in enumerate(values) if lo <= value < hi
        ]


class TestKernelCounters:
    def test_batched_call_counts_once(self):
        bv = BitVector([1, 0, 1, 1, 0, 1, 0, 1] * 40)
        reset_kernel_counters()
        bv.select_range(1, bv.count(1))
        counters = kernel_counters()
        assert counters.get("select_many") == 1
        assert total_kernel_calls() == 1
        layer = IntSequence([3, 1, 3, 2, 3])
        reset_kernel_counters()
        assert layer.range_search(0, 5, 3) == [0, 2, 4]
        assert layer.locate(2, 0, 1) == 0
        assert layer.access_range(0, 5) == [3, 1, 3, 2, 3]
        assert kernel_counters()["rank"] == 2
        assert kernel_counters()["access_range"] == 1
        assert total_kernel_calls() == 3
        reset_kernel_counters()
        assert total_kernel_calls() == 0

    def test_measurement_records_kernel_calls(self):
        from repro.bench.measure import measure_call

        bv = BitVector([1, 0] * 100)
        measurement = measure_call(lambda: bv.rank_many(range(0, 200, 7), 1))
        assert measurement.kernel_calls >= 1
        assert "rank_many" in measurement.kernel_breakdown
