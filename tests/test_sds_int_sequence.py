"""Tests for the byte-aligned id array, the store's one id-column type.

``TestBasics`` and ``TestSizeAccounting`` pin construction, width choice
and accounting by example.  The property suite below checks every
primitive against brute force on columns whose values straddle each
item-size boundary, both built and wrapped around raw little-endian bytes
with ``from_buffers`` (the mapped-image path).
"""

from __future__ import annotations

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sds.int_sequence import IntSequence


class TestBasics:
    def test_empty(self):
        seq = IntSequence([])
        assert len(seq) == 0
        assert seq.to_list() == []
        assert seq.locate(5) == 0
        assert seq.range_search(0, 10, 0) == []

    def test_round_trip(self):
        values = [5, 0, 17, 3, 255, 1]
        seq = IntSequence(values)
        assert seq.to_list() == values
        assert [seq[i] for i in range(len(values))] == values
        assert list(seq) == values

    def test_width_derived_from_max_value(self):
        assert IntSequence([0, 1]).itemsize == 1
        assert IntSequence([255]).itemsize == 1
        assert IntSequence([256]).itemsize == 2
        assert IntSequence([65_536]).itemsize == 4
        assert IntSequence([1 << 32]).itemsize == 8

    def test_value_too_wide_raises(self):
        with pytest.raises(ValueError):
            IntSequence([1 << 64])

    def test_negative_value_raises(self):
        with pytest.raises(ValueError):
            IntSequence([-1])

    def test_access_out_of_range(self):
        seq = IntSequence([1, 2])
        with pytest.raises(IndexError):
            seq.access(2)
        with pytest.raises(IndexError):
            seq.access(-1)

    def test_equality_and_hash(self):
        assert IntSequence([1, 2, 3]) == IntSequence([1, 2, 3])
        assert IntSequence([1, 2, 3]) != IntSequence([1, 2, 4])
        assert hash(IntSequence([9])) == hash(IntSequence([9]))
        # A mapped column equals the built one it was written from.
        assert IntSequence.from_buffers(_raw([1, 300]), 2) == IntSequence([1, 300])

    def test_range_search_skips_unaligned_byte_matches(self):
        # 256, 1, 257 are the bytes 00 01 | 01 00 | 01 01: 257's bytes also
        # occur across the first two items, which is no match.
        seq = IntSequence([256, 1, 257])
        assert seq.range_search(0, 3, 257) == [2]
        assert seq.range_search(0, 2, 257) == []

    def test_from_iterable(self):
        assert IntSequence(range(5)).to_list() == [0, 1, 2, 3, 4]

    def test_repr(self):
        assert "IntSequence" in repr(IntSequence([1, 2]))


class TestSizeAccounting:
    def test_packed_size_is_compact(self):
        # 1000 ids below 256 take one byte each, far below 1000 * 8.
        seq = IntSequence([i % 16 for i in range(1000)])
        assert seq.size_in_bytes() == 1000

    def test_size_scales_with_width(self):
        narrow = IntSequence([1] * 100)
        wide = IntSequence([1] * 99 + [1 << 20])
        assert narrow.size_in_bytes() == 100
        assert wide.size_in_bytes() == 400


def test_from_buffers_rejects_bad_shapes():
    with pytest.raises(ValueError):
        IntSequence.from_buffers(b"\x00" * 6, 3)
    with pytest.raises(ValueError):
        IntSequence.from_buffers(b"\x00" * 6, 4)


@pytest.mark.skipif(sys.byteorder != "little", reason="big-endian hosts copy+byteswap")
def test_from_buffers_aliases_the_buffer():
    raw = bytearray(_raw([7, 8, 9]))
    seq = IntSequence.from_buffers(raw, 1)
    raw[1] = 42
    assert seq.to_list() == [7, 42, 9]
    assert seq._values.readonly


# --------------------------------------------------------------------------- #
# property suite
# --------------------------------------------------------------------------- #

#: The largest id of each item size and the smallest of the next.
_BOUNDARIES = [0, 1, 255, 256, 65_535, 65_536, (1 << 32) - 1, 1 << 32, (1 << 64) - 1]


def _raw(values) -> bytes:
    """``values`` as little-endian items of the narrowest size that fits."""
    itemsize = _narrowest(max(values, default=0))
    return b"".join(value.to_bytes(itemsize, "little") for value in values)


def _narrowest(largest: int) -> int:
    return next(size for size in (1, 2, 4, 8) if largest < 1 << (8 * size))


def _near_boundary(boundary: int):
    return st.integers(min_value=max(0, boundary - 3), max_value=min((1 << 64) - 1, boundary + 3))


#: Ids clustered around one boundary, plus small ids: columns whose largest
#: id sits just below or just above an item-size boundary.
_ids = st.sampled_from(_BOUNDARIES).flatmap(
    lambda boundary: st.lists(
        st.one_of(_near_boundary(boundary), st.integers(min_value=0, max_value=300)),
        max_size=120,
    )
)


def _columns(values):
    """The built column and the same ids wrapped around raw bytes."""
    built = IntSequence(values)
    return built, IntSequence.from_buffers(_raw(values), built.itemsize)


@settings(max_examples=80, deadline=None)
@given(values=st.lists(st.integers(min_value=0, max_value=10**9), max_size=300))
def test_property_round_trip(values):
    assert IntSequence(values).to_list() == values


@settings(max_examples=120, deadline=None)
@given(values=_ids)
def test_property_itemsize_is_the_narrowest_that_fits(values):
    for column in _columns(values):
        assert column.itemsize == _narrowest(max(values, default=0))
        assert column.size_in_bytes() == len(values) * column.itemsize


@settings(max_examples=120, deadline=None)
@given(values=_ids, data=st.data())
def test_property_access_matches_brute_force(values, data):
    begin = data.draw(st.integers(min_value=-3, max_value=len(values) + 3))
    end = data.draw(st.integers(min_value=-3, max_value=len(values) + 3))
    for column in _columns(values):
        assert len(column) == len(values)
        assert [column.access(i) for i in range(len(values))] == values
        assert column.access_range(begin, end) == values[max(0, begin) : max(0, end)]
        assert column.to_list() == values


@settings(max_examples=120, deadline=None)
@given(values=_ids, data=st.data())
def test_property_range_search_matches_brute_force(values, data):
    begin = data.draw(st.integers(min_value=-3, max_value=len(values) + 3))
    end = data.draw(st.integers(min_value=begin, max_value=len(values) + 3))
    # Probe stored ids, their neighbours and ids wider than the column.
    probes = data.draw(
        st.lists(
            st.one_of(
                st.sampled_from(values or [0]),
                st.sampled_from(_BOUNDARIES),
                st.integers(min_value=0, max_value=1 << 65),
            ),
            max_size=6,
        )
    )
    for column in _columns(values):
        for value in probes:
            assert column.range_search(begin, end, value) == [
                i for i in range(max(0, begin), min(len(values), end)) if values[i] == value
            ]


@settings(max_examples=120, deadline=None)
@given(values=_ids, data=st.data())
def test_property_locate_matches_brute_force(values, data):
    ordered = sorted(values)
    begin = data.draw(st.integers(min_value=0, max_value=len(ordered)))
    end = data.draw(st.integers(min_value=begin, max_value=len(ordered)))
    probes = data.draw(
        st.lists(st.one_of(st.sampled_from(ordered or [0]), st.sampled_from(_BOUNDARIES)), max_size=6)
    )
    for column in _columns(ordered):
        for value in probes:
            expected = next((i for i in range(begin, end) if ordered[i] >= value), end)
            assert column.locate(value, begin, end) == expected
            assert column.locate(value) == next(
                (i for i, stored in enumerate(ordered) if stored >= value), len(ordered)
            )
