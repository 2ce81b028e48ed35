"""Byte-aligned id array: the one column type of every store layer.

SuccinctEdge's PSO layout (paper Figure 5) keeps each identifier layer in a
wavelet tree.  This reproduction stores every id column the way HDT's
BitmapTriples does (Fernández et al., JWS 2013): as a plain fixed-width
array of identifiers next to the bitmaps that delimit its runs.  An
:class:`IntSequence` holds the property, subject and object layers of the
object layout, the property and subject layers and literal pointers of the
datatype layout, and both columns of each rdf:type pair run.

Each column is stored at the narrowest of 8, 16, 32 or 64 bits that holds
its largest id, as an ``array`` for a built store or a read-only
``memoryview`` aliasing a mapped store image.  The primitives the paper's
algorithms need are then C-level operations on that buffer:

* ``access`` / ``access_range`` — indexing and slicing;
* ``locate`` — bisection inside an ascending run (a subject inside its
  property run, Algorithm 3; a LiteMat property interval; a type run key);
* ``range_search`` — every position of one id inside a range (Algorithm 4),
  a byte-string search over the range.
"""

from __future__ import annotations

import sys
from array import array
from bisect import bisect_left
from typing import Iterable, Iterator, List, Optional

from repro.sds.kernels import KERNEL_COUNTS, WordBuffer, words_view

#: ``array`` typecode of each unsigned item size, narrowest first.
TYPECODES = {}
for _code in "BHILQ":
    TYPECODES.setdefault(array(_code).itemsize, _code)
del _code


class IntSequence:
    """Immutable id array at the narrowest byte-aligned width that fits."""

    __slots__ = ("_values",)

    def __init__(self, values: Iterable[int]) -> None:
        data = values if isinstance(values, list) else list(values)
        if data and min(data) < 0:
            raise ValueError(f"IntSequence values must be non-negative, got {min(data)}")
        largest = max(data, default=0)
        for itemsize, typecode in TYPECODES.items():
            if largest >> (8 * itemsize) == 0:
                self._values: WordBuffer = array(typecode, data)
                return
        raise ValueError(f"IntSequence value {largest} does not fit in 64 bits")

    @classmethod
    def from_buffers(cls, buffer, itemsize: int) -> "IntSequence":
        """Wrap a little-endian byte buffer of ``itemsize``-byte ids without copying.

        The store-image zero-copy constructor: on little-endian hosts the
        column aliases ``buffer`` (typically a slice of a mapped image) as a
        read-only ``memoryview``, so construction is O(1).
        """
        if itemsize not in TYPECODES:
            raise ValueError(f"IntSequence item size must be 1, 2, 4 or 8 bytes, got {itemsize}")
        self = object.__new__(cls)
        self._values = words_view(buffer, TYPECODES[itemsize])
        return self

    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return len(self._values)

    def __iter__(self) -> Iterator[int]:
        return iter(self._values)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntSequence):
            return NotImplemented
        return self.to_list() == other.to_list()

    def __hash__(self) -> int:
        return hash(tuple(self._values))

    def __repr__(self) -> str:
        preview = ", ".join(str(v) for v in self._values[:8])
        suffix = ", ..." if len(self) > 8 else ""
        return f"IntSequence([{preview}{suffix}], itemsize={self.itemsize})"

    @property
    def itemsize(self) -> int:
        """Bytes per stored id: 1, 2, 4 or 8."""
        return self._values.itemsize

    def access(self, index: int) -> int:
        """Return the id stored at ``index``."""
        if not 0 <= index < len(self._values):
            raise IndexError(f"index {index} out of range [0, {len(self._values)})")
        return self._values[index]

    __getitem__ = access

    def access_range(self, begin: int, end: int) -> List[int]:
        """Ids at positions ``[begin, end)`` as a list (one slice)."""
        begin = max(0, begin)
        end = min(len(self._values), end)
        if begin >= end:
            return []
        KERNEL_COUNTS["access_range"] += 1
        return self._values[begin:end].tolist()

    def to_list(self) -> List[int]:
        """Materialise the column as a plain list."""
        return self._values.tolist()

    def locate(self, value: int, begin: int = 0, end: Optional[int] = None) -> int:
        """First position in ``[begin, end)`` whose id is ``>= value``.

        The range must be ascending (a property layer, a subject run, a type
        run's keys); the answer is ``end`` when every id is smaller.  One
        bisection, counted as one ``rank``.
        """
        KERNEL_COUNTS["rank"] += 1
        return bisect_left(self._values, value, begin, len(self._values) if end is None else end)

    def range_search(self, begin: int, end: int, value: int) -> List[int]:
        """Every position of ``value`` inside ``[begin, end)``, ascending.

        The paper's ``rangeSearch(a, b, c)`` over an unordered range (the
        objects of one property, Algorithm 4): one byte-string search over
        the range, keeping the hits that start on an item boundary.
        """
        begin = max(0, begin)
        end = min(len(self._values), end)
        itemsize = self._values.itemsize
        if begin >= end or value < 0 or value >> (8 * itemsize):
            return []
        KERNEL_COUNTS["rank"] += 1
        raw = self._values[begin:end].tobytes()
        needle = value.to_bytes(itemsize, sys.byteorder)
        found: List[int] = []
        hit = raw.find(needle)
        while hit >= 0:
            if hit % itemsize:
                hit = raw.find(needle, hit + itemsize - hit % itemsize)
                continue
            found.append(begin + hit // itemsize)
            hit = raw.find(needle, hit + itemsize)
        return found

    def size_in_bytes(self) -> int:
        """Storage footprint of the id array in bytes."""
        return len(self._values) * self._values.itemsize
