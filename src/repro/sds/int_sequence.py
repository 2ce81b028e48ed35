"""Fixed-width packed integer sequence.

SuccinctEdge stores flat identifier layers (for example the pointers from
datatype-property subjects into the literal store) as packed integer arrays:
every value is stored with ``ceil(log2(max_value + 1))`` bits, which keeps the
memory footprint close to the information-theoretic minimum while retaining
O(1) random access.

Values are packed little-endian into 64-bit words (a value may straddle a
word boundary), so construction and the batched ``access_range`` kernel run
word-at-a-time instead of manipulating one huge Python integer — the seed
implementation's single big-int buffer made both construction and slicing
quadratic in the sequence length.
"""

from __future__ import annotations

from array import array
from typing import Iterable, Iterator, List, Optional, Sequence

from repro.sds.kernels import KERNEL_COUNTS, WORD_BITS as _WORD_BITS, WORD_MASK as _WORD_MASK


class IntSequence:
    """Immutable fixed-width integer array with O(1) access.

    Values are packed into 64-bit words; the width is derived from the
    maximum value unless given explicitly.
    """

    __slots__ = ("_words", "_width", "_length", "_mask")

    def __init__(self, values: Sequence[int], width: Optional[int] = None) -> None:
        data = list(values)
        for value in data:
            if value < 0:
                raise ValueError(f"IntSequence values must be non-negative, got {value}")
        if width is None:
            width = max(1, max(data).bit_length()) if data else 1
        if data and max(data).bit_length() > width:
            raise ValueError(
                f"value {max(data)} does not fit in declared width {width}"
            )
        self._width = width
        self._length = len(data)
        self._mask = (1 << width) - 1
        words: List[int] = []
        current = 0
        filled = 0
        for value in data:
            current |= (value << filled) & _WORD_MASK
            filled += width
            while filled >= _WORD_BITS:
                words.append(current)
                filled -= _WORD_BITS
                # Bits of ``value`` that spilled past the word boundary.
                current = value >> (width - filled) if filled else 0
                current &= _WORD_MASK
        if filled:
            words.append(current)
        self._words = array("Q", words)

    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return self._length

    def __iter__(self) -> Iterator[int]:
        return iter(self.access_range(0, self._length))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntSequence):
            return NotImplemented
        return (
            self._length == other._length
            and self._width == other._width
            and self._words == other._words
        )

    def __hash__(self) -> int:
        return hash((self._length, self._width, self._words.tobytes()))

    def __repr__(self) -> str:
        preview = ", ".join(str(v) for v in self.access_range(0, min(8, self._length)))
        suffix = ", ..." if self._length > 8 else ""
        return f"IntSequence([{preview}{suffix}], width={self._width})"

    @property
    def width(self) -> int:
        """Number of bits used per value."""
        return self._width

    def access(self, index: int) -> int:
        """Return the value stored at ``index``."""
        if not 0 <= index < self._length:
            raise IndexError(f"index {index} out of range [0, {self._length})")
        width = self._width
        bit_index = index * width
        word_index, offset = divmod(bit_index, _WORD_BITS)
        value = self._words[word_index] >> offset
        spilled = offset + width - _WORD_BITS
        consumed = _WORD_BITS - offset
        while spilled > 0:
            word_index += 1
            value |= self._words[word_index] << consumed
            consumed += _WORD_BITS
            spilled -= _WORD_BITS
        return value & self._mask

    __getitem__ = access

    def access_range(self, start: int, stop: int) -> List[int]:
        """Values at positions ``[start, stop)`` decoded in one word-level pass.

        The batched counterpart of :meth:`access`: the backing words are
        walked once, so materialising a run of ``k`` values costs
        O(k·width/64 + k) instead of ``k`` independent bit-window reads.
        """
        start = max(0, start)
        stop = min(self._length, stop)
        if start >= stop:
            return []
        KERNEL_COUNTS["access_range"] += 1
        width = self._width
        mask = self._mask
        words = self._words
        word_count = len(words)
        out: List[int] = []
        push = out.append
        bit_index = start * width
        word_index, offset = divmod(bit_index, _WORD_BITS)
        buffer = words[word_index] >> offset
        available = _WORD_BITS - offset
        word_index += 1
        for _ in range(stop - start):
            while available < width and word_index < word_count:
                buffer |= words[word_index] << available
                available += _WORD_BITS
                word_index += 1
            push(buffer & mask)
            buffer >>= width
            available -= width
        return out

    def to_list(self) -> List[int]:
        """Materialise the sequence as a plain list."""
        return self.access_range(0, self._length)

    def size_in_bytes(self) -> int:
        """Approximate packed storage footprint in bytes."""
        return (self._length * self._width + 7) // 8

    @classmethod
    def from_iterable(cls, values: Iterable[int], width: Optional[int] = None) -> "IntSequence":
        """Build from any iterable of non-negative integers."""
        return cls(list(values), width=width)

    @classmethod
    def from_buffers(cls, words, length: int, width: int) -> "IntSequence":
        """Assemble a sequence around a pre-packed word buffer without copying.

        The store-image zero-copy constructor: ``words`` is a 64-bit word
        buffer (``array('Q')`` or a read-only ``memoryview`` aliasing a
        mapped store image) holding exactly the packed payload the regular
        constructor would have produced for ``length`` values of ``width``
        bits each.  No repacking happens, so construction is O(1).
        """
        if width <= 0:
            raise ValueError(f"IntSequence width must be positive, got {width}")
        self = object.__new__(cls)
        self._words = words
        self._width = width
        self._length = length
        self._mask = (1 << width) - 1
        return self
