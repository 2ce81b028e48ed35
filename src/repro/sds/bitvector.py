"""Bit vector with constant-time rank and sampled-directory select.

The bitmaps (BM) of SuccinctEdge connect the property, subject and object
layers of its PSO representation (paper Section 4, Figure 5).  They must
support the three SDS primitives:

* ``access(i)`` — the bit at position ``i``;
* ``rank(i, c)`` — number of occurrences of bit ``c`` in positions ``[0, i)``
  (the sdsl-lite convention, exclusive of ``i``);
* ``select(j, c)`` — position of the ``j``-th (1-based) occurrence of ``c``.

The implementation packs bits into 64-bit words and keeps a two-level rank
directory (superblocks of 8 words, per-word cumulative counts) giving O(1)
``rank``.  ``select`` uses a sampled select directory — the word index of
every ``k``-th 1 is recorded at construction — so each call binary searches
only the handful of words between two samples instead of the whole
directory, the sdsl-lite ``select_support_mcl`` discipline.  The store's
bitmaps mark run starts with ones, so ``select`` serves ones only;
``rank(i, 0)`` stays, as arithmetic on ``rank(i, 1)``.

On top of the single-call primitives the class exposes the batched kernels
the query layer is built on: ``rank_many`` (one pass over many indices) and
``select_range`` (one forward walk over the words materialising a range of
occurrence positions).  A batched call does the work of O(results)
single-call round-trips while registering as one kernel invocation.
"""

from __future__ import annotations

import sys
from array import array
from typing import Iterable, Iterator, List, Optional, Union

from repro.sds.kernels import (
    KERNEL_COUNTS,
    WORD_BITS as _WORD_BITS,
    WORD_MASK as _WORD_MASK,
    nth_set_bit as _nth_set_bit_kernel,
    popcount as _popcount,
)

_WORDS_PER_SUPERBLOCK = 8
_SUPERBLOCK_BITS = _WORD_BITS * _WORDS_PER_SUPERBLOCK

#: One select sample is stored per this many occurrences of each bit value.
#: The stride trades directory size against the width of the per-call binary
#: search window; 8192 keeps the directory under ~0.1% of the payload while
#: still bounding every select to one sample stride.
_SELECT_SAMPLE = 8192

for _name in ("rank", "select", "rank_many", "select_many", "access_range"):
    KERNEL_COUNTS.setdefault(_name, 0)


class BitVectorBuilder:
    """Incremental builder for :class:`BitVector`.

    Bits are packed straight into 64-bit words; besides the per-bit
    ``append`` the builder ingests whole words (``extend_words``), byte
    payloads, runs (``append_run``) and existing :class:`BitVector` instances
    word-at-a-time, which is what keeps store construction time bounded by
    the number of *words*, not the number of bits.
    """

    def __init__(self) -> None:
        self._words: List[int] = []
        self._current = 0
        self._filled = 0  # bits occupied in ``_current``

    def __len__(self) -> int:
        return len(self._words) * _WORD_BITS + self._filled

    def append(self, bit: int) -> None:
        """Append a single bit (``0`` or ``1``)."""
        if bit not in (0, 1):
            raise ValueError(f"bit must be 0 or 1, got {bit!r}")
        if bit:
            self._current |= 1 << self._filled
        self._filled += 1
        if self._filled == _WORD_BITS:
            self._words.append(self._current)
            self._current = 0
            self._filled = 0

    def append_run(self, bit: int, count: int) -> None:
        """Append ``count`` copies of ``bit`` (word-at-a-time for long runs)."""
        if bit not in (0, 1):
            raise ValueError(f"bit must be 0 or 1, got {bit!r}")
        if count < 0:
            raise ValueError(f"run length must be non-negative, got {count}")
        remaining = count
        # Fill the partial word first.
        while remaining and self._filled:
            if bit:
                self._current |= 1 << self._filled
            self._filled += 1
            remaining -= 1
            if self._filled == _WORD_BITS:
                self._words.append(self._current)
                self._current = 0
                self._filled = 0
        full_words, tail = divmod(remaining, _WORD_BITS)
        if full_words:
            self._words.extend([_WORD_MASK if bit else 0] * full_words)
        if tail:
            self._current = ((1 << tail) - 1) if bit else 0
            self._filled = tail

    def extend(self, bits: Union["BitVector", bytes, bytearray, memoryview, Iterable[int]]) -> None:
        """Append every bit of ``bits`` in order.

        Word-level fast paths cover :class:`BitVector` payloads and
        bytes-like objects (little-endian bit order within each byte);
        arbitrary iterables fall back to a tight per-bit loop.
        """
        if isinstance(bits, BitVector):
            self.extend_words(bits._words, len(bits))
            return
        if isinstance(bits, (bytes, bytearray, memoryview)):
            data = bytes(bits)
            self.extend_words(_words_from_bytes(data), len(data) * 8)
            return
        current = self._current
        filled = self._filled
        words = self._words
        for bit in bits:
            if bit:
                if bit != 1:
                    self._current, self._filled = current, filled
                    raise ValueError(f"bit must be 0 or 1, got {bit!r}")
                current |= 1 << filled
            elif bit != 0:
                self._current, self._filled = current, filled
                raise ValueError(f"bit must be 0 or 1, got {bit!r}")
            filled += 1
            if filled == _WORD_BITS:
                words.append(current)
                current = 0
                filled = 0
        self._current = current
        self._filled = filled

    def extend_words(self, words: Iterable[int], bit_count: int) -> None:
        """Append ``bit_count`` bits packed little-endian in 64-bit ``words``."""
        if bit_count < 0:
            raise ValueError(f"bit_count must be non-negative, got {bit_count}")
        current = self._current
        filled = self._filled
        out = self._words
        remaining = bit_count
        for word in words:
            if remaining <= 0:
                break
            take = _WORD_BITS if remaining >= _WORD_BITS else remaining
            word &= _WORD_MASK if take == _WORD_BITS else (1 << take) - 1
            current |= (word << filled) & _WORD_MASK
            if filled + take >= _WORD_BITS:
                out.append(current)
                spill = filled + take - _WORD_BITS
                current = word >> (take - spill) if spill else 0
                filled = spill
            else:
                filled += take
            remaining -= take
        if remaining > 0:
            raise ValueError(f"word payload exhausted with {remaining} bits still requested")
        self._current = current
        self._filled = filled

    def build(self) -> "BitVector":
        """Freeze the builder into an immutable :class:`BitVector`."""
        words = list(self._words)
        if self._filled:
            words.append(self._current)
        return BitVector._from_words(words, len(self))


def _check_select_bit(bit: int) -> None:
    if bit != 1:
        raise ValueError(f"select serves set bits only (bit=1), got bit={bit!r}")


def _words_from_bytes(data: bytes) -> List[int]:
    """Pack a byte string into little-endian 64-bit words."""
    padded = data + b"\x00" * (-len(data) % 8)
    words = array("Q")
    words.frombytes(padded)
    if sys.byteorder == "big":
        words.byteswap()
    return list(words)


class BitVector:
    """Immutable bit sequence with rank/select support.

    Instances are typically produced by :class:`BitVectorBuilder` or by the
    convenience constructor ``BitVector(bits)`` where ``bits`` is any iterable
    of 0/1 integers.
    """

    __slots__ = (
        "_words",
        "_length",
        "_superblock_ranks",
        "_word_ranks",
        "_ones",
        "_one_samples",
    )

    def __init__(self, bits: Iterable[int] = ()) -> None:
        builder = BitVectorBuilder()
        builder.extend(bits)
        frozen = builder.build()
        self._words = frozen._words
        self._length = frozen._length
        self._superblock_ranks = frozen._superblock_ranks
        self._word_ranks = frozen._word_ranks
        self._ones = frozen._ones
        self._one_samples = frozen._one_samples

    @classmethod
    def _from_words(cls, words: List[int], length: int) -> "BitVector":
        self = object.__new__(cls)
        self._words = array("Q", words)
        self._length = length
        self._build_directories()
        return self

    @classmethod
    def from_bytes(cls, data: Union[bytes, bytearray, memoryview], length: Optional[int] = None) -> "BitVector":
        """Build from a little-endian byte payload (bit ``i`` = byte ``i//8``, bit ``i%8``)."""
        payload = bytes(data)
        bit_length = len(payload) * 8 if length is None else length
        if bit_length > len(payload) * 8:
            raise ValueError(f"length {bit_length} exceeds payload of {len(payload) * 8} bits")
        words = _words_from_bytes(payload)
        words = words[: (bit_length + _WORD_BITS - 1) // _WORD_BITS]
        if bit_length % _WORD_BITS and words:
            words[-1] &= (1 << (bit_length % _WORD_BITS)) - 1
        return cls._from_words(words, bit_length)

    @classmethod
    def from_buffers(
        cls,
        words,
        length: int,
        ones: int,
        word_ranks,
        superblock_ranks,
        one_samples,
    ) -> "BitVector":
        """Assemble a vector around pre-built word buffers without any rebuild.

        This is the store-image zero-copy constructor: every argument is a
        64-bit word buffer (``array('Q')`` or a read-only ``memoryview``
        aliasing a mapped store image, see
        :func:`repro.sds.kernels.words_view`) holding exactly what
        :meth:`_build_directories` would have produced.  Nothing is copied or
        recomputed — the rank/select directories are trusted as persisted, so
        construction cost is O(1) regardless of the vector's length.
        """
        self = object.__new__(cls)
        self._words = words
        self._length = length
        self._ones = ones
        self._word_ranks = word_ranks
        self._superblock_ranks = superblock_ranks
        self._one_samples = one_samples
        return self

    def _build_directories(self) -> None:
        superblock_ranks = array("Q")
        word_ranks = array("Q")
        one_samples = array("Q")
        running = 0
        # The first stride needs no sample (the search window starts at word
        # 0 anyway), so vectors shorter than one stride carry no select
        # directory at all — important for the many short
        # bitmaps.
        next_one_target = _SELECT_SAMPLE + 1
        for index, word in enumerate(self._words):
            if index % _WORDS_PER_SUPERBLOCK == 0:
                superblock_ranks.append(running)
            word_ranks.append(running)
            ones_here = _popcount(word)
            while running + ones_here >= next_one_target:
                one_samples.append(index)
                next_one_target += _SELECT_SAMPLE
            running += ones_here
        self._superblock_ranks = superblock_ranks
        self._word_ranks = word_ranks
        self._ones = running
        self._one_samples = one_samples

    # ------------------------------------------------------------------ #
    # basic protocol
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return self._length

    def __iter__(self) -> Iterator[int]:
        remaining = self._length
        for word in self._words:
            for offset in range(min(remaining, _WORD_BITS)):
                yield (word >> offset) & 1
            remaining -= _WORD_BITS
            if remaining <= 0:
                break

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitVector):
            return NotImplemented
        return self._length == other._length and self._words == other._words

    def __hash__(self) -> int:
        return hash((self._length, bytes(self._words.tobytes())))

    def __repr__(self) -> str:
        preview = "".join(str(b) for b in self.to_list()[:32])
        suffix = "..." if self._length > 32 else ""
        return f"BitVector(len={self._length}, bits={preview}{suffix})"

    # ------------------------------------------------------------------ #
    # SDS operations
    # ------------------------------------------------------------------ #

    def access(self, index: int) -> int:
        """Return the bit stored at ``index``."""
        if not 0 <= index < self._length:
            raise IndexError(f"bit index {index} out of range [0, {self._length})")
        word_index, offset = divmod(index, _WORD_BITS)
        return (self._words[word_index] >> offset) & 1

    __getitem__ = access

    def count(self, bit: int = 1) -> int:
        """Total number of occurrences of ``bit`` in the vector."""
        if bit == 1:
            return self._ones
        if bit == 0:
            return self._length - self._ones
        raise ValueError(f"bit must be 0 or 1, got {bit!r}")

    def rank(self, index: int, bit: int = 1) -> int:
        """Number of occurrences of ``bit`` in positions ``[0, index)``.

        ``index`` may equal ``len(self)`` (ranking the whole vector).
        """
        if not 0 <= index <= self._length:
            raise IndexError(f"rank index {index} out of range [0, {self._length}]")
        KERNEL_COUNTS["rank"] += 1
        ones = self._rank1(index)
        if bit == 1:
            return ones
        if bit == 0:
            return index - ones
        raise ValueError(f"bit must be 0 or 1, got {bit!r}")

    def _rank1(self, index: int) -> int:
        if index == 0:
            return 0
        word_index, offset = divmod(index, _WORD_BITS)
        if word_index >= len(self._words):
            return self._ones
        partial = self._words[word_index] & ((1 << offset) - 1) if offset else 0
        return self._word_ranks[word_index] + _popcount(partial)

    def rank_many(self, indices: Iterable[int], bit: int = 1) -> List[int]:
        """Batched :meth:`rank` over many indices in one kernel call."""
        if bit not in (0, 1):
            raise ValueError(f"bit must be 0 or 1, got {bit!r}")
        KERNEL_COUNTS["rank_many"] += 1
        words = self._words
        word_ranks = self._word_ranks
        length = self._length
        ones = self._ones
        word_count = len(words)
        pc = _popcount
        out: List[int] = []
        push = out.append
        for index in indices:
            if not 0 <= index <= length:
                raise IndexError(f"rank index {index} out of range [0, {length}]")
            word_index, offset = divmod(index, _WORD_BITS)
            if word_index >= word_count:
                result = ones
            elif offset:
                result = word_ranks[word_index] + pc(words[word_index] & ((1 << offset) - 1))
            else:
                result = word_ranks[word_index]
            push(result if bit == 1 else index - result)
        return out

    def select(self, occurrence: int, bit: int = 1) -> int:
        """Index of the ``occurrence``-th (1-based) set bit.

        Raises :class:`ValueError` when the vector holds fewer than
        ``occurrence`` set bits, and for ``bit`` other than 1.
        """
        _check_select_bit(bit)
        if occurrence <= 0:
            raise ValueError("select occurrence is 1-based and must be positive")
        KERNEL_COUNTS["select"] += 1
        return self._select1(occurrence)

    def _select1(self, occurrence: int) -> int:
        if occurrence > self._ones:
            raise ValueError(
                f"select(1) out of range: asked occurrence {occurrence}, "
                f"vector has {self._ones} set bits"
            )
        word_index = self._select_word(occurrence)
        remaining = occurrence - self._word_ranks[word_index]
        return word_index * _WORD_BITS + _nth_set_bit_kernel(self._words[word_index], remaining)

    def _select_word(self, occurrence: int) -> int:
        """Word containing the ``occurrence``-th set bit, via the sampled directory.

        The samples bound the binary search to the words spanning one sample
        stride (``_SELECT_SAMPLE`` occurrences) instead of the whole vector.
        """
        samples = self._one_samples
        # ``samples[s]`` holds the word of occurrence ``(s + 1) * stride + 1``;
        # the first stride searches from word 0.
        sample_index = (occurrence - 1) // _SELECT_SAMPLE
        if 1 <= sample_index <= len(samples):
            lo = samples[sample_index - 1]
        else:
            lo = 0
        if sample_index < len(samples):
            hi = samples[sample_index]
        else:
            hi = len(self._words) - 1
        word_ranks = self._word_ranks
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if word_ranks[mid] < occurrence:
                lo = mid
            else:
                hi = mid - 1
        return lo

    def select_range(self, first: int, last: int, bit: int = 1) -> List[int]:
        """Positions of set bits ``first..last`` (1-based, inclusive).

        Equivalent to ``[select(j) for j in range(first, last + 1)]``: one
        directory search finds ``select(first)``, then the set bits are read
        off the words in one forward walk.  Counts as one ``select_many``
        kernel call.
        """
        _check_select_bit(bit)
        if first <= 0:
            raise ValueError("select occurrence is 1-based and must be positive")
        if last < first:
            return []
        if last > self._ones:
            raise ValueError(
                f"select(1) out of range: asked occurrence {last}, "
                f"vector has {self._ones} set bits"
            )
        KERNEL_COUNTS["select_many"] += 1
        words = self._words
        word_index = self._select_word(first)
        word = words[word_index]
        skip = first - self._word_ranks[word_index] - 1
        if skip:
            # Clear the word's set bits below ``first``.
            offset = _nth_set_bit_kernel(word, skip + 1)
            word = (word >> offset) << offset
        base = word_index * _WORD_BITS
        remaining = last - first + 1
        out: List[int] = []
        push = out.append
        while True:
            while word:
                low = word & -word
                push(base + low.bit_length() - 1)
                remaining -= 1
                if not remaining:
                    return out
                word ^= low
            word_index += 1
            word = words[word_index]
            base += _WORD_BITS

    # ------------------------------------------------------------------ #
    # storage accounting
    # ------------------------------------------------------------------ #

    def size_in_bytes(self, include_directories: bool = True) -> int:
        """Approximate storage footprint in bytes.

        ``include_directories`` distinguishes the raw bit payload from the
        auxiliary rank/select directories.  The rank overhead is accounted at
        the reference layout cost of sdsl-lite's ``rank_support_v`` (25% of
        the payload); the sampled select directory adds its word-index
        samples at 8 bytes each.
        """
        payload = len(self._words) * 8
        if not include_directories:
            return payload
        directories = (
            (payload + 3) // 4
            + len(self._superblock_ranks) * 8
            + len(self._one_samples) * 8
        )
        return payload + directories

    def to_list(self) -> List[int]:
        """Materialise the bits as a plain Python list (testing helper)."""
        return list(self)
