"""Wavelet matrix over an integer alphabet.

The wavelet matrix ("The Wavelet Matrix", SPIRE 2012) is the flat form
of the wavelet tree that SuccinctEdge's PSO layout is built on: one matrix
per layer (property, subject, object) stores the identifier sequence of that
layer and answers ``access`` / ``rank`` / ``select`` in O(log sigma), plus
the ``range_search`` primitive used by Algorithms 3 and 4 of the paper and
the symbol-interval variant used by LiteMat reasoning (Section 5.2).

Instead of one bitmap per tree node, the matrix holds ``⌈log2 sigma⌉`` level
:class:`~repro.sds.bitvector.BitVector` s of length ``n``.  Level ``l`` stores
bit ``l`` (most significant first) of every symbol, in the order the symbols
reach that level; the next level stably moves the zeros of this level to the
front.  A position therefore descends with one rank per level:

* bit 0 — position ``i`` moves to ``rank0(i)``;
* bit 1 — position ``i`` moves to ``zeros + rank1(i)``, where ``zeros`` is
  the level's zero count (``n - ones``, nothing extra is stored).

The symbols of any tree node still occupy one contiguous interval per level,
so the batched kernels the store layer evaluates triple patterns with carry
over unchanged: ``access_range`` decodes a position interval with one
word-level interleave per (level, interval), and ``range_search`` /
``range_search_symbols`` map matching positions back up with one batched
select scan per level.  Symbol intervals split on bit boundaries, so a
LiteMat identifier interval (a prefix code) is one fully covered node.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.sds.bitvector import BitVector, BitVectorBuilder
from repro.sds.kernels import KERNEL_COUNTS, popcount

#: Runs up to this long decode position by position: one descent each is
#: cheaper than the per-interval interleave for a handful of symbols.
_WALK_MAX = 8


class WaveletMatrix:
    """Immutable wavelet matrix over a sequence of non-negative integers.

    Parameters
    ----------
    sequence:
        The integer sequence to index.
    alphabet_size:
        Optional explicit alphabet size ``sigma``; symbols must fall in
        ``[0, sigma)``.  Defaults to ``max(sequence) + 1``.
    """

    def __init__(self, sequence: Sequence[int], alphabet_size: Optional[int] = None) -> None:
        data = list(sequence)
        if data and min(data) < 0:
            raise ValueError(f"wavelet matrix symbols must be non-negative, got {min(data)}")
        if alphabet_size is None:
            alphabet_size = (max(data) + 1) if data else 1
        if data and max(data) >= alphabet_size:
            raise ValueError(
                f"symbol {max(data)} outside declared alphabet [0, {alphabet_size})"
            )
        sigma = max(1, alphabet_size)
        levels: List[BitVector] = []
        current = data
        for shift in range((sigma - 1).bit_length() - 1, -1, -1):
            bits = [(value >> shift) & 1 for value in current]
            builder = BitVectorBuilder()
            builder.extend(bits)
            levels.append(builder.build())
            # Stable partition: this level's zeros first, then its ones.
            current = [value for value, bit in zip(current, bits) if not bit] + [
                value for value, bit in zip(current, bits) if bit
            ]
        self._install(len(data), sigma, levels)

    @classmethod
    def from_levels(cls, length: int, alphabet_size: int, levels: Sequence[BitVector]) -> "WaveletMatrix":
        """Assemble a matrix around pre-built level bitvectors (a mapped image).

        ``levels`` must hold ``⌈log2 sigma⌉`` bitvectors of ``length`` bits,
        most significant level first; nothing is re-encoded, so construction
        is O(levels) regardless of ``length``.
        """
        matrix = object.__new__(cls)
        matrix._install(length, max(1, alphabet_size), list(levels))
        return matrix

    def _install(self, length: int, sigma: int, levels: List[BitVector]) -> None:
        self._length = length
        self._sigma = sigma
        # One step per level, read on every descent: the bitvector, its word
        # buffers and counts (the descents inline rank1 over them), and the
        # symbol bit the level stores.
        depth = len(levels)
        self._levels: List[tuple] = [
            (
                bits,
                bits._words,
                bits._word_ranks,
                len(bits._words),
                bits.count(1),
                len(bits) - bits.count(1),
                depth - 1 - index,
            )
            for index, bits in enumerate(levels)
        ]

    # ------------------------------------------------------------------ #
    # basic protocol
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return self._length

    def __repr__(self) -> str:
        return f"WaveletMatrix(len={self._length}, sigma={self._sigma})"

    @property
    def alphabet_size(self) -> int:
        """Size of the symbol alphabet ``sigma``."""
        return self._sigma

    @property
    def levels(self) -> List[BitVector]:
        """The level bitvectors, most significant bit first."""
        return [step[0] for step in self._levels]

    def to_list(self) -> List[int]:
        """Materialise the sequence."""
        return self.access_range(0, self._length)

    # ------------------------------------------------------------------ #
    # SDS operations
    # ------------------------------------------------------------------ #

    def access(self, index: int) -> int:
        """Return the symbol stored at position ``index``."""
        if not 0 <= index < self._length:
            raise IndexError(f"index {index} out of range [0, {self._length})")
        KERNEL_COUNTS["access"] += 1
        return self._walk(0, index, 0)

    def _walk(self, level: int, index: int, symbol: int) -> int:
        """Decode one position from ``level`` down, ``symbol`` holding the bits above."""
        for _bits, words, ranks, _count, _ones, zeros, shift in self._levels[level:]:
            word = words[index >> 6]
            offset = index & 63
            ones_before = ranks[index >> 6] + popcount(word & ((1 << offset) - 1))
            if word >> offset & 1:
                index = zeros + ones_before
                symbol |= 1 << shift
            else:
                index -= ones_before
        return symbol

    def access_range(self, begin: int, end: int) -> List[int]:
        """Symbols at positions ``[begin, end)``, decoded level by level.

        The batched counterpart of :meth:`access`: each level is traversed
        once per contiguous interval with word-level bitmap scans, so
        decoding a run of ``k`` symbols costs O(k · log sigma) cheap list
        operations instead of ``k`` independent descents of rank calls.
        """
        begin = max(0, begin)
        end = min(self._length, end)
        if begin >= end:
            return []
        return self._decode(0, begin, end, 0)

    def _decode(self, level: int, begin: int, end: int, prefix: int) -> List[int]:
        """Symbols of the level-``level`` interval ``[begin, end)``; ``prefix``
        holds the bits fixed by the levels above."""
        if level == len(self._levels):
            return [prefix] * (end - begin)
        if end - begin <= _WALK_MAX:
            # Short runs (object probes during bind-propagation joins) skip
            # the per-interval interleave machinery.
            return [self._walk(level, index, prefix) for index in range(begin, end)]
        bits, _words, _ranks, _count, _ones, zeros, shift = self._levels[level]
        ones_begin = bits._rank1(begin)
        ones_end = bits._rank1(end)
        if ones_begin == ones_end:
            return self._decode(level + 1, begin - ones_begin, end - ones_end, prefix)
        upper = prefix | 1 << shift
        if end - begin == ones_end - ones_begin:
            return self._decode(level + 1, zeros + ones_begin, zeros + ones_end, upper)
        lower_values = self._decode(level + 1, begin - ones_begin, end - ones_end, prefix)
        upper_values = self._decode(level + 1, zeros + ones_begin, zeros + ones_end, upper)
        if bits._rank1(end - ones_end + ones_begin) == ones_begin:
            # Every one bit sits at the tail (an ascending run, such as the
            # subjects of one property): the halves just concatenate.
            return lower_values + upper_values
        # Interleave the two halves following this level's bitmap: copy the
        # run of zero-bit symbols before each one bit as one slice.
        out: List[int] = []
        taken = 0
        cursor = begin
        for upper_index, position in enumerate(bits.scan_ones(begin, end)):
            gap = position - cursor
            if gap:
                out += lower_values[taken : taken + gap]
                taken += gap
            out.append(upper_values[upper_index])
            cursor = position + 1
        out += lower_values[taken:]
        return out

    def _descend(self, begin: int, end: int, symbol: int) -> Tuple[int, int]:
        """Map the interval ``[begin, end)`` to ``symbol``'s run on the last level.

        The returned interval holds one position per occurrence of
        ``symbol`` in ``[begin, end)``; both boundaries follow the same
        path, so the pair costs one descent.
        """
        for _bits, words, ranks, count, ones, zeros, shift in self._levels:
            index = begin >> 6
            if index < count:
                ones_begin = ranks[index] + popcount(words[index] & ((1 << (begin & 63)) - 1))
            else:
                ones_begin = ones
            index = end >> 6
            if index < count:
                ones_end = ranks[index] + popcount(words[index] & ((1 << (end & 63)) - 1))
            else:
                ones_end = ones
            if symbol >> shift & 1:
                begin = zeros + ones_begin
                end = zeros + ones_end
            else:
                begin -= ones_begin
                end -= ones_end
            if begin == end:
                break
        return begin, end

    def _ascend_one(self, position: int, symbol: int) -> int:
        """Map one last-level position of ``symbol`` back to the sequence."""
        for bits, _words, _ranks, _count, _ones, zeros, shift in reversed(self._levels):
            if symbol >> shift & 1:
                position = bits._select1(position - zeros + 1)
            else:
                position = bits._select0(position + 1)
        return position

    def _ascend(self, begin: int, end: int, symbol: int) -> List[int]:
        """Map the last-level run ``[begin, end)`` of ``symbol`` back up,
        one batched select scan per level."""
        if end - begin == 1:
            KERNEL_COUNTS["select"] += 1
            return [self._ascend_one(begin, symbol)]
        positions = list(range(begin, end))
        for bits, _words, _ranks, _count, _ones, zeros, shift in reversed(self._levels):
            if symbol >> shift & 1:
                positions = bits.select_many([position - zeros + 1 for position in positions], 1)
            else:
                positions = bits.select_many([position + 1 for position in positions], 0)
        return positions

    def rank(self, index: int, symbol: int) -> int:
        """Number of occurrences of ``symbol`` in positions ``[0, index)``."""
        if not 0 <= index <= self._length:
            raise IndexError(f"rank index {index} out of range [0, {self._length}]")
        if not 0 <= symbol < self._sigma:
            return 0
        KERNEL_COUNTS["rank"] += 1
        begin, end = self._descend(0, index, symbol)
        return end - begin

    def count(self, symbol: int) -> int:
        """Total number of occurrences of ``symbol`` in the sequence."""
        return self.rank(self._length, symbol)

    def select(self, occurrence: int, symbol: int) -> int:
        """Index of the ``occurrence``-th (1-based) occurrence of ``symbol``."""
        if occurrence <= 0:
            raise ValueError("select occurrence is 1-based and must be positive")
        if 0 <= symbol < self._sigma:
            begin, end = self._descend(0, self._length, symbol)
        else:
            begin = end = 0
        if end - begin < occurrence:
            raise ValueError(
                f"symbol {symbol} occurs {end - begin} times, "
                f"cannot select occurrence {occurrence}"
            )
        KERNEL_COUNTS["select"] += 1
        return self._ascend_one(begin + occurrence - 1, symbol)

    def range_search(self, begin: int, end: int, symbol: int) -> List[int]:
        """All positions of ``symbol`` inside ``[begin, end)``, in order.

        This is the paper's ``rangeSearch(a, b, c)`` primitive: one descent
        ranks both boundaries, then the matching positions are materialised
        with one batched select scan per level on the way back up.
        """
        begin = max(0, begin)
        end = min(self._length, end)
        if begin >= end or not 0 <= symbol < self._sigma:
            return []
        KERNEL_COUNTS["rank"] += 1
        low, high = self._descend(begin, end, symbol)
        if low >= high:
            return []
        return self._ascend(low, high, symbol)

    def range_search_symbols(
        self, begin: int, end: int, symbol_lo: int, symbol_hi: int
    ) -> List[Tuple[int, int]]:
        """Positions in ``[begin, end)`` whose symbol lies in ``[symbol_lo, symbol_hi)``.

        Returns ``(position, symbol)`` pairs sorted by position.  This is the
        range report used to evaluate LiteMat identifier intervals
        (reasoning over concept/property hierarchies) without enumerating
        every individual sub-concept.  Matching positions are mapped back up
        with one batched select scan per level.
        """
        begin = max(0, begin)
        end = min(self._length, end)
        symbol_lo = max(0, symbol_lo)
        symbol_hi = min(self._sigma, symbol_hi)
        if begin >= end or symbol_lo >= symbol_hi:
            return []
        return self._collect(0, begin, end, 0, symbol_lo, symbol_hi)

    def _collect(
        self, level: int, begin: int, end: int, prefix: int, symbol_lo: int, symbol_hi: int
    ) -> List[Tuple[int, int]]:
        """Matching ``(position-in-level, symbol)`` pairs, sorted by position.

        The level-``level`` interval ``[begin, end)`` holds exactly the
        symbols of ``[prefix, prefix + 2 ** (depth - level))``.
        """
        if begin >= end:
            return []
        node_hi = prefix + (1 << (len(self._levels) - level))
        if symbol_hi <= prefix or symbol_lo >= node_hi:
            return []
        if symbol_lo <= prefix and node_hi <= symbol_hi:
            # Fully covered: decode the interval directly.
            return list(zip(range(begin, end), self._decode(level, begin, end, prefix)))
        bits, _words, _ranks, _count, _ones, zeros, shift = self._levels[level]
        ones_begin = bits._rank1(begin)
        ones_end = bits._rank1(end)
        lowers = self._collect(
            level + 1, begin - ones_begin, end - ones_end, prefix, symbol_lo, symbol_hi
        )
        uppers = self._collect(
            level + 1, zeros + ones_begin, zeros + ones_end, prefix | 1 << shift, symbol_lo, symbol_hi
        )
        # Map the next level's positions back to this level's (batched
        # select), then merge the two sorted runs.
        merged = list(
            zip(
                bits.select_many([position + 1 for position, _ in lowers], 0),
                [symbol for _, symbol in lowers],
            )
        )
        merged += zip(
            bits.select_many([position - zeros + 1 for position, _ in uppers], 1),
            [symbol for _, symbol in uppers],
        )
        merged.sort()
        return merged

    # ------------------------------------------------------------------ #
    # storage accounting
    # ------------------------------------------------------------------ #

    def size_in_bytes(self) -> int:
        """Approximate storage footprint of every level bitmap."""
        return sum(bits.size_in_bytes() for bits in self.levels)
