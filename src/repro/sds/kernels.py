"""Word-level SDS kernel helpers shared by the succinct structures.

The rank/select primitives of :mod:`repro.sds` all bottom out in a small
set of word-level kernels collected here:

* ``popcount`` — number of set bits in a 64-bit word.  Uses the native
  ``int.bit_count`` (CPython >= 3.10, a single CPU instruction) and falls back
  to a 16-bit lookup table on older interpreters, mirroring the classic
  sdsl-lite table-driven popcount;
* ``nth_set_bit`` — offset of the n-th set bit inside a word, skipping 16-bit
  chunks through the same table;
* ``set_offsets`` — decode every set-bit offset of a word in one pass
  (lowest-set-bit stripping), the building block of the batched
  ``select_many`` / ``select_range`` kernels.

The module also hosts the **kernel-call counters** used by the benchmark
harness: every public rank/select/locate/range-search entry point on the SDS
structures counts as one kernel call, so a batched primitive that replaces O(results)
round-trips registers as a single call.  ``measure_call`` snapshots the
counters around each measured operation and reports the delta alongside wall
time.
"""

from __future__ import annotations

import os
import sys
from array import array
from typing import Dict, List, Union

WORD_BITS = 64
WORD_MASK = (1 << WORD_BITS) - 1

#: Buffer types the kernels accept interchangeably: the mutable ``array``
#: produced by the builders, or a read-only ``memoryview`` aliasing a mapped
#: store image.  Both support indexing, slicing, ``len``, iteration,
#: ``tolist`` and ``tobytes`` — everything the kernels use.
WordBuffer = Union["array", memoryview]


def words_view(buffer: Union[bytes, bytearray, memoryview], typecode: str = "Q") -> WordBuffer:
    """Expose a bytes-like buffer as read-only little-endian ``typecode`` items.

    ``typecode`` is an unsigned ``array`` typecode: ``Q`` for the 64-bit
    bitvector words, the id width for an id column.  On little-endian hosts
    this is a zero-copy ``memoryview.cast`` — the caller keeps aliasing the
    underlying buffer (typically an ``mmap`` of a store image), so no decode
    pass happens.  Big-endian hosts fall back to one byteswapped ``array``
    copy with identical indexing semantics; the on-disk format stays
    little-endian either way.
    """
    view = memoryview(buffer)
    copied = array(typecode)
    if view.nbytes % copied.itemsize:
        raise ValueError(
            f"buffer length {view.nbytes} is not a multiple of {copied.itemsize} bytes"
        )
    if sys.byteorder == "little":
        return view.toreadonly().cast(typecode)
    copied.frombytes(view.tobytes())
    copied.byteswap()
    return copied

#: 16-bit popcount lookup table (64 KiB, shared by every structure).
POPCOUNT16 = bytes(bin(value).count("1") for value in range(1 << 16))

_HAS_BIT_COUNT = hasattr(int, "bit_count")

if _HAS_BIT_COUNT:
    #: Number of set bits in a 64-bit word: the native ``int.bit_count``
    #: itself, so the hot rank loops pay no Python-level call for it.
    popcount = int.bit_count  # type: ignore[attr-defined]

else:

    def popcount(word: int) -> int:
        """Number of set bits in a 64-bit word (16-bit table fallback)."""
        table = POPCOUNT16
        return (
            table[word & 0xFFFF]
            + table[(word >> 16) & 0xFFFF]
            + table[(word >> 32) & 0xFFFF]
            + table[(word >> 48) & 0xFFFF]
        )


def nth_set_bit(word: int, n: int) -> int:
    """Offset (0-based) of the ``n``-th (1-based) set bit inside ``word``.

    Skips 16-bit chunks via the popcount table, then strips low set bits
    inside the final chunk.
    """
    table = POPCOUNT16
    offset = 0
    w = word
    while True:
        chunk = w & 0xFFFF
        count = table[chunk]
        if n > count:
            n -= count
            w >>= 16
            offset += 16
            if not w:
                raise ValueError(f"word {word:#x} has fewer set bits than requested")
            continue
        for _ in range(n - 1):
            chunk &= chunk - 1
        return offset + (chunk & -chunk).bit_length() - 1


def set_offsets(word: int) -> List[int]:
    """Offsets of every set bit of ``word``, ascending, as a list."""
    out: List[int] = []
    w = word
    while w:
        low = w & -w
        out.append(low.bit_length() - 1)
        w ^= low
    return out


# --------------------------------------------------------------------------- #
# kernel-call accounting
# --------------------------------------------------------------------------- #

#: Mutable per-operation call counters.  Keys are kernel names (``rank``,
#: ``select``, ``rank_many``, ``select_many``, ``access_range``); an id
#: column's ``locate`` and ``range_search`` count as ``rank``.
#: The hot kernels increment their (preset) keys directly.
KERNEL_COUNTS: Dict[str, int] = {}


def kernel_counters() -> Dict[str, int]:
    """A snapshot copy of the per-kernel call counters."""
    return dict(KERNEL_COUNTS)


def total_kernel_calls() -> int:
    """Total kernel calls recorded since the last reset."""
    return sum(KERNEL_COUNTS.values())


def reset_kernel_counters() -> None:
    """Zero every counter (benchmark harness hook).

    Counters are zeroed in place, not removed: the hot kernels increment
    their preset keys directly.
    """
    for name in KERNEL_COUNTS:
        KERNEL_COUNTS[name] = 0


def merge_kernel_counters(deltas: Dict[str, int]) -> None:
    """Fold per-kernel call deltas from elsewhere into this process's totals.

    The process execution backend (:mod:`repro.query.multiproc`) reports
    each worker task's counter delta back to the coordinator; merging keeps
    ``measure_call``'s breakdown complete — kernel work is attributed to the
    measured operation no matter which process ran it.
    """
    for name, count in deltas.items():
        KERNEL_COUNTS[name] = KERNEL_COUNTS.get(name, 0) + count


# A forked worker inherits the parent's counters mid-count; its own work
# must start from zero or the coordinator would double-count the inherited
# calls when the worker reports task deltas.  (Spawned workers start fresh
# interpreters; the pool initializer resets them again, belt and braces.)
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=reset_kernel_counters)
