"""Succinct data structures (SDS) substrate.

SuccinctEdge (EDBT 2021) relies on the sdsl-lite C++ library for its bitmaps
and wavelet trees.  This package is a from-scratch pure-Python replacement
that preserves the operations the paper needs:

* :class:`~repro.sds.bitvector.BitVector` — a compressed-friendly bit sequence
  with O(1) ``rank`` and near-O(1) ``select`` through two-level rank
  directories and sampled select hints.
* :class:`~repro.sds.int_sequence.IntSequence` — the one id-column type: a
  byte-aligned id array (8, 16, 32 or 64 bits, the narrowest that fits)
  with ``access``, batched ``access_range``, bisection (``locate``) and the
  paper's ``range_search``.  It holds every id layer where the paper keeps
  a wavelet tree (HDT BitmapTriples' layout; ``docs/architecture.md``,
  "Deviations from the paper"), the literal pointers and the rdf:type runs.

The paper keeps ``rdf:type`` triples in red-black trees; this reproduction
uses two sorted pair runs instead (:mod:`repro.store.rdftype_store`).
"""

from repro.sds.bitvector import BitVector, BitVectorBuilder
from repro.sds.int_sequence import IntSequence
from repro.sds.kernels import (
    kernel_counters,
    reset_kernel_counters,
    total_kernel_calls,
)

__all__ = [
    "BitVector",
    "BitVectorBuilder",
    "IntSequence",
    "kernel_counters",
    "reset_kernel_counters",
    "total_kernel_calls",
]
