"""Succinct data structures (SDS) substrate.

SuccinctEdge (EDBT 2021) relies on the sdsl-lite C++ library for its bitmaps
and wavelet trees.  This package is a from-scratch pure-Python replacement
that preserves the operations the paper needs:

* :class:`~repro.sds.bitvector.BitVector` — a compressed-friendly bit sequence
  with O(1) ``rank`` and near-O(1) ``select`` through two-level rank
  directories and sampled select hints.
* :class:`~repro.sds.wavelet_matrix.WaveletMatrix` — the flat form of the
  paper's wavelet tree (one level bitvector per bit of the alphabet)
  supporting ``access``, ``rank``, ``select`` and the paper's
  ``range_search`` primitive in O(log sigma).
* :class:`~repro.sds.int_sequence.IntSequence` — a fixed-width packed integer
  array used for flat layers (e.g. the datatype-property literal pointers).

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
from repro.sds.wavelet_matrix import WaveletMatrix

__all__ = [
    "BitVector",
    "BitVectorBuilder",
    "IntSequence",
    "WaveletMatrix",
    "kernel_counters",
    "reset_kernel_counters",
    "total_kernel_calls",
]
