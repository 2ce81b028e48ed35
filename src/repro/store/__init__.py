"""SuccinctEdge store: the paper's primary contribution.

The store is split exactly along the paper's architecture (Figure 4):

* :class:`~repro.store.triple_store.ObjectTripleStore` — object-property
  triples in a single PSO index made of id arrays linked by bitmaps
  (:class:`~repro.store.triple_store.PSOLayout`);
* :class:`~repro.store.datatype_store.DatatypeTripleStore` — the same layout
  for datatype-property triples, whose objects live in a flat literal store;
* :class:`~repro.store.rdftype_store.RDFTypeStore` — ``rdf:type`` triples in
  two sorted pair runs (SO and OS access paths);
* :class:`~repro.store.builder.StoreBuilder` — dictionary creation (LiteMat),
  triple partitioning and SDS construction (:func:`~repro.store.builder.build_layouts`);
* :class:`~repro.store.succinct_edge.SuccinctEdge` — the user-facing facade
  (load a graph, run SPARQL queries with or without reasoning);
* :mod:`~repro.store.persistence` — store images, memory-mapped at load;
* :mod:`~repro.store.delta` /
  :class:`~repro.store.updatable.UpdatableSuccinctEdge` — the write path:
  a mutable delta overlay (sorted inserts + tombstones) merged into every
  read, folded into a fresh succinct base by compaction
  (``docs/update_lifecycle.md``);
* :mod:`~repro.store.shipping` — shipping a live store (base image plus
  write log) to worker processes and replicas.
"""

from repro.store.builder import StoreBuilder
from repro.store.datatype_store import DatatypeTripleStore
from repro.store.delta import MANUAL_COMPACTION, CompactionPolicy, DeltaOverlay
from repro.store.persistence import load_store, save_store_image
from repro.store.rdftype_store import RDFTypeStore
from repro.store.sharding import ShardedStore, SubjectPartitioner
from repro.store.succinct_edge import SuccinctEdge
from repro.store.triple_store import ObjectTripleStore
from repro.store.updatable import CompactionReport, UpdatableSuccinctEdge

__all__ = [
    "CompactionPolicy",
    "CompactionReport",
    "DatatypeTripleStore",
    "DeltaOverlay",
    "MANUAL_COMPACTION",
    "ObjectTripleStore",
    "RDFTypeStore",
    "ShardedStore",
    "StoreBuilder",
    "SubjectPartitioner",
    "SuccinctEdge",
    "UpdatableSuccinctEdge",
    "load_store",
    "save_store_image",
]
