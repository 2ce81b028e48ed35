"""UpdatableSuccinctEdge: live inserts and deletes over the succinct base.

:class:`UpdatableSuccinctEdge` is a :class:`~repro.store.succinct_edge.SuccinctEdge`
whose three storage layouts are the overlay read views of
:mod:`repro.store.delta` — every query path (``match``, ``query``, the
streaming pipeline, the optimizer statistics) works unchanged while
:meth:`insert` / :meth:`delete` mutate a small in-memory delta:

* inserts of never-seen individuals extend the (already mutable) instance
  dictionary; never-seen concepts and properties go through the dictionaries'
  *overflow tables* (identifiers above the LiteMat space, degenerate
  intervals) and are merged into the dictionaries at compaction;
* deletes record tombstones; deleting a pending insert simply drops it;
* occurrence statistics *and* the cost-based planner's join profiles
  (per-property triple counts, see :mod:`repro.dictionary.statistics`) are
  maintained incrementally so that the optimizer plans over base + delta —
  every applied write also bumps the statistics version, invalidating
  derived caches (the unbound-pattern mass, epoch-keyed plan caches);
* :meth:`compact` folds the delta into a fresh succinct base through the
  ``presorted`` construction path — the overlay's merged iterators are
  already in PSO / PS / SO order, so compaction skips the sort pass;
  :meth:`compact_in_background` does the expensive SDS construction on a
  worker thread and replays the writes that arrived meanwhile;
* every changed write is also appended to the store's one
  :class:`~repro.store.delta.WriteLog` (:attr:`log`), the term-level
  writes since the current base.  Background compaction replays the suffix
  logged after its snapshot; :mod:`repro.store.shipping` ships the log to
  worker processes and replicas.  Compaction restarts it: a new base is a
  new generation.

Snapshot-epoch accounting: ``data_epoch`` counts applied write operations,
``compaction_epoch`` counts compactions (it is the log's generation), and
:meth:`snapshot_info` reports both next to the base/delta sizes.  See
``docs/update_lifecycle.md`` for the full lifecycle, ordering guarantees and
concurrency caveats.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.rdf.graph import Graph
from repro.rdf.namespaces import RDF_TYPE
from repro.rdf.terms import Literal, Triple, URI
from repro.store.builder import _SCHEMA_PREDICATES, build_layouts
from repro.store.datatype_store import EncodedDatatypeTriple
from repro.store.delta import (
    CompactionPolicy,
    DeltaOverlay,
    OverlayDatatypeStore,
    OverlayObjectStore,
    OverlayTypeStore,
    WriteLog,
)
from repro.store.rdftype_store import EncodedTypeTriple
from repro.store.succinct_edge import SuccinctEdge
from repro.store.triple_store import EncodedTriple


@dataclass(frozen=True)
class CompactionReport:
    """What one compaction did."""

    epoch: int
    object_triples: int
    datatype_triples: int
    type_triples: int
    operations_folded: int
    overflow_terms_merged: int
    duration_ms: float

    @property
    def triples(self) -> int:
        """Total triples in the rebuilt base."""
        return self.object_triples + self.datatype_triples + self.type_triples


@dataclass(frozen=True)
class _Snapshot:
    """A frozen merged view, the input of one base rebuild."""

    object_triples: List[EncodedTriple]
    datatype_triples: List[EncodedDatatypeTriple]
    type_triples: List[EncodedTypeTriple]
    operations: int


class UpdatableSuccinctEdge(SuccinctEdge):
    """A SuccinctEdge with a write path: delta overlay plus compaction.

    Parameters
    ----------
    base:
        The immutable store to overlay.  The updatable store *adopts* the
        base's dictionaries and statistics (they are shared, and the
        dictionaries grow with live inserts).
    policy:
        Compaction thresholds consulted by :meth:`maybe_compact`.  Inserts
        and deletes never compact implicitly — callers (e.g. the edge
        stream processor) decide when to check the policy.
    ontology:
        The ontology graph the base was encoded from, if available.  Kept so
        that :meth:`rebuild` can re-encode with the full hierarchy (schema
        axioms are not stored as data triples and cannot be recovered from
        :meth:`export_graph`).
    """

    def __init__(
        self,
        base: SuccinctEdge,
        policy: Optional[CompactionPolicy] = None,
        ontology: Optional[Graph] = None,
    ) -> None:
        self._base = base
        self._delta = DeltaOverlay()
        self._ontology = ontology
        self.policy = policy if policy is not None else CompactionPolicy()
        super().__init__(
            schema=base.schema,
            concepts=base.concepts,
            properties=base.properties,
            instances=base.instances,
            object_store=OverlayObjectStore(base.object_store, self._delta.objects),
            datatype_store=OverlayDatatypeStore(base.datatype_store, self._delta.datatypes),
            type_store=OverlayTypeStore(base.type_store, self._delta.types),
            statistics=base.statistics,
            skipped_triples=base.skipped_triples,
        )
        self.data_epoch = 0
        self.last_compaction: Optional[CompactionReport] = None
        self._write_lock = threading.RLock()
        self.log = WriteLog(self._write_lock)
        self._compaction_thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #

    @classmethod
    def from_graph(
        cls,
        data: Graph,
        ontology: Optional[Graph] = None,
        policy: Optional[CompactionPolicy] = None,
    ) -> "UpdatableSuccinctEdge":
        """Build an immutable base from ``data`` and wrap it for live updates."""
        return cls(
            SuccinctEdge.from_graph(data, ontology=ontology), policy=policy, ontology=ontology
        )

    @classmethod
    def empty(
        cls,
        ontology: Optional[Graph] = None,
        policy: Optional[CompactionPolicy] = None,
    ) -> "UpdatableSuccinctEdge":
        """An empty live store: dictionaries from the ontology, no triples.

        This is the edge-ingestion entry point — the ontology is encoded once
        (centrally, in the paper's deployment) and every reading afterwards
        arrives through :meth:`insert`.
        """
        return cls.from_graph(Graph(), ontology=ontology, policy=policy)

    # ------------------------------------------------------------------ #
    # write path
    # ------------------------------------------------------------------ #

    def insert(self, triple: Triple) -> bool:
        """Make ``triple`` visible to every read path; ``True`` if it was new.

        Schema-axiom triples (``rdfs:subClassOf`` & co.) and ``rdf:type``
        statements with a non-URI object are skipped, mirroring the builder;
        they count towards :attr:`skipped_triples`.
        """
        with self._write_lock:
            changed = self._apply_insert(triple, record_stats=True)
            if changed:
                self.data_epoch += 1
                self.log.append("insert", triple)
            return changed

    def delete(self, triple: Triple) -> bool:
        """Remove ``triple`` from every read path; ``True`` if it was visible.

        Deleting a pending insert drops it from the delta; deleting a base
        triple records a tombstone that the next compaction folds away.
        """
        with self._write_lock:
            changed = self._apply_delete(triple, record_stats=True)
            if changed:
                self.data_epoch += 1
                self.log.append("delete", triple)
            return changed

    def insert_graph(self, graph: Graph) -> int:
        """Insert every triple of ``graph``; return how many were new."""
        return sum(1 for triple in graph if self.insert(triple))

    def delete_graph(self, graph: Graph) -> int:
        """Delete every triple of ``graph``; return how many were visible."""
        return sum(1 for triple in graph if self.delete(triple))

    # ------------------------------------------------------------------ #
    # compaction
    # ------------------------------------------------------------------ #

    def compact(self, image_path=None, remap: bool = False) -> CompactionReport:
        """Fold the delta into a fresh succinct base (synchronous).

        The merged iterators of the overlay views are already deduplicated
        and in index order, so the new layouts are built through the
        ``presorted`` path with no sort pass.  Identifiers are stable across
        compaction — query results before and after are identical.

        With ``image_path`` the freshly compacted base is additionally
        persisted as a store image, written atomically (staged sibling
        file + ``os.replace``) so a concurrent loader never sees a torn
        image; the image captures exactly the new compaction epoch's
        snapshot.  With ``remap=True`` the written image is immediately
        loaded back memory-mapped and swapped in as the serving base — the
        process then serves straight off the page cache and the heap copies
        of the succinct layouts become garbage.  Both default off; the
        no-argument call keeps its historical behavior.

        If a background compaction is in flight, it is waited for first (its
        swap would otherwise clobber this one's).
        """
        if remap and image_path is None:
            raise ValueError("compact(remap=True) needs image_path to know where to map from")
        self._join_background_compaction()
        with self._write_lock:
            started = time.perf_counter()
            snapshot = self._snapshot()
            new_base = self._build_base(snapshot)
            report = self._install(new_base, snapshot, started)
            if image_path is not None:
                from repro.store.persistence import save_store_image

                save_store_image(self._base, image_path, atomic=True)
                if remap:
                    self._remap_base(image_path)
            return report

    def save_image(self, path, atomic: bool = False) -> int:
        """Write the visible state (base plus pending delta) as a store image.

        The image is built from the same merged snapshot compaction folds,
        taken under the write lock; the live store itself is left as it is
        (its delta stays pending).  Identifiers — overflow terms included —
        are those of the live dictionaries, so ``SuccinctEdge.load`` of the
        image answers every query exactly like this store.
        """
        from repro.store.persistence import save_store_image

        with self._write_lock:
            return save_store_image(self._build_base(self._snapshot()), path, atomic=atomic)

    def _remap_base(self, image_path) -> None:
        """Swap the just-written image in as the memory-mapped serving base.

        Called under the write lock right after :meth:`_install`, so the
        delta is empty and identifiers are stable: the mapped layouts hold
        exactly the triples of the heap-built base they replace.  The facade
        keeps its live (shared, growable) dictionaries and statistics — only
        the three storage layouts are re-pointed at the mapping.
        """
        from repro.store.persistence import load_store

        mapped = load_store(image_path, mmap=True)
        remapped = SuccinctEdge(
            schema=self.schema,
            concepts=self.concepts,
            properties=self.properties,
            instances=self.instances,
            object_store=mapped.object_store,
            datatype_store=mapped.datatype_store,
            type_store=mapped.type_store,
            statistics=self.statistics,
            skipped_triples=mapped.skipped_triples,
        )
        remapped.image = mapped.image
        staged = UpdatableSuccinctEdge(remapped, policy=self.policy, ontology=self._ontology)
        self._base = remapped
        self._delta = staged._delta
        self.object_store = staged.object_store
        self.datatype_store = staged.datatype_store
        self.type_store = staged.type_store
        self.image = mapped.image

    def compact_in_background(self) -> threading.Thread:
        """Fold the delta on a worker thread; returns the (started) thread.

        The snapshot is taken under the write lock, the expensive SDS
        construction runs off-lock while reads and writes proceed against
        the old overlay, and the writes logged after the snapshot are
        replayed onto the fresh delta at swap time.  ``join()`` the returned
        thread to wait for the swap.

        At most one compaction runs at a time: while one is in flight, this
        returns its thread instead of starting another (two overlapping
        swaps would each replay only their own suffix and lose writes).
        """
        with self._write_lock:
            if self._compaction_thread is not None and self._compaction_thread.is_alive():
                return self._compaction_thread
            started = time.perf_counter()
            snapshot = self._snapshot()
            generation, mark = self.log.generation, len(self.log)

            def job() -> None:
                try:
                    new_base = self._build_base(snapshot)
                    staging = UpdatableSuccinctEdge(
                        new_base, policy=self.policy, ontology=self._ontology
                    )
                    with self._write_lock:
                        if self.log.generation != generation:
                            return  # a foreground compact() already folded the snapshot
                        # Replay the writes that raced the build into the
                        # staged delta *before* anything becomes visible, so
                        # unlocked readers never observe a window where an
                        # acknowledged write is missing.  Statistics were
                        # already recorded when each operation was first
                        # applied; the replay only re-populates the delta.
                        for operation, triple in self.log.operations[mark:]:
                            if operation == "insert":
                                staging._apply_insert(triple, record_stats=False)
                            else:
                                staging._apply_delete(triple, record_stats=False)
                            staging.log.append(operation, triple)
                        self._install(new_base, snapshot, started, staged=staging)
                finally:
                    with self._write_lock:
                        self._compaction_thread = None

            thread = threading.Thread(target=job, name="succinctedge-compaction", daemon=True)
            self._compaction_thread = thread
        thread.start()
        return thread

    def maybe_compact(self, background: bool = False) -> bool:
        """Compact if the policy's thresholds are met; ``True`` if triggered.

        While a background compaction is in flight this reports ``False``
        without re-triggering — the pending delta only shrinks at swap time,
        so the thresholds would otherwise re-fire on every check.
        """
        with self._write_lock:
            if self._compaction_thread is not None and self._compaction_thread.is_alive():
                return False
            if not self.policy.should_compact(len(self._delta), len(self._base)):
                return False
            if background:
                self.compact_in_background()
            else:
                self.compact()
            return True

    def _join_background_compaction(self) -> None:
        """Wait for any in-flight background compaction to finish its swap."""
        while True:
            with self._write_lock:
                thread = self._compaction_thread
            if thread is None or not thread.is_alive():
                return
            thread.join()

    def rebuild(self, ontology: Optional[Graph] = None) -> "UpdatableSuccinctEdge":
        """Full re-encode: a *new* updatable store built from the visible triples.

        Unlike :meth:`compact` (which keeps every identifier stable), a
        rebuild runs the whole construction pipeline again, folding overflow
        concepts and properties into a fresh LiteMat encoding.  Use it when
        many never-seen terms have accumulated, or before persisting a store
        whose overflow terms should regain hierarchy intervals.

        ``ontology`` defaults to the graph this store was built from (schema
        axioms are not stored as data triples, so :meth:`export_graph` alone
        could not reproduce the hierarchy).
        """
        with self._write_lock:
            if ontology is None:
                ontology = self._ontology
            return UpdatableSuccinctEdge.from_graph(
                self.export_graph(), ontology=ontology, policy=self.policy
            )

    # ------------------------------------------------------------------ #
    # snapshot-epoch accounting
    # ------------------------------------------------------------------ #

    @property
    def compaction_epoch(self) -> int:  # type: ignore[override]
        """Compactions so far: each one restarts the write log."""
        return self.log.generation

    @property
    def snapshot_epoch(self) -> Tuple[int, int]:
        """``(compaction_epoch, data_epoch)`` — lexicographically monotonic."""
        return self.compaction_epoch, self.data_epoch

    @property
    def base_triple_count(self) -> int:
        """Triples in the immutable base (excludes the delta)."""
        return len(self._base)

    @property
    def delta_operation_count(self) -> int:
        """Pending delta operations (inserts plus tombstones)."""
        return len(self._delta)

    @property
    def base(self) -> SuccinctEdge:
        """The current immutable base store."""
        return self._base

    @property
    def delta(self) -> DeltaOverlay:
        """The current delta overlay."""
        return self._delta

    def snapshot_info(self) -> dict:
        """One consistent accounting snapshot (sizes, epochs, overflow)."""
        with self._write_lock:
            return {
                "compaction_epoch": self.compaction_epoch,
                "data_epoch": self.data_epoch,
                "base_triples": len(self._base),
                "visible_triples": self.triple_count,
                "delta_inserts": self._delta.insert_count,
                "delta_tombstones": self._delta.tombstone_count,
                "overflow_concepts": self.concepts.overflow_count,
                "overflow_properties": self.properties.overflow_count,
            }

    def __repr__(self) -> str:
        return (
            f"UpdatableSuccinctEdge({self.triple_count} visible triples: "
            f"{len(self._base)} base, {self._delta.insert_count} delta inserts, "
            f"{self._delta.tombstone_count} tombstones, "
            f"epoch={self.compaction_epoch}.{self.data_epoch})"
        )

    # ------------------------------------------------------------------ #
    # internals: applying one operation
    # ------------------------------------------------------------------ #

    def _apply_insert(self, triple: Triple, record_stats: bool) -> bool:
        subject, predicate, obj = triple
        if predicate in _SCHEMA_PREDICATES:
            # TBox updates require a re-encode (see docs/update_lifecycle.md);
            # mirroring the builder they are skipped, not stored.
            self.skipped_triples += 1
            return False
        if predicate == RDF_TYPE:
            if not isinstance(obj, URI):
                self.skipped_triples += 1
                return False
            concept_id = self.concepts.add_overflow(obj)
            subject_id = self.instances.add(subject)
            delta = self._delta.types
            if delta.is_tombstoned(subject_id, concept_id):
                delta.remove_tombstone(subject_id, concept_id)
            elif self.type_store.contains(subject_id, concept_id):
                return False
            else:
                delta.add_insert(subject_id, concept_id)
            if record_stats:
                self.concepts.record_occurrence(concept_id)
                self.instances.record_occurrence(subject_id)
                self.statistics.note_type_write(+1)
            return True
        property_id = self.properties.add_overflow(predicate)
        subject_id = self.instances.add(subject)
        if isinstance(obj, Literal):
            delta = self._delta.datatypes
            if delta.is_tombstoned(property_id, subject_id, obj):
                delta.remove_tombstone(property_id, subject_id, obj)
            elif obj in self.datatype_store.literals_for(subject_id, property_id):
                return False
            else:
                delta.add_insert(property_id, subject_id, obj)
            if record_stats:
                self.properties.record_occurrence(property_id)
                self.instances.record_occurrence(subject_id)
                self.statistics.note_property_write(property_id, +1)
            return True
        object_id = self.instances.add(obj)
        delta = self._delta.objects
        if delta.is_tombstoned(property_id, subject_id, object_id):
            delta.remove_tombstone(property_id, subject_id, object_id)
        elif self.object_store.contains(subject_id, property_id, object_id):
            return False
        else:
            delta.add_insert(property_id, subject_id, object_id)
        if record_stats:
            self.properties.record_occurrence(property_id)
            self.instances.record_occurrence(subject_id)
            self.instances.record_occurrence(object_id)
            self.statistics.note_property_write(property_id, +1)
        return True

    def _apply_delete(self, triple: Triple, record_stats: bool) -> bool:
        subject, predicate, obj = triple
        if predicate in _SCHEMA_PREDICATES:
            return False
        if predicate == RDF_TYPE:
            if not isinstance(obj, URI):
                return False
            concept_id = self.concepts.try_locate(obj)
            subject_id = self.instances.try_locate(subject)
            if concept_id is None or subject_id is None:
                return False
            delta = self._delta.types
            if delta.has_insert(subject_id, concept_id):
                delta.remove_insert(subject_id, concept_id)
            elif not delta.is_tombstoned(subject_id, concept_id) and self._base.type_store.contains(
                subject_id, concept_id
            ):
                delta.add_tombstone(subject_id, concept_id)
            else:
                return False
            if record_stats:
                self.concepts.record_occurrence(concept_id, -1)
                self.instances.record_occurrence(subject_id, -1)
                self.statistics.note_type_write(-1)
            return True
        property_id = self.properties.try_locate(predicate)
        subject_id = self.instances.try_locate(subject)
        if property_id is None or subject_id is None:
            return False
        if isinstance(obj, Literal):
            delta = self._delta.datatypes
            if delta.has_insert(property_id, subject_id, obj):
                delta.remove_insert(property_id, subject_id, obj)
            elif not delta.is_tombstoned(property_id, subject_id, obj) and obj in (
                self._base.datatype_store.literals_for(subject_id, property_id)
            ):
                delta.add_tombstone(property_id, subject_id, obj)
            else:
                return False
            if record_stats:
                self.properties.record_occurrence(property_id, -1)
                self.instances.record_occurrence(subject_id, -1)
                self.statistics.note_property_write(property_id, -1)
            return True
        object_id = self.instances.try_locate(obj)
        if object_id is None:
            return False
        delta = self._delta.objects
        if delta.has_insert(property_id, subject_id, object_id):
            delta.remove_insert(property_id, subject_id, object_id)
        elif not delta.is_tombstoned(
            property_id, subject_id, object_id
        ) and self._base.object_store.contains(subject_id, property_id, object_id):
            delta.add_tombstone(property_id, subject_id, object_id)
        else:
            return False
        if record_stats:
            self.properties.record_occurrence(property_id, -1)
            self.instances.record_occurrence(subject_id, -1)
            self.instances.record_occurrence(object_id, -1)
            self.statistics.note_property_write(property_id, -1)
        return True

    # ------------------------------------------------------------------ #
    # internals: compaction machinery
    # ------------------------------------------------------------------ #

    def _snapshot(self) -> _Snapshot:
        """Materialize the merged view (called under the write lock)."""
        return _Snapshot(
            object_triples=list(self.object_store.iter_triples()),
            datatype_triples=list(self.datatype_store.iter_triples()),
            type_triples=list(self.type_store.iter_triples()),
            operations=len(self._delta),
        )

    def _build_base(self, snapshot: _Snapshot) -> SuccinctEdge:
        """Build fresh succinct layouts off a snapshot (no locks needed)."""
        object_store, datatype_store, type_store = build_layouts(
            snapshot.object_triples,
            snapshot.datatype_triples,
            snapshot.type_triples,
            presorted=True,
        )
        return SuccinctEdge(
            schema=self.schema,
            concepts=self.concepts,
            properties=self.properties,
            instances=self.instances,
            object_store=object_store,
            datatype_store=datatype_store,
            type_store=type_store,
            statistics=self.statistics,
            skipped_triples=self.skipped_triples,
        )

    def _install(
        self,
        new_base: SuccinctEdge,
        snapshot: _Snapshot,
        started: float,
        staged: Optional["UpdatableSuccinctEdge"] = None,
    ) -> CompactionReport:
        """Swap in the rebuilt base and its delta (under the write lock).

        ``staged`` carries a pre-populated delta and, in its log, the writes
        that delta holds (background compaction replays racing writes into
        it before the swap); without it a fresh, empty delta is installed.
        The write log restarts on the new base with the staged log's writes
        — the ones the new base does not hold.  Every published attribute
        is a complete, internally consistent object before assignment, and
        old and new views hold the same visible triples, so readers that
        race the swap see correct data whichever objects they grabbed.
        """
        if staged is None:
            staged = UpdatableSuccinctEdge(new_base, policy=self.policy, ontology=self._ontology)
        self._base = new_base
        self._delta = staged._delta
        self.object_store = staged.object_store
        self.datatype_store = staged.datatype_store
        self.type_store = staged.type_store
        overflow_merged = self.concepts.merge_overflow() + self.properties.merge_overflow()
        carried = staged.log.operations
        self.log.restart(self.data_epoch - len(carried), carried)
        report = CompactionReport(
            epoch=self.compaction_epoch,
            object_triples=len(snapshot.object_triples),
            datatype_triples=len(snapshot.datatype_triples),
            type_triples=len(snapshot.type_triples),
            operations_folded=snapshot.operations,
            overflow_terms_merged=overflow_merged,
            duration_ms=(time.perf_counter() - started) * 1000.0,
        )
        self.last_compaction = report
        return report
