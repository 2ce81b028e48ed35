"""Sharded store: subject-interval partitioning across N SuccinctEdge shards.

The scale-out layer of the serving stack (``docs/operations.md``).  A
:class:`ShardedStore` range-partitions the encoded triples by **subject
identifier interval** across N shards.  Each shard is a complete
:class:`~repro.store.succinct_edge.SuccinctEdge` (or, with ``updatable=True``,
an :class:`~repro.store.updatable.UpdatableSuccinctEdge` carrying its own
delta overlay), all sharing one set of dictionaries, one ontology schema and
one statistics object — exactly the deployment the paper sketches, where the
central server broadcasts the LiteMat encodings so every edge store assigns
identical identifiers.

Why subject intervals (and not hashing): the base layouts enumerate every
property run *ordered by subject*, so disjoint ascending subject intervals
make the merged enumeration a plain concatenation in shard order — no k-way
heap merge, and results stay **byte-identical** to a monolithic store:

* :class:`ShardedObjectStore` / :class:`ShardedDatatypeStore` /
  :class:`ShardedTypeStore` are read views implementing the exact store API
  (the methods :mod:`repro.query.tp_eval` and ``SuccinctEdge.match`` call);
  per-shard answers are concatenated in shard order (PSO / PS / SO
  preserved), and subject-bound probes are **pruned** to the single owning
  shard;
* writes route by subject to the owning shard (never-seen subjects always
  receive fresh, larger identifiers, which by construction belong to the
  last shard's open interval);
* epoch accounting aggregates across shards, so the serving layer's result
  cache (``repro.serve``) invalidates on any shard's write;
* the facade keeps the store's one :class:`~repro.store.delta.WriteLog`
  (:attr:`ShardedStore.log`) of routed writes, whose base is the current
  shard image directory (:meth:`ShardedStore.save_image_directory`):
  :mod:`repro.store.shipping` ships directory plus log to worker processes
  and replicas.  A shard compaction replaces part of that base, so it
  restarts the log with no directory; while no directory exists nothing is
  logged, and the next directory save starts the next generation.

The differential bar (``tests/test_sharding_differential.py``): all 26 paper
queries + A1-A6 byte-identical to the monolithic store, including with a
live delta on one shard.
"""

from __future__ import annotations

import json
import os
import threading
from bisect import bisect_right
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.rdf.graph import Graph
from repro.rdf.terms import Literal, Triple
from repro.store.builder import build_layouts
from repro.store.datatype_store import EncodedDatatypeTriple
from repro.store.delta import CompactionPolicy, WriteLog
from repro.store.rdftype_store import EncodedTypeTriple
from repro.store.succinct_edge import SuccinctEdge
from repro.store.triple_store import EncodedTriple
from repro.store.updatable import CompactionReport, UpdatableSuccinctEdge


class SubjectPartitioner:
    """Maps a subject identifier to the shard owning its interval.

    ``boundaries`` holds the N-1 interior split points of N ascending,
    disjoint, jointly exhaustive intervals: shard ``i`` owns
    ``[boundaries[i-1], boundaries[i])`` with the first interval starting at
    0 and the last one open-ended.  The open last interval is what makes
    live inserts of never-seen subjects safe: fresh dictionary identifiers
    are always larger than every identifier observed at build time, so they
    belong to the last shard without any boundary maintenance.
    """

    def __init__(self, boundaries: Sequence[int]) -> None:
        self.boundaries = list(boundaries)
        if any(b >= c for b, c in zip(self.boundaries, self.boundaries[1:])):
            raise ValueError("shard boundaries must be strictly ascending")

    @property
    def shard_count(self) -> int:
        return len(self.boundaries) + 1

    def shard_of(self, subject_id: int) -> int:
        """Index of the shard owning ``subject_id``."""
        return bisect_right(self.boundaries, subject_id)

    def interval(self, shard_index: int) -> Tuple[int, Optional[int]]:
        """``[low, high)`` of one shard; the last shard's high is ``None`` (open)."""
        low = 0 if shard_index == 0 else self.boundaries[shard_index - 1]
        high = (
            None if shard_index == len(self.boundaries) else self.boundaries[shard_index]
        )
        return low, high

    @classmethod
    def balanced(cls, subject_ids: Sequence[int], shards: int) -> "SubjectPartitioner":
        """Quantile split of the observed distinct subjects into ``shards`` parts.

        Splitting on observed subjects (rather than the raw identifier space)
        keeps shard triple counts comparable even when LiteMat leaves gaps in
        the identifier space.
        """
        if shards < 1:
            raise ValueError("need at least one shard")
        distinct = sorted(set(subject_ids))
        boundaries: List[int] = []
        for index in range(1, shards):
            position = (index * len(distinct)) // shards
            if position >= len(distinct):
                break
            boundary = distinct[position]
            if not boundaries or boundary > boundaries[-1]:
                boundaries.append(boundary)
        return cls(boundaries)

    def __repr__(self) -> str:
        return f"SubjectPartitioner({self.shard_count} shards, boundaries={self.boundaries})"


# --------------------------------------------------------------------------- #
# sharded layout read views
# --------------------------------------------------------------------------- #


class _ShardedLayoutView:
    """Shared fan-out arithmetic over one layout of every shard.

    ``self.parts`` resolves the per-shard layout objects in shard
    (= ascending subject interval) order **at access time** — an updatable
    shard's compaction swaps its layout attributes for fresh objects
    (``UpdatableSuccinctEdge._install``), so capturing them once at
    construction would leave the facade reading stale pre-compaction
    overlays.  The resolved objects may be pure succinct layouts or the
    delta overlay views of a live shard — both expose the same API, so the
    sharded view composes with either.
    """

    #: Which layout attribute of each shard this view fans out over.
    _attribute = "object_store"

    def __init__(self, shards: Sequence[object], partitioner: SubjectPartitioner) -> None:
        self.shards = list(shards)
        self.partitioner = partitioner

    @property
    def parts(self) -> List[object]:
        """The current per-shard layout objects, in shard order."""
        attribute = self._attribute
        return [getattr(shard, attribute) for shard in self.shards]

    def _owner(self, subject_id: int):
        return getattr(self.shards[self.partitioner.shard_of(subject_id)], self._attribute)

    def __len__(self) -> int:
        return sum(len(part) for part in self.parts)

    def __repr__(self) -> str:
        sizes = ", ".join(str(len(part)) for part in self.parts)
        return f"{type(self).__name__}({len(self)} triples across [{sizes}])"

    # property-level accessors #

    @property
    def properties(self) -> List[int]:
        merged = set()
        for part in self.parts:
            merged.update(part.properties)
        return sorted(merged)

    def has_property(self, property_id: int) -> bool:
        return any(part.has_property(property_id) for part in self.parts)

    def properties_in_interval(self, low: int, high: int) -> List[int]:
        merged = set()
        for part in self.parts:
            merged.update(part.properties_in_interval(low, high))
        return sorted(merged)

    def count_triples_with_property(self, property_id: int) -> int:
        return sum(part.count_triples_with_property(property_id) for part in self.parts)

    def count_subjects_with_property(self, property_id: int) -> int:
        # Shards hold disjoint subject intervals, so per-shard distinct
        # subject counts add up exactly.
        return sum(part.count_subjects_with_property(property_id) for part in self.parts)

    def size_in_bytes(self) -> int:
        return sum(part.size_in_bytes() for part in self.parts)

    # scans: per-shard answers concatenated in shard order #

    def subjects_for(self, property_id: int, obj) -> List[int]:
        results: List[int] = []
        for part in self.parts:
            results.extend(part.subjects_for(property_id, obj))
        return results

    def pairs_for_property(self, property_id: int) -> Iterator[tuple]:
        for part in self.parts:
            yield from part.pairs_for_property(property_id)

    def pairs_for_property_interval(
        self, property_low: int, property_high: int
    ) -> Iterator[tuple]:
        # Property-major (then shard-minor) to mirror the monolithic order.
        for property_id in self.properties_in_interval(property_low, property_high):
            for subject_id, obj in self.pairs_for_property(property_id):
                yield property_id, subject_id, obj

    def iter_triples(self) -> Iterator[tuple]:
        for property_id in self.properties:
            for subject_id, obj in self.pairs_for_property(property_id):
                yield property_id, subject_id, obj


class ShardedObjectStore(_ShardedLayoutView):
    """Fan-out read view over the object-property layout of every shard.

    Subject-bound probes go to the single owning shard; subject-enumerating
    scans concatenate the per-shard answers in shard order, which *is* PSO
    order because the shards partition the subject space into ascending
    intervals.
    """

    _attribute = "object_store"

    def objects_for(self, subject_id: int, property_id: int) -> List[int]:
        return self._owner(subject_id).objects_for(subject_id, property_id)

    def contains(self, subject_id: int, property_id: int, object_id: int) -> bool:
        return self._owner(subject_id).contains(subject_id, property_id, object_id)


class ShardedDatatypeStore(_ShardedLayoutView):
    """Fan-out read view over the datatype-property layout of every shard.

    All triples of one ``(property, subject)`` pair live in one shard, so the
    within-pair literal insertion order of the base layouts is preserved.
    """

    _attribute = "datatype_store"

    def literals_for(self, subject_id: int, property_id: int) -> List[Literal]:
        return self._owner(subject_id).literals_for(subject_id, property_id)


class ShardedTypeStore:
    """Fan-out read view over the ``rdf:type`` layout of every shard.

    SO-ordered enumeration concatenates shards (disjoint ascending subject
    intervals); concept-keyed lookups gather per-shard sorted subject lists,
    whose concatenation is again globally sorted for the same reason.
    Like the PSO views, the per-shard layouts are resolved at access time so
    shard compaction swaps stay visible.
    """

    def __init__(self, shards: Sequence[object], partitioner: SubjectPartitioner) -> None:
        self.shards = list(shards)
        self.partitioner = partitioner

    @property
    def parts(self) -> List[object]:
        """The current per-shard type layouts, in shard order."""
        return [shard.type_store for shard in self.shards]

    def _owner(self, subject_id: int):
        return self.shards[self.partitioner.shard_of(subject_id)].type_store

    def __len__(self) -> int:
        return sum(len(part) for part in self.parts)

    def __repr__(self) -> str:
        sizes = ", ".join(str(len(part)) for part in self.parts)
        return f"ShardedTypeStore({len(self)} triples across [{sizes}])"

    def contains(self, subject_id: int, concept_id: int) -> bool:
        return self._owner(subject_id).contains(subject_id, concept_id)

    def subjects_of(self, concept_id: int) -> List[int]:
        results: List[int] = []
        for part in self.parts:
            results.extend(part.subjects_of(concept_id))
        return results

    def subjects_of_interval(self, concept_low: int, concept_high: int) -> List[int]:
        results: List[int] = []
        for part in self.parts:
            results.extend(part.subjects_of_interval(concept_low, concept_high))
        return results

    def concepts_of(self, subject_id: int) -> List[int]:
        return self._owner(subject_id).concepts_of(subject_id)

    def count_concept(self, concept_id: int) -> int:
        return sum(part.count_concept(concept_id) for part in self.parts)

    def count_concept_interval(self, concept_low: int, concept_high: int) -> int:
        return sum(part.count_concept_interval(concept_low, concept_high) for part in self.parts)

    def iter_triples(self) -> Iterator[EncodedTypeTriple]:
        for part in self.parts:
            yield from part.iter_triples()

    def size_in_bytes(self) -> int:
        return sum(part.size_in_bytes() for part in self.parts)


# --------------------------------------------------------------------------- #
# the sharded facade
# --------------------------------------------------------------------------- #


class ShardedStore(SuccinctEdge):
    """N subject-interval shards behind the exact :class:`SuccinctEdge` API.

    Because the three layout attributes are the fan-out views above, every
    existing consumer — ``match()``, :mod:`repro.query.tp_eval`, the
    streaming pipeline, the optimizer's statistics — works unchanged, and
    :class:`~repro.query.parallel.ParallelQueryEngine` can additionally
    scatter per-shard work across a thread pool.

    Build with :meth:`from_graph` (encode once, partition the encoded
    triples) or :meth:`from_store` (partition an already-built monolithic
    store; the original store is left untouched and shares its
    dictionaries).  With ``updatable=True`` every shard carries its own
    delta overlay and the facade grows the write path (:meth:`insert` /
    :meth:`delete` route by subject, :meth:`compact` fans out).
    """

    def __init__(
        self,
        shards: Sequence[SuccinctEdge],
        partitioner: SubjectPartitioner,
    ) -> None:
        if not shards:
            raise ValueError("a ShardedStore needs at least one shard")
        if len(shards) != partitioner.shard_count:
            raise ValueError(
                f"partitioner describes {partitioner.shard_count} shards, got {len(shards)}"
            )
        first = shards[0]
        self.shards = list(shards)
        self.partitioner = partitioner
        # Writes to *different* shards would otherwise race on the shared
        # dictionaries (their add()/add_overflow() are check-then-act on one
        # _next_id) — the facade restores the single-writer guarantee the
        # monolithic store's write lock provided.  Per-shard locks still
        # protect each shard's compaction swap.  Reentrant so a publisher
        # holding it can save an image directory.
        self._write_lock = threading.RLock()
        self.log = WriteLog(self._write_lock, base_epoch=None)
        #: The shard image directory the log's writes replay onto, if any.
        self.image_directory: Optional[str] = None
        self._log_compactions = 0
        super().__init__(
            schema=first.schema,
            concepts=first.concepts,
            properties=first.properties,
            instances=first.instances,
            object_store=ShardedObjectStore(self.shards, partitioner),
            datatype_store=ShardedDatatypeStore(self.shards, partitioner),
            type_store=ShardedTypeStore(self.shards, partitioner),
            statistics=first.statistics,
            skipped_triples=sum(shard.skipped_triples for shard in shards),
        )

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #

    @classmethod
    def from_graph(
        cls,
        data: Graph,
        ontology: Optional[Graph] = None,
        shards: int = 2,
        updatable: bool = False,
        policy: Optional[CompactionPolicy] = None,
    ) -> "ShardedStore":
        """Encode ``data`` once, then partition the encoded triples into shards."""
        return cls.from_store(
            SuccinctEdge.from_graph(data, ontology=ontology),
            shards=shards,
            updatable=updatable,
            policy=policy,
            ontology=ontology,
        )

    @classmethod
    def from_store(
        cls,
        store: SuccinctEdge,
        shards: int = 2,
        updatable: bool = False,
        policy: Optional[CompactionPolicy] = None,
        ontology: Optional[Graph] = None,
    ) -> "ShardedStore":
        """Partition an existing (monolithic) store into subject-interval shards.

        The shards adopt ``store``'s dictionaries, schema and statistics;
        each rebuilds its slice of the three layouts through the
        ``presorted`` path (a subject-filtered subsequence of a PSO run is
        still in PSO order, so no sort pass runs).
        """
        object_triples = list(store.object_store.iter_triples())
        datatype_triples = list(store.datatype_store.iter_triples())
        type_triples = list(store.type_store.iter_triples())
        subjects = (
            [triple[1] for triple in object_triples]
            + [triple[1] for triple in datatype_triples]
            + [pair[0] for pair in type_triples]
        )
        partitioner = SubjectPartitioner.balanced(subjects, shards)

        # One bucketing pass per layout (a single shard_of bisect per
        # triple); appending in scan order preserves the PSO/PS/SO order the
        # presorted construction path relies on.
        shard_of = partitioner.shard_of
        object_parts: List[List[EncodedTriple]] = [[] for _ in range(partitioner.shard_count)]
        for triple in object_triples:
            object_parts[shard_of(triple[1])].append(triple)
        datatype_parts: List[List[EncodedDatatypeTriple]] = [
            [] for _ in range(partitioner.shard_count)
        ]
        for triple in datatype_triples:
            datatype_parts[shard_of(triple[1])].append(triple)
        type_parts: List[List[EncodedTypeTriple]] = [[] for _ in range(partitioner.shard_count)]
        for pair in type_triples:
            type_parts[shard_of(pair[0])].append(pair)

        shard_stores: List[SuccinctEdge] = []
        for index in range(partitioner.shard_count):
            object_store, datatype_store, type_store = build_layouts(
                object_parts[index], datatype_parts[index], type_parts[index], presorted=True
            )
            part = SuccinctEdge(
                schema=store.schema,
                concepts=store.concepts,
                properties=store.properties,
                instances=store.instances,
                object_store=object_store,
                datatype_store=datatype_store,
                type_store=type_store,
                statistics=store.statistics,
                skipped_triples=store.skipped_triples if index == 0 else 0,
            )
            if updatable:
                part = UpdatableSuccinctEdge(part, policy=policy, ontology=ontology)
            shard_stores.append(part)
        return cls(shard_stores, partitioner)

    # ------------------------------------------------------------------ #
    # persistence (per-shard image directories, see docs/persistence.md)
    # ------------------------------------------------------------------ #

    #: Manifest filename inside a shard image directory.
    MANIFEST_NAME = "shards.json"

    def save_image(self, path, atomic: bool = False) -> int:
        """A sharded store is persisted as a directory of per-shard images."""
        raise TypeError(
            "a ShardedStore has no single-file image; use "
            "save_image_directory(directory) to write one image per shard"
        )

    def save_image_directory(self, directory, atomic: bool = False) -> int:
        """Persist every shard as a store image under ``directory``.

        Layout: a ``shards.json`` manifest (shard count, partition
        boundaries, per-shard file names) next to one ``shard-NNNN.sedg``
        image per shard.  Updatable shards with a pending delta are
        compacted first so each image captures the shard's full visible
        state.  Each shard image carries its own copy of the shared
        dictionaries (images are self-contained by design); the loader
        rebinds shards to one copy, so the duplication costs disk, not RAM.
        The directory becomes the base of the next write-log generation.

        Returns the total bytes written across manifest and images.
        """
        from repro.store.persistence import save_store_image

        with self._write_lock:
            os.makedirs(directory, exist_ok=True)
            total = 0
            files: List[str] = []
            for index, shard in enumerate(self.shards):
                target = shard
                if isinstance(shard, UpdatableSuccinctEdge):
                    if shard.delta_operation_count:
                        shard.compact()
                    target = shard.base
                name = f"shard-{index:04d}.sedg"
                total += save_store_image(target, os.path.join(directory, name), atomic=atomic)
                files.append(name)
            manifest = {
                "format": "succinctedge-shard-images",
                "version": 1,
                "shards": self.shard_count,
                "boundaries": self.partitioner.boundaries,
                "files": files,
            }
            payload = json.dumps(manifest, indent=2).encode("utf-8")
            manifest_path = os.path.join(directory, self.MANIFEST_NAME)
            if atomic:
                staged = manifest_path + ".tmp"
                with open(staged, "wb") as handle:
                    handle.write(payload)
                    handle.flush()
                    os.fsync(handle.fileno())
                os.replace(staged, manifest_path)
            else:
                with open(manifest_path, "wb") as handle:
                    handle.write(payload)
            self._restart_log(str(directory))
            return total + len(payload)

    @classmethod
    def load_image_directory(
        cls,
        directory,
        mmap: bool = True,
        updatable: bool = False,
        policy: Optional[CompactionPolicy] = None,
    ) -> "ShardedStore":
        """Reassemble a sharded store from a :meth:`save_image_directory` tree.

        Shard 0's image provides the (single, shared) dictionaries, schema
        and statistics; every other shard's layouts are rebound to them, so
        the on-disk dictionary duplication never reaches memory.  With
        ``mmap=True`` each shard's succinct layouts alias its own mapping —
        startup cost stays independent of the total triple count.
        """
        from repro.store.persistence import PersistenceError, load_store

        manifest_path = os.path.join(directory, cls.MANIFEST_NAME)
        try:
            with open(manifest_path, "rb") as handle:
                manifest = json.loads(handle.read().decode("utf-8"))
        except FileNotFoundError:
            raise PersistenceError(
                f"{directory!s} has no {cls.MANIFEST_NAME} manifest — "
                "expected a directory written by ShardedStore.save_image_directory"
            ) from None
        except (ValueError, UnicodeDecodeError) as error:
            raise PersistenceError(
                f"{manifest_path!s} is not a valid shard manifest: {error}"
            ) from None
        if manifest.get("format") != "succinctedge-shard-images":
            raise PersistenceError(
                f"{manifest_path!s} does not describe shard images "
                f"(format={manifest.get('format')!r})"
            )
        files = manifest.get("files") or []
        if len(files) != manifest.get("shards") or not files:
            raise PersistenceError(
                f"{manifest_path!s} is inconsistent: {manifest.get('shards')} shards "
                f"declared but {len(files)} image files listed"
            )
        partitioner = SubjectPartitioner(manifest.get("boundaries") or [])
        if partitioner.shard_count != len(files):
            raise PersistenceError(
                f"{manifest_path!s} is inconsistent: {len(files)} image files but "
                f"boundaries describe {partitioner.shard_count} intervals"
            )
        first = load_store(os.path.join(directory, files[0]), mmap=mmap)
        shards: List[SuccinctEdge] = [first]
        for name in files[1:]:
            loaded = load_store(os.path.join(directory, name), mmap=mmap)
            rebound = SuccinctEdge(
                schema=first.schema,
                concepts=first.concepts,
                properties=first.properties,
                instances=first.instances,
                object_store=loaded.object_store,
                datatype_store=loaded.datatype_store,
                type_store=loaded.type_store,
                statistics=first.statistics,
                skipped_triples=0,
            )
            rebound.image = loaded.image
            shards.append(rebound)
        if updatable:
            shards = [
                UpdatableSuccinctEdge(shard, policy=policy) for shard in shards
            ]
        store = cls(shards, partitioner)
        store._restart_log(str(directory))
        return store

    # ------------------------------------------------------------------ #
    # shard accounting
    # ------------------------------------------------------------------ #

    @property
    def shard_count(self) -> int:
        """Number of shards."""
        return len(self.shards)

    def shard_of_subject(self, subject_id: int) -> int:
        """Index of the shard owning ``subject_id`` (the pruning primitive)."""
        return self.partitioner.shard_of(subject_id)

    def shard_property_cardinalities(self, property_id: int) -> List[int]:
        """Per-shard triple counts for ``property_id`` (both PSO layouts).

        The cost-based planner and :class:`~repro.query.parallel.ParallelExecutor`
        use this to prune empty shards from a leaf scatter and to size the
        scatter batches — each count is two Algorithm-2 probes per shard on
        the rank/select directories, so the aggregation is cheap.
        """
        return [
            shard.object_store.count_triples_with_property(property_id)
            + shard.datatype_store.count_triples_with_property(property_id)
            for shard in self.shards
        ]

    def shard_concept_cardinalities(
        self, concept_low: int, concept_high: int
    ) -> List[int]:
        """Per-shard ``rdf:type`` triple counts for a concept interval."""
        return [
            shard.type_store.count_concept_interval(concept_low, concept_high)
            for shard in self.shards
        ]

    def shard_summary(self) -> List[dict]:
        """Per-shard accounting (interval, triple counts, epochs)."""
        rows = []
        for index, shard in enumerate(self.shards):
            low, high = self.partitioner.interval(index)
            rows.append(
                {
                    "shard": index,
                    "subjects": (low, high),
                    "triples": shard.triple_count,
                    "epoch": shard.snapshot_epoch,
                }
            )
        return rows

    def __repr__(self) -> str:
        sizes = ", ".join(str(shard.triple_count) for shard in self.shards)
        return f"ShardedStore({self.triple_count} triples over {self.shard_count} shards [{sizes}])"

    # ------------------------------------------------------------------ #
    # epochs (aggregated: the serving cache keys on these)
    # ------------------------------------------------------------------ #

    @property
    def data_epoch(self) -> int:  # type: ignore[override]
        """Total applied write operations across every shard."""
        return sum(shard.data_epoch for shard in self.shards)

    @property
    def compaction_epoch(self) -> int:  # type: ignore[override]
        """Total compactions across every shard."""
        return sum(shard.compaction_epoch for shard in self.shards)

    # ------------------------------------------------------------------ #
    # write path (routing; only with updatable shards)
    # ------------------------------------------------------------------ #

    def _route(self, triple: Triple) -> Optional[SuccinctEdge]:
        subject_id = self.instances.try_locate(triple.subject)
        if subject_id is None:
            # Never-seen subjects receive fresh identifiers above everything
            # observed at partitioning time — the last shard's open interval.
            return self.shards[-1]
        return self.shards[self.partitioner.shard_of(subject_id)]

    def insert(self, triple: Triple) -> bool:
        """Route the insert to the owning shard (requires updatable shards).

        Writes are serialized across shards (one facade lock): the shards
        share one set of dictionaries, and concurrent identifier assignment
        from two shard locks would alias two fresh terms to one id.
        """
        with self._write_lock:
            changed = self._route(triple).insert(triple)
            if changed:
                self._log("insert", triple)
            return changed

    def delete(self, triple: Triple) -> bool:
        """Route the delete to the owning shard (requires updatable shards)."""
        with self._write_lock:
            subject_id = self.instances.try_locate(triple.subject)
            if subject_id is None:
                return False
            changed = self.shards[self.partitioner.shard_of(subject_id)].delete(triple)
            if changed:
                self._log("delete", triple)
            return changed

    def _log(self, operation: str, triple: Triple) -> None:
        """Append one routed write (under the facade lock).

        A shard compaction since the log's restart replaced part of the
        directory's base: the log restarts with no directory instead of
        growing without bound.
        """
        if self.log.base_epoch is not None and self.compaction_epoch != self._log_compactions:
            self._restart_log(None)
        self.log.append(operation, triple)

    def _restart_log(self, directory: Optional[str]) -> None:
        """Start the next log generation on ``directory`` (``None``: no base, log nothing)."""
        self.image_directory = directory
        self._log_compactions = self.compaction_epoch
        self.log.restart(None if directory is None else self.data_epoch)

    def insert_graph(self, graph: Graph) -> int:
        """Insert every triple of ``graph``; return how many were new."""
        return sum(1 for triple in graph if self.insert(triple))

    def delete_graph(self, graph: Graph) -> int:
        """Delete every triple of ``graph``; return how many were visible."""
        return sum(1 for triple in graph if self.delete(triple))

    def compact(self) -> List[CompactionReport]:
        """Synchronously compact every updatable shard with a pending delta."""
        reports = []
        for shard in self.shards:
            if isinstance(shard, UpdatableSuccinctEdge) and shard.delta_operation_count:
                reports.append(shard.compact())
        return reports

    def compact_in_background(self) -> list:
        """Kick off background compaction on every shard with a pending delta."""
        threads = []
        for shard in self.shards:
            if isinstance(shard, UpdatableSuccinctEdge) and shard.delta_operation_count:
                threads.append(shard.compact_in_background())
        return threads

    def maybe_compact(self, background: bool = False) -> int:
        """Policy check per shard; returns how many shards triggered."""
        triggered = 0
        for shard in self.shards:
            if isinstance(shard, UpdatableSuccinctEdge) and shard.maybe_compact(
                background=background
            ):
                triggered += 1
        return triggered

    def snapshot_info(self) -> dict:
        """Aggregated accounting plus the per-shard breakdown."""
        return {
            "shards": self.shard_count,
            "compaction_epoch": self.compaction_epoch,
            "data_epoch": self.data_epoch,
            "visible_triples": self.triple_count,
            "per_shard": self.shard_summary(),
        }
