"""Delta overlay: the mutable write path on top of the immutable SDS base.

The succinct layouts of :mod:`repro.store.triple_store`,
:mod:`repro.store.datatype_store` and :mod:`repro.store.rdftype_store` are
immutable by construction — bitmaps and id arrays are built once from a
sorted triple run.  Live updates therefore follow the LSM pattern
(see ``docs/update_lifecycle.md``):

* a small, mutable **delta** holds *sorted insert sets* and *tombstone
  (delete) sets* of encoded triples, one delta per storage layout;
* **overlay read views** (:class:`OverlayObjectStore`,
  :class:`OverlayDatatypeStore`, :class:`OverlayTypeStore`) implement the
  exact read API of the base layouts by merging base and delta on the fly,
  so :mod:`repro.query.tp_eval` — and with it the whole streaming pipeline —
  sees one consistent snapshot and never learns updates exist;
* a :class:`CompactionPolicy` decides when the delta is large enough to be
  folded into a fresh succinct base through the ``presorted``
  :class:`~repro.store.builder.StoreBuilder` path (the merged iterators are
  already in index order, so compaction skips the sort pass entirely);
* a :class:`WriteLog` keeps the same writes at the term level, in order,
  since the current base — background compaction replays its suffix, and
  :mod:`repro.store.shipping` ships it to worker processes and replicas.

Invariants maintained by :class:`~repro.store.updatable.UpdatableSuccinctEdge`
(the only writer):

* an insert is recorded only when the triple is not already visible, so
  base and delta insert runs are disjoint and counts are exact;
* a tombstone is recorded only for a triple present in the base, so
  ``len(base) - tombstones + inserts`` is the exact visible triple count;
* merged enumeration preserves the base layouts' index order (PSO / PS / SO),
  which is what makes query results identical to a from-scratch rebuild.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.rdf.terms import Literal, Triple
from repro.store.datatype_store import DatatypeTripleStore
from repro.store.rdftype_store import EncodedTypeTriple, RDFTypeStore
from repro.store.triple_store import ObjectTripleStore

#: Shared empty set returned for "no tombstones" (never mutated).
_EMPTY_TOMBSTONES: frozenset = frozenset()


# --------------------------------------------------------------------------- #
# per-layout deltas
# --------------------------------------------------------------------------- #


class ObjectDelta:
    """Pending inserts and tombstones of object-property triples.

    Inserts are kept sorted by ``(subject, object)`` inside each property so
    that merged enumeration stays in PSO order; a secondary ``(object ->
    subjects)`` index serves the reverse (``?s p o``) access path.
    """

    def __init__(self) -> None:
        self._inserts_by_p: Dict[int, List[Tuple[int, int]]] = {}
        self._insert_subjects_by_po: Dict[Tuple[int, int], List[int]] = {}
        self._tombs_by_p: Dict[int, Set[Tuple[int, int]]] = {}
        self.insert_count = 0
        self.tombstone_count = 0

    def __len__(self) -> int:
        """Number of pending operations (inserts plus tombstones)."""
        return self.insert_count + self.tombstone_count

    # mutation ----------------------------------------------------------- #

    def add_insert(self, property_id: int, subject_id: int, object_id: int) -> None:
        insort(self._inserts_by_p.setdefault(property_id, []), (subject_id, object_id))
        insort(self._insert_subjects_by_po.setdefault((property_id, object_id), []), subject_id)
        self.insert_count += 1

    def remove_insert(self, property_id: int, subject_id: int, object_id: int) -> None:
        pairs = self._inserts_by_p[property_id]
        pairs.remove((subject_id, object_id))
        if not pairs:
            del self._inserts_by_p[property_id]
        subjects = self._insert_subjects_by_po[(property_id, object_id)]
        subjects.remove(subject_id)
        if not subjects:
            del self._insert_subjects_by_po[(property_id, object_id)]
        self.insert_count -= 1

    def add_tombstone(self, property_id: int, subject_id: int, object_id: int) -> None:
        self._tombs_by_p.setdefault(property_id, set()).add((subject_id, object_id))
        self.tombstone_count += 1

    def remove_tombstone(self, property_id: int, subject_id: int, object_id: int) -> None:
        tombs = self._tombs_by_p[property_id]
        tombs.remove((subject_id, object_id))
        if not tombs:
            del self._tombs_by_p[property_id]
        self.tombstone_count -= 1

    # lookups ------------------------------------------------------------ #

    def has_insert(self, property_id: int, subject_id: int, object_id: int) -> bool:
        pairs = self._inserts_by_p.get(property_id)
        if not pairs:
            return False
        index = bisect_left(pairs, (subject_id, object_id))
        return index < len(pairs) and pairs[index] == (subject_id, object_id)

    def is_tombstoned(self, property_id: int, subject_id: int, object_id: int) -> bool:
        return (subject_id, object_id) in self._tombs_by_p.get(property_id, ())

    def insert_properties(self) -> List[int]:
        """Properties with at least one pending insert, ascending."""
        return sorted(self._inserts_by_p)

    def inserts_for(self, property_id: int) -> List[Tuple[int, int]]:
        """Pending ``(subject, object)`` inserts of ``property_id``, sorted.

        A copy: the overlay iterates it lazily (``heapq.merge``) and must not
        observe writes that arrive mid-iteration.
        """
        return list(self._inserts_by_p.get(property_id, ()))

    def insert_objects(self, property_id: int, subject_id: int) -> List[int]:
        """Pending object inserts of ``(subject, property)``, ascending."""
        pairs = self._inserts_by_p.get(property_id)
        if not pairs:
            return []
        begin = bisect_left(pairs, (subject_id, -1))
        end = bisect_left(pairs, (subject_id + 1, -1))
        return [obj for _subject, obj in pairs[begin:end]]

    def insert_subjects(self, property_id: int, object_id: int) -> List[int]:
        """Pending subject inserts of ``(property, object)``, ascending (a copy)."""
        return list(self._insert_subjects_by_po.get((property_id, object_id), ()))

    def tombstones_for(self, property_id: int) -> Set[Tuple[int, int]]:
        """Tombstoned ``(subject, object)`` pairs of ``property_id``.

        The *live* internal set (treat as read-only): per-binding probes do
        eager membership checks against it, and copying up to
        policy-threshold-many tombstones per probe would dominate the read
        path.  Lazily-consumed readers snapshot it themselves.
        """
        return self._tombs_by_p.get(property_id, _EMPTY_TOMBSTONES)

    def insert_count_for(self, property_id: int) -> int:
        return len(self._inserts_by_p.get(property_id, ()))

    def tombstone_count_for(self, property_id: int) -> int:
        return len(self._tombs_by_p.get(property_id, ()))

    def size_in_bytes(self) -> int:
        """Approximate in-memory overhead of the pending operations."""
        return 24 * (self.insert_count * 2 + self.tombstone_count)


class DatatypeDelta:
    """Pending inserts and tombstones of datatype-property triples.

    Literals are not dictionary-encoded (mirroring the base layout), so the
    delta keys pending literals by ``(property, subject)`` and preserves
    *insertion order* within a pair — exactly the order a from-scratch
    rebuild would produce for triples appended at the end of the data graph.
    """

    def __init__(self) -> None:
        self._literals_by_ps: Dict[Tuple[int, int], List[Literal]] = {}
        self._subjects_by_p: Dict[int, List[int]] = {}
        self._insert_count_by_p: Dict[int, int] = {}
        self._tombs_by_ps: Dict[Tuple[int, int], Set[Literal]] = {}
        self._tomb_count_by_p: Dict[int, int] = {}
        self.insert_count = 0
        self.tombstone_count = 0

    def __len__(self) -> int:
        return self.insert_count + self.tombstone_count

    # mutation ----------------------------------------------------------- #

    def add_insert(self, property_id: int, subject_id: int, literal: Literal) -> None:
        key = (property_id, subject_id)
        literals = self._literals_by_ps.get(key)
        if literals is None:
            self._literals_by_ps[key] = [literal]
            insort(self._subjects_by_p.setdefault(property_id, []), subject_id)
        else:
            literals.append(literal)
        self._insert_count_by_p[property_id] = self._insert_count_by_p.get(property_id, 0) + 1
        self.insert_count += 1

    def remove_insert(self, property_id: int, subject_id: int, literal: Literal) -> None:
        key = (property_id, subject_id)
        literals = self._literals_by_ps[key]
        literals.remove(literal)
        if not literals:
            del self._literals_by_ps[key]
            subjects = self._subjects_by_p[property_id]
            subjects.remove(subject_id)
            if not subjects:
                del self._subjects_by_p[property_id]
        remaining = self._insert_count_by_p[property_id] - 1
        if remaining:
            self._insert_count_by_p[property_id] = remaining
        else:
            del self._insert_count_by_p[property_id]
        self.insert_count -= 1

    def add_tombstone(self, property_id: int, subject_id: int, literal: Literal) -> None:
        self._tombs_by_ps.setdefault((property_id, subject_id), set()).add(literal)
        self._tomb_count_by_p[property_id] = self._tomb_count_by_p.get(property_id, 0) + 1
        self.tombstone_count += 1

    def remove_tombstone(self, property_id: int, subject_id: int, literal: Literal) -> None:
        key = (property_id, subject_id)
        tombs = self._tombs_by_ps[key]
        tombs.remove(literal)
        if not tombs:
            del self._tombs_by_ps[key]
        remaining = self._tomb_count_by_p[property_id] - 1
        if remaining:
            self._tomb_count_by_p[property_id] = remaining
        else:
            del self._tomb_count_by_p[property_id]
        self.tombstone_count -= 1

    # lookups ------------------------------------------------------------ #

    def has_insert(self, property_id: int, subject_id: int, literal: Literal) -> bool:
        return literal in self._literals_by_ps.get((property_id, subject_id), ())

    def is_tombstoned(self, property_id: int, subject_id: int, literal: Literal) -> bool:
        return literal in self._tombs_by_ps.get((property_id, subject_id), ())

    def insert_properties(self) -> List[int]:
        return sorted(self._subjects_by_p)

    def insert_subjects(self, property_id: int) -> List[int]:
        """Subjects with pending literal inserts for ``property_id``, ascending (a copy)."""
        return list(self._subjects_by_p.get(property_id, ()))

    def insert_literals(self, property_id: int, subject_id: int) -> List[Literal]:
        """Pending literals of ``(property, subject)`` in insertion order (a copy)."""
        return list(self._literals_by_ps.get((property_id, subject_id), ()))

    def tombstones_for(self, property_id: int, subject_id: int) -> Set[Literal]:
        """Tombstoned literals of ``(property, subject)`` (live set, read-only)."""
        return self._tombs_by_ps.get((property_id, subject_id), _EMPTY_TOMBSTONES)

    def insert_count_for(self, property_id: int) -> int:
        return self._insert_count_by_p.get(property_id, 0)

    def tombstone_count_for(self, property_id: int) -> int:
        return self._tomb_count_by_p.get(property_id, 0)

    def size_in_bytes(self) -> int:
        literal_bytes = sum(
            len(str(literal).encode("utf-8"))
            for literals in self._literals_by_ps.values()
            for literal in literals
        )
        return literal_bytes + 24 * (self.insert_count + self.tombstone_count)


class TypeDelta:
    """Pending inserts and tombstones of ``rdf:type`` triples.

    Both orders are maintained sorted: ``(subject, concept)`` for merged SO
    enumeration and ``(concept, subject)`` for interval scans and counting
    (the reasoning access path).
    """

    def __init__(self) -> None:
        self._inserts_sc: List[Tuple[int, int]] = []
        self._inserts_cs: List[Tuple[int, int]] = []
        self._tombs: Set[Tuple[int, int]] = set()
        self._tombs_cs: List[Tuple[int, int]] = []

    def __len__(self) -> int:
        return len(self._inserts_sc) + len(self._tombs)

    @property
    def insert_count(self) -> int:
        return len(self._inserts_sc)

    @property
    def tombstone_count(self) -> int:
        return len(self._tombs)

    # mutation ----------------------------------------------------------- #

    def add_insert(self, subject_id: int, concept_id: int) -> None:
        insort(self._inserts_sc, (subject_id, concept_id))
        insort(self._inserts_cs, (concept_id, subject_id))

    def remove_insert(self, subject_id: int, concept_id: int) -> None:
        self._inserts_sc.remove((subject_id, concept_id))
        self._inserts_cs.remove((concept_id, subject_id))

    def add_tombstone(self, subject_id: int, concept_id: int) -> None:
        self._tombs.add((subject_id, concept_id))
        insort(self._tombs_cs, (concept_id, subject_id))

    def remove_tombstone(self, subject_id: int, concept_id: int) -> None:
        self._tombs.remove((subject_id, concept_id))
        self._tombs_cs.remove((concept_id, subject_id))

    # lookups ------------------------------------------------------------ #

    def has_insert(self, subject_id: int, concept_id: int) -> bool:
        index = bisect_left(self._inserts_sc, (subject_id, concept_id))
        return (
            index < len(self._inserts_sc) and self._inserts_sc[index] == (subject_id, concept_id)
        )

    def is_tombstoned(self, subject_id: int, concept_id: int) -> bool:
        return (subject_id, concept_id) in self._tombs

    def tombstones(self) -> Set[Tuple[int, int]]:
        """Tombstoned ``(subject, concept)`` pairs (live set, read-only).

        Eager consumers (``subjects_of``/``concepts_of`` filters) use it
        directly; lazy iterators snapshot it first.
        """
        return self._tombs

    def inserts_so(self) -> List[Tuple[int, int]]:
        """Pending ``(subject, concept)`` inserts in SO order (a copy)."""
        return list(self._inserts_sc)

    def insert_subjects(self, concept_id: int) -> List[int]:
        """Subjects with a pending typing for ``concept_id``, ascending."""
        return self._slice_cs(self._inserts_cs, concept_id, concept_id + 1)

    def insert_concepts(self, subject_id: int) -> List[int]:
        begin = bisect_left(self._inserts_sc, (subject_id, -1))
        end = bisect_left(self._inserts_sc, (subject_id + 1, -1))
        return [concept for _subject, concept in self._inserts_sc[begin:end]]

    def insert_pairs_in_interval(self, concept_low: int, concept_high: int) -> List[Tuple[int, int]]:
        """Pending ``(concept, subject)`` pairs with concept in ``[low, high)``."""
        begin = bisect_left(self._inserts_cs, (concept_low, -1))
        end = bisect_left(self._inserts_cs, (concept_high, -1))
        return self._inserts_cs[begin:end]

    def insert_count_in_interval(self, concept_low: int, concept_high: int) -> int:
        begin = bisect_left(self._inserts_cs, (concept_low, -1))
        end = bisect_left(self._inserts_cs, (concept_high, -1))
        return end - begin

    def tombstone_count_in_interval(self, concept_low: int, concept_high: int) -> int:
        begin = bisect_left(self._tombs_cs, (concept_low, -1))
        end = bisect_left(self._tombs_cs, (concept_high, -1))
        return end - begin

    @staticmethod
    def _slice_cs(pairs: List[Tuple[int, int]], low: int, high: int) -> List[int]:
        begin = bisect_left(pairs, (low, -1))
        end = bisect_left(pairs, (high, -1))
        return [subject for _concept, subject in pairs[begin:end]]

    def size_in_bytes(self) -> int:
        return 24 * (2 * len(self._inserts_sc) + 2 * len(self._tombs))


class DeltaOverlay:
    """The complete delta: one per-layout delta plus shared accounting."""

    def __init__(self) -> None:
        self.objects = ObjectDelta()
        self.datatypes = DatatypeDelta()
        self.types = TypeDelta()

    def __len__(self) -> int:
        """Total pending operations across all three layouts."""
        return len(self.objects) + len(self.datatypes) + len(self.types)

    @property
    def insert_count(self) -> int:
        return (
            self.objects.insert_count + self.datatypes.insert_count + self.types.insert_count
        )

    @property
    def tombstone_count(self) -> int:
        return (
            self.objects.tombstone_count
            + self.datatypes.tombstone_count
            + self.types.tombstone_count
        )

    def size_in_bytes(self) -> int:
        return (
            self.objects.size_in_bytes()
            + self.datatypes.size_in_bytes()
            + self.types.size_in_bytes()
        )

    def __repr__(self) -> str:
        return (
            f"DeltaOverlay({self.insert_count} inserts, "
            f"{self.tombstone_count} tombstones)"
        )


# --------------------------------------------------------------------------- #
# the write log
# --------------------------------------------------------------------------- #


class WriteLog:
    """The term-level writes applied since a store's current base, in order.

    Each live store keeps one and appends every changed write under its
    write lock, which is also :attr:`lock`.  ``generation`` numbers the
    bases: :meth:`restart` installs a new one and empties the log.  A log
    restarted with no base epoch has no base a follower could stand on and
    records nothing.  Replayed through another store's ``insert``/``delete``
    on an image of the base, the log reproduces identifier assignment
    exactly (:mod:`repro.store.shipping`).
    """

    def __init__(self, lock, base_epoch: Optional[int] = 0) -> None:
        self.lock = lock
        self.generation = 0
        self.base_epoch = base_epoch
        self.operations: List[Tuple[str, Triple]] = []

    def __len__(self) -> int:
        return len(self.operations)

    @property
    def epoch(self) -> int:
        """The data epoch of the base plus every logged write."""
        return self.base_epoch + len(self.operations)

    def append(self, operation: str, triple: Triple) -> None:
        """Record one changed ``insert``/``delete`` (called under :attr:`lock`)."""
        if self.base_epoch is not None:
            self.operations.append((operation, triple))

    def restart(self, base_epoch: Optional[int], operations=()) -> None:
        """Start the next generation on a base at ``base_epoch``; ``operations`` came after it."""
        self.generation += 1
        self.base_epoch = base_epoch
        self.operations = list(operations)

    def slice(self, generation: int, applied: int, upto_epoch: Optional[int] = None) -> dict:
        """The log suffix a follower at ``(generation, applied)`` is missing.

        ``resync: True`` (with the current ``generation``) when the
        follower's generation is stale, the log has no base, or ``applied``
        exceeds the log: the follower must bootstrap again.  Otherwise
        ``operations`` holds ``log[applied:end]`` as ``(op, triple)`` pairs,
        ``applied`` the follower's count after replay and ``epoch`` the data
        epoch it lands on.  ``upto_epoch`` caps ``end``: a follower synced
        for a query pinned at epoch E never moves past E, so later writes
        cannot leak into the query's rows; one already past the cap gets an
        empty slice and is never moved back.
        """
        with self.lock:
            operations = self.operations
            if generation != self.generation or self.base_epoch is None or applied > len(operations):
                return {"resync": True, "generation": self.generation}
            end = len(operations)
            if upto_epoch is not None:
                end = min(end, max(0, upto_epoch - self.base_epoch))
            start = max(0, applied)
            end = max(start, end)
            return {
                "resync": False,
                "generation": generation,
                "applied": end,
                "epoch": self.base_epoch + end,
                "operations": operations[start:end],
            }


# --------------------------------------------------------------------------- #
# compaction policy
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class CompactionPolicy:
    """When to fold the delta into a fresh succinct base.

    Attributes
    ----------
    max_delta_operations:
        Compact once the delta holds this many pending operations (inserts
        plus tombstones), regardless of base size.  ``None`` disables the
        absolute trigger.
    max_delta_ratio:
        Compact once ``pending / max(len(base), 1)`` reaches this ratio.
        ``None`` disables the ratio trigger.
    min_delta_operations:
        The ratio trigger stays quiet below this many pending operations so
        that tiny stores do not compact on every insert.
    """

    max_delta_operations: Optional[int] = 10_000
    max_delta_ratio: Optional[float] = 0.25
    min_delta_operations: int = 64

    def should_compact(self, pending_operations: int, base_triples: int) -> bool:
        """Whether the thresholds say the delta should be compacted now."""
        if self.max_delta_operations is not None and pending_operations >= self.max_delta_operations:
            return True
        if self.max_delta_ratio is not None and pending_operations >= self.min_delta_operations:
            return pending_operations / max(base_triples, 1) >= self.max_delta_ratio
        return False


#: A policy that never triggers on its own (compaction stays explicit).
MANUAL_COMPACTION = CompactionPolicy(max_delta_operations=None, max_delta_ratio=None)


# --------------------------------------------------------------------------- #
# overlay read views
# --------------------------------------------------------------------------- #


def _merge_sorted(left: List[int], right: List[int]) -> List[int]:
    """Merge two disjoint ascending lists (tiny helper kept branch-light)."""
    if not right:
        return left
    if not left:
        return right
    return list(heapq.merge(left, right))


class _PropertyOverlayMixin:
    """Property-level arithmetic and scans shared by the PSO and PS overlay views.

    Relies on ``self.base`` / ``self.delta`` exposing the common counting
    interface (``count_triples_with_property`` / ``properties`` /
    ``properties_in_interval`` on the base; per-property insert and
    tombstone counts on the delta).  Every count is exact thanks to the
    facade's invariants (module docstring).
    """

    base: object
    delta: object

    def __len__(self) -> int:
        return len(self.base) - self.delta.tombstone_count + self.delta.insert_count

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}({len(self)} visible triples = {len(self.base)} base "
            f"- {self.delta.tombstone_count} tombstones + {self.delta.insert_count} inserts)"
        )

    @property
    def properties(self) -> List[int]:
        merged = set(self.base.properties)
        merged.update(self.delta.insert_properties())
        return sorted(p for p in merged if self.has_property(p))

    def has_property(self, property_id: int) -> bool:
        if self.delta.insert_count_for(property_id) > 0:
            return True
        return (
            self.base.count_triples_with_property(property_id)
            - self.delta.tombstone_count_for(property_id)
            > 0
        )

    def properties_in_interval(self, low: int, high: int) -> List[int]:
        merged = set(self.base.properties_in_interval(low, high))
        merged.update(p for p in self.delta.insert_properties() if low <= p < high)
        return sorted(p for p in merged if self.has_property(p))

    def count_triples_with_property(self, property_id: int) -> int:
        return (
            self.base.count_triples_with_property(property_id)
            - self.delta.tombstone_count_for(property_id)
            + self.delta.insert_count_for(property_id)
        )

    def pairs_for_property_interval(
        self, property_low: int, property_high: int
    ) -> Iterator[tuple]:
        for property_id in self.properties_in_interval(property_low, property_high):
            for subject_id, obj in self.pairs_for_property(property_id):
                yield property_id, subject_id, obj

    def iter_triples(self) -> Iterator[tuple]:
        """All visible triples in layout order (the compaction feed)."""
        for property_id in self.properties:
            for subject_id, obj in self.pairs_for_property(property_id):
                yield property_id, subject_id, obj


class OverlayObjectStore(_PropertyOverlayMixin):
    """Read view merging an :class:`ObjectTripleStore` base with a delta.

    Implements the full evaluation API of the base layout (the methods
    :mod:`repro.query.tp_eval` and :meth:`SuccinctEdge.match` call), with
    every enumeration in PSO order and every count exact — see the module
    docstring for the invariants that make this possible.
    """

    def __init__(self, base: ObjectTripleStore, delta: ObjectDelta) -> None:
        self.base = base
        self.delta = delta

    # counting ----------------------------------------------------------- #

    def count_subjects_with_property(self, property_id: int) -> int:
        if (
            self.delta.insert_count_for(property_id) == 0
            and self.delta.tombstone_count_for(property_id) == 0
        ):
            return self.base.count_subjects_with_property(property_id)
        count = 0
        previous = None
        for subject, _obj in self.pairs_for_property(property_id):
            if subject != previous:
                count += 1
                previous = subject
        return count

    # pattern evaluation -------------------------------------------------- #

    def objects_for(self, subject_id: int, property_id: int) -> List[int]:
        base_objects = self.base.objects_for(subject_id, property_id)
        tombs = self.delta.tombstones_for(property_id)
        if tombs:
            base_objects = [obj for obj in base_objects if (subject_id, obj) not in tombs]
        return _merge_sorted(base_objects, self.delta.insert_objects(property_id, subject_id))

    def subjects_for(self, property_id: int, object_id: int) -> List[int]:
        base_subjects = self.base.subjects_for(property_id, object_id)
        tombs = self.delta.tombstones_for(property_id)
        if tombs:
            base_subjects = [s for s in base_subjects if (s, object_id) not in tombs]
        return _merge_sorted(base_subjects, self.delta.insert_subjects(property_id, object_id))

    def contains(self, subject_id: int, property_id: int, object_id: int) -> bool:
        if self.delta.is_tombstoned(property_id, subject_id, object_id):
            return False
        if self.delta.has_insert(property_id, subject_id, object_id):
            return True
        return self.base.contains(subject_id, property_id, object_id)

    def pairs_for_property(self, property_id: int) -> Iterator[Tuple[int, int]]:
        # This scan is lazy, so the delta side is snapshotted up front (the
        # tombstone copy included): writes that race the iteration cannot
        # reshuffle what it yields.  The base side is immutable.
        tombs = set(self.delta.tombstones_for(property_id))
        base_pairs = self.base.pairs_for_property(property_id)
        if tombs:
            base_pairs = (pair for pair in base_pairs if pair not in tombs)
        inserts = self.delta.inserts_for(property_id)
        if not inserts:
            yield from base_pairs
            return
        yield from heapq.merge(base_pairs, iter(inserts))

    # storage accounting -------------------------------------------------- #

    def size_in_bytes(self) -> int:
        return self.base.size_in_bytes() + self.delta.size_in_bytes()


class OverlayDatatypeStore(_PropertyOverlayMixin):
    """Read view merging a :class:`DatatypeTripleStore` base with a delta.

    Within one ``(property, subject)`` pair the visible literal order is
    *base literals first (their stored order), then delta literals in
    insertion order* — exactly what a from-scratch rebuild produces when the
    inserted triples are appended after the base graph.
    """

    def __init__(self, base: DatatypeTripleStore, delta: DatatypeDelta) -> None:
        self.base = base
        self.delta = delta

    # basic accessors ---------------------------------------------------- #

    @property
    def literals(self):
        """The base literal store (delta literals live in the delta until compaction)."""
        return self.base.literals

    # counting ----------------------------------------------------------- #

    def count_subjects_with_property(self, property_id: int) -> int:
        return sum(1 for _run in self._merged_runs(property_id))

    # pattern evaluation -------------------------------------------------- #

    def literals_for(self, subject_id: int, property_id: int) -> List[Literal]:
        base_literals = self.base.literals_for(subject_id, property_id)
        tombs = self.delta.tombstones_for(property_id, subject_id)
        if tombs:
            base_literals = [literal for literal in base_literals if literal not in tombs]
        return base_literals + self.delta.insert_literals(property_id, subject_id)

    def subjects_for(self, property_id: int, literal: Literal) -> List[int]:
        results: List[int] = []
        for subject_id, literals in self._merged_runs(property_id):
            if literal in literals:
                results.append(subject_id)
        return results

    def pairs_for_property(self, property_id: int) -> Iterator[Tuple[int, Literal]]:
        for subject_id, literals in self._merged_runs(property_id):
            for literal in literals:
                yield subject_id, literal

    def _merged_runs(self, property_id: int) -> Iterator[Tuple[int, List[Literal]]]:
        """Visible ``(subject, literals)`` runs of ``property_id``, subjects ascending.

        Base runs are decoded with the base's batched kernels and merged
        two-pointer style with the delta's sorted subject list; runs whose
        literals are all tombstoned disappear, mirroring a rebuild.
        """
        delta_subjects = self.delta.insert_subjects(property_id)
        delta_index = 0
        for subject_id, literals in self._base_runs(property_id):
            while delta_index < len(delta_subjects) and delta_subjects[delta_index] < subject_id:
                delta_only = delta_subjects[delta_index]
                yield delta_only, list(self.delta.insert_literals(property_id, delta_only))
                delta_index += 1
            tombs = self.delta.tombstones_for(property_id, subject_id)
            if tombs:
                literals = [literal for literal in literals if literal not in tombs]
            if delta_index < len(delta_subjects) and delta_subjects[delta_index] == subject_id:
                literals = literals + self.delta.insert_literals(property_id, subject_id)
                delta_index += 1
            if literals:
                yield subject_id, literals
        while delta_index < len(delta_subjects):
            delta_only = delta_subjects[delta_index]
            yield delta_only, list(self.delta.insert_literals(property_id, delta_only))
            delta_index += 1

    def _base_runs(self, property_id: int) -> Iterator[Tuple[int, List[Literal]]]:
        """Base ``(subject, literals)`` runs grouped from the batched pair scan."""
        current: Optional[int] = None
        literals: List[Literal] = []
        for subject_id, literal in self.base.pairs_for_property(property_id):
            if subject_id != current:
                if current is not None:
                    yield current, literals
                current = subject_id
                literals = []
            literals.append(literal)
        if current is not None:
            yield current, literals

    # storage accounting -------------------------------------------------- #

    def size_in_bytes(self, include_literals: bool = True) -> int:
        return self.base.size_in_bytes(include_literals) + self.delta.size_in_bytes()


class OverlayTypeStore:
    """Read view merging an :class:`RDFTypeStore` base with a delta.

    The base's sorted pair runs are immutable, so inserts and tombstones
    both live in the delta — compaction gets one uniform merged iterator
    per layout, exactly as for the PSO layouts.
    """

    def __init__(self, base: RDFTypeStore, delta: TypeDelta) -> None:
        self.base = base
        self.delta = delta

    # basic accessors ---------------------------------------------------- #

    def __len__(self) -> int:
        return len(self.base) - self.delta.tombstone_count + self.delta.insert_count

    def __repr__(self) -> str:
        return (
            f"OverlayTypeStore({len(self)} visible triples = {len(self.base)} base "
            f"- {self.delta.tombstone_count} tombstones + {self.delta.insert_count} inserts)"
        )

    # lookups ------------------------------------------------------------ #

    def contains(self, subject_id: int, concept_id: int) -> bool:
        if self.delta.is_tombstoned(subject_id, concept_id):
            return False
        if self.delta.has_insert(subject_id, concept_id):
            return True
        return self.base.contains(subject_id, concept_id)

    def subjects_of(self, concept_id: int) -> List[int]:
        base_subjects = self.base.subjects_of(concept_id)
        tombs = self.delta.tombstones()
        if tombs:
            base_subjects = [s for s in base_subjects if (s, concept_id) not in tombs]
        return _merge_sorted(base_subjects, self.delta.insert_subjects(concept_id))

    def concepts_of(self, subject_id: int) -> List[int]:
        base_concepts = self.base.concepts_of(subject_id)
        tombs = self.delta.tombstones()
        if tombs:
            base_concepts = [c for c in base_concepts if (subject_id, c) not in tombs]
        return _merge_sorted(base_concepts, self.delta.insert_concepts(subject_id))

    def subjects_of_interval(self, concept_low: int, concept_high: int) -> List[int]:
        tombs = self.delta.tombstones()
        seen = set()
        for subject_id, concept_id in self.base.pairs_in_interval(concept_low, concept_high):
            if (subject_id, concept_id) not in tombs:
                seen.add(subject_id)
        for _concept, subject_id in self.delta.insert_pairs_in_interval(concept_low, concept_high):
            seen.add(subject_id)
        return sorted(seen)

    def count_concept(self, concept_id: int) -> int:
        return self.count_concept_interval(concept_id, concept_id + 1)

    def count_concept_interval(self, concept_low: int, concept_high: int) -> int:
        return (
            self.base.count_concept_interval(concept_low, concept_high)
            - self.delta.tombstone_count_in_interval(concept_low, concept_high)
            + self.delta.insert_count_in_interval(concept_low, concept_high)
        )

    def iter_triples(self) -> Iterator[EncodedTypeTriple]:
        """All visible ``(subject, concept)`` pairs in SO order (compaction feed)."""
        tombs = set(self.delta.tombstones())  # snapshot: this scan is lazy
        base_pairs = self.base.iter_triples()
        if tombs:
            base_pairs = (pair for pair in base_pairs if pair not in tombs)
        inserts = self.delta.inserts_so()
        if not inserts:
            yield from base_pairs
            return
        yield from heapq.merge(base_pairs, iter(inserts))

    # storage accounting -------------------------------------------------- #

    def size_in_bytes(self) -> int:
        return self.base.size_in_bytes() + self.delta.size_in_bytes()
