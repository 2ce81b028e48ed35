"""The PSO id-array / bitmap layout and the object-property triple store.

This is the core single-index layout of Figure 5(b), with each id layer a
byte-aligned :class:`~repro.sds.int_sequence.IntSequence` where the paper
keeps a wavelet tree (``docs/architecture.md``, "Deviations from the paper"):

* ``wt_p`` — the property layer: every *distinct* property identifier, in
  ascending order (one entry per property);
* ``bm_ps`` — one bit per distinct ``(property, subject)`` pair, a ``1``
  marking the first subject of each property run (plus a trailing sentinel
  ``1`` so that "end of run" lookups need no special case);
* ``wt_s`` — the subject layer: subject identifiers grouped by property,
  ascending inside each property run;
* ``bm_so`` — one bit per triple, a ``1`` marking the first object of each
  ``(property, subject)`` pair (plus a trailing sentinel ``1``);
* the object layer: one entry per triple, grouped by ``(p, s)`` pair.

:class:`PSOLayout` holds everything built from the first four structures —
the build loop, property navigation, counts and the batched scans.  The two
stores differ only in their object layer: :class:`ObjectTripleStore` keeps
object identifiers in ``wt_o`` (ascending inside each pair),
:class:`~repro.store.datatype_store.DatatypeTripleStore` keeps pointers into
a literal store.

Every triple-pattern evaluation is a sequence of ``select`` / ``rank`` /
``locate`` / ``access_range`` / ``range_search`` operations on these five
structures, i.e. the store is *decompression-free* (paper contribution ii).
``wt_p`` is ascending and so is each property's run of ``wt_s``, so a
property or a subject is found by bisection (Algorithm 3); Algorithm 4
scans the property's span of the object layer.

The evaluation entry points are **range-materialising**: a pattern is
answered with one batched kernel call per layer (``select_range`` over the
bitmaps, ``access_range`` over the id arrays) instead of O(results)
individual rank/select round-trips.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple

from repro.sds.bitvector import BitVector, BitVectorBuilder
from repro.sds.int_sequence import IntSequence

#: An encoded object-property triple ``(property_id, subject_id, object_id)``.
EncodedTriple = Tuple[int, int, int]


class PSOLayout:
    """Immutable PSO layout; subclasses supply the object layer.

    A subclass implements :meth:`_encode_objects` and, when the stored values
    are not the objects themselves, overrides :meth:`_decode_objects`.
    """

    def __init__(self, ordered: Sequence[tuple]) -> None:
        """Lay out ``ordered`` triples, already in the subclass's sort order."""
        self._triple_count = len(ordered)

        property_layer: List[int] = []
        subject_layer: List[int] = []
        object_layer: list = []
        ps_bits = BitVectorBuilder()
        so_bits = BitVectorBuilder()

        previous_property: Optional[int] = None
        previous_pair: Optional[Tuple[int, int]] = None
        for prop, subject, obj in ordered:
            if prop != previous_property:
                property_layer.append(prop)
                previous_property = prop
                new_property = True
            else:
                new_property = False
            pair = (prop, subject)
            if pair != previous_pair:
                subject_layer.append(subject)
                ps_bits.append(1 if new_property else 0)
                previous_pair = pair
                new_pair = True
            else:
                new_pair = False
            object_layer.append(obj)
            so_bits.append(1 if new_pair else 0)
        # Trailing sentinels: one virtual run start past the end of each layer.
        ps_bits.append(1)
        so_bits.append(1)

        self.wt_p = IntSequence(property_layer)
        self.wt_s = IntSequence(subject_layer)
        self._objects = self._encode_objects(object_layer)
        self.bm_ps: BitVector = ps_bits.build()
        self.bm_so: BitVector = so_bits.build()
        # The property layer is tiny (one entry per distinct property) but its
        # navigation is probed once per bind-propagation binding and its
        # LiteMat intervals once per reasoning pattern; the layouts are
        # immutable, so these lookups and the per-property counts are memoised.
        self._property_index_cache: dict = {}
        self._property_interval_cache: dict = {}
        self._subject_run_cache: dict = {}
        self._triple_count_cache: dict = {}

    @classmethod
    def _from_components(
        cls,
        triple_count: int,
        wt_p: IntSequence,
        wt_s: IntSequence,
        objects,
        bm_ps: BitVector,
        bm_so: BitVector,
    ) -> "PSOLayout":
        """Assemble a layout around pre-built structures (a mapped store image).

        Nothing is re-encoded or validated here, so construction is O(1) in
        the triple count.
        """
        store = object.__new__(cls)
        store._triple_count = triple_count
        store.wt_p = wt_p
        store.wt_s = wt_s
        store._objects = objects
        store.bm_ps = bm_ps
        store.bm_so = bm_so
        store._property_index_cache = {}
        store._property_interval_cache = {}
        store._subject_run_cache = {}
        store._triple_count_cache = {}
        return store

    def _encode_objects(self, objects: list) -> IntSequence:
        """Build the object layer from the per-triple object values."""
        raise NotImplementedError

    def _decode_objects(self, begin: int, end: int) -> list:
        """Objects at object-layer positions ``[begin, end)`` (batched)."""
        return self._objects.access_range(begin, end)

    # ------------------------------------------------------------------ #
    # basic accessors
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return self._triple_count

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self._triple_count} triples, {len(self.wt_p)} properties)"

    @property
    def properties(self) -> List[int]:
        """Distinct property identifiers, ascending."""
        return self.wt_p.to_list()

    def has_property(self, property_id: int) -> bool:
        """Whether the store holds at least one triple with ``property_id``."""
        return self._property_index(property_id) is not None

    def properties_in_interval(self, low: int, high: int) -> List[int]:
        """Stored property identifiers in ``[low, high)``, ascending.

        Two bisections on the ascending property layer — the reasoning access
        path of Section 5.2 (a LiteMat interval is answered by probing only
        the *stored* properties it covers).
        """
        return [symbol for _position, symbol in self._property_interval(low, high)]

    def _property_interval(self, low: int, high: int) -> List[Tuple[int, int]]:
        """``(property-layer position, property id)`` pairs in ``[low, high)`` (memoised)."""
        try:
            return self._property_interval_cache[low, high]
        except KeyError:
            pass
        begin = self.wt_p.locate(low)
        end = self.wt_p.locate(high, begin)
        found = list(zip(range(begin, end), self.wt_p.access_range(begin, end)))
        self._property_interval_cache[low, high] = found
        return found

    # ------------------------------------------------------------------ #
    # navigation primitives (paper Algorithms 2-4)
    # ------------------------------------------------------------------ #

    def _property_index(self, property_id: int) -> Optional[int]:
        """Position of ``property_id`` in the property layer, or ``None``."""
        try:
            return self._property_index_cache[property_id]
        except KeyError:
            pass
        wt_p = self.wt_p
        index: Optional[int] = wt_p.locate(property_id)
        if index == len(wt_p) or wt_p[index] != property_id:
            index = None
        self._property_index_cache[property_id] = index
        return index

    def _subject_run(self, property_index: int) -> Tuple[int, int]:
        """Subject-layer interval ``[begin, end)`` of the property at ``property_index``."""
        try:
            return self._subject_run_cache[property_index]
        except KeyError:
            pass
        begin = self.bm_ps.select(property_index + 1, 1)
        end = self.bm_ps.select(property_index + 2, 1)
        self._subject_run_cache[property_index] = (begin, end)
        return begin, end

    def subject_run(self, property_id: int) -> Optional[Tuple[int, int]]:
        """Subject-layer interval ``[begin, end)`` of ``property_id``, or ``None``."""
        property_index = self._property_index(property_id)
        if property_index is None:
            return None
        return self._subject_run(property_index)

    def object_run_boundaries(self, subject_begin: int, subject_end: int) -> List[int]:
        """Object-layer run starts for subject positions ``[subject_begin, subject_end]``.

        One batched select scan returns ``subject_end - subject_begin + 1``
        boundary positions; consecutive entries delimit each subject's object
        run (the sentinel bit makes the last boundary valid).
        """
        return self.bm_so.select_range(subject_begin + 1, subject_end + 1, 1)

    def _object_span(self, property_id: int) -> Optional[Tuple[int, int, int, int]]:
        """Subject run and object-layer interval of ``property_id``, or ``None``."""
        run = self.subject_run(property_id)
        if run is None:
            return None
        subject_begin, subject_end = run
        object_begin = self.bm_so.select(subject_begin + 1, 1)
        object_end = self.bm_so.select(subject_end + 1, 1)
        return subject_begin, subject_end, object_begin, object_end

    def count_triples_with_property(self, property_id: int) -> int:
        """Algorithm 2: number of triples carrying ``property_id``.

        Computed purely from the bitmaps: the object run spanning the whole
        subject run of the property (memoised per property).
        """
        try:
            return self._triple_count_cache[property_id]
        except KeyError:
            pass
        span = self._object_span(property_id)
        count = self._triple_count_cache[property_id] = 0 if span is None else span[3] - span[2]
        return count

    def count_subjects_with_property(self, property_id: int) -> int:
        """Number of distinct subjects attached to ``property_id`` (run length)."""
        run = self.subject_run(property_id)
        return 0 if run is None else run[1] - run[0]

    # ------------------------------------------------------------------ #
    # triple pattern evaluation
    # ------------------------------------------------------------------ #

    def _objects_of(self, subject_id: int, property_id: int) -> list:
        """Algorithm 3 core: objects of ``(subject, property, ?o)`` in stored order.

        A subject occurs once in its property's (ascending) run, so one
        bisection finds it, one select scan finds its object run, and the
        run is decoded with one object-layer read.
        """
        run = self.subject_run(property_id)
        if run is None:
            return []
        position = self.wt_s.locate(subject_id, *run)
        if position == run[1] or self.wt_s[position] != subject_id:
            return []
        return self._decode_objects(*self.bm_so.select_range(position + 1, position + 2))

    def pairs_for_property(self, property_id: int) -> Iterator[tuple]:
        """All ``(subject, object)`` pairs of ``(?s, property, ?o)``, in stored order.

        The whole property run is materialised with three batched kernel
        calls (subject layer, run boundaries, object layer) and then zipped.
        """
        run = self.subject_run(property_id)
        return iter(()) if run is None else self._pairs_in_subject_run(*run)

    def _pairs_in_subject_run(self, subject_begin: int, subject_end: int) -> Iterator[tuple]:
        if subject_begin >= subject_end:
            return iter(())
        subjects = self.wt_s.access_range(subject_begin, subject_end)
        boundaries = self.object_run_boundaries(subject_begin, subject_end)
        objects = self._decode_objects(boundaries[0], boundaries[-1])
        # Each subject once per entry of its object run, zipped with the objects.
        repeated = [
            subject_id
            for subject_id, begin, end in zip(subjects, boundaries, boundaries[1:])
            for _ in range(end - begin)
        ]
        return zip(repeated, objects)

    def pairs_for_property_interval(
        self, property_low: int, property_high: int
    ) -> Iterator[tuple]:
        """All ``(property, subject, object)`` triples whose property identifier
        falls in the LiteMat interval ``[property_low, property_high)``.

        This is the reasoning access path of Section 5.2: instead of running
        one query per sub-property, the property layer is probed once per
        *stored* property inside the interval, and each property run is
        materialised with the batched pair scan.
        """
        for position, property_id in self._property_interval(property_low, property_high):
            for subject_id, obj in self._pairs_in_subject_run(*self._subject_run(position)):
                yield property_id, subject_id, obj

    def iter_triples(self) -> Iterator[tuple]:
        """All stored triples in layout order (one batched scan per property run)."""
        for position, property_id in enumerate(self.wt_p.to_list()):
            for subject_id, obj in self._pairs_in_subject_run(*self._subject_run(position)):
                yield property_id, subject_id, obj

    # ------------------------------------------------------------------ #
    # storage accounting
    # ------------------------------------------------------------------ #

    def size_in_bytes(self) -> int:
        """Approximate storage footprint of the five SDS structures."""
        return (
            self.wt_p.size_in_bytes()
            + self.wt_s.size_in_bytes()
            + self._objects.size_in_bytes()
            + self.bm_ps.size_in_bytes()
            + self.bm_so.size_in_bytes()
        )


class ObjectTripleStore(PSOLayout):
    """Immutable PSO store over integer-encoded object-property triples.

    ``presorted`` promises that ``triples`` are already deduplicated and in
    PSO order (e.g. when rebuilding from a compaction snapshot), skipping the
    sort pass.
    """

    def __init__(self, triples: Sequence[EncodedTriple], presorted: bool = False) -> None:
        super().__init__(list(triples) if presorted else sorted(set(triples)))

    def _encode_objects(self, objects: List[int]) -> IntSequence:
        return IntSequence(objects)

    @property
    def wt_o(self) -> IntSequence:
        """The object layer: object identifiers grouped by ``(p, s)`` pair."""
        return self._objects

    def objects_for(self, subject_id: int, property_id: int) -> List[int]:
        """Algorithm 3 core: objects of ``(subject, property, ?o)``, ascending."""
        return self._objects_of(subject_id, property_id)

    def subjects_for(self, property_id: int, object_id: int) -> List[int]:
        """Algorithm 4 core: subjects of ``(?s, property, object)``, ascending.

        One scan of the property's object span finds the object's positions;
        one batched rank maps them to subject-layer positions.
        """
        span = self._object_span(property_id)
        if span is None:
            return []
        positions = self._objects.range_search(span[2], span[3], object_id)
        if not positions:
            return []
        subject_indices = self.bm_so.rank_many([position + 1 for position in positions], 1)
        return [self.wt_s.access(subject_index - 1) for subject_index in subject_indices]

    def contains(self, subject_id: int, property_id: int, object_id: int) -> bool:
        """Whether the fully-bound triple is stored."""
        return object_id in self._objects_of(subject_id, property_id)
