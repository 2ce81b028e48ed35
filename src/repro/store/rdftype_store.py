"""RDFType store: the dedicated layout for ``rdf:type`` triples.

``rdf:type`` triples typically represent a large share of real-world RDF
datasets, and the paper stores them apart from the SDS layout (Section 4).
The paper uses red-black trees so that lookups stay O(log n) while triples
are inserted during construction.  Here the type index is built once from
the encoded triples, so it is two sorted pair runs instead — the same
O(log n) lookups by binary search, no per-node objects, and the exact layout
a store image maps (``docs/architecture.md``, "Deviations from the paper").
Each run is two id columns of the store's one column type,
:class:`~repro.sds.int_sequence.IntSequence`:

* the OS run holds ``(concept_id, subject_id)`` pairs — enumerating every
  subject of a concept (or of a whole LiteMat concept interval) is one
  contiguous slice;
* the SO run holds ``(subject_id, concept_id)`` pairs — enumerating the
  types of a subject is likewise one slice.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Tuple

from repro.sds.int_sequence import IntSequence

#: An encoded rdf:type triple ``(subject_id, concept_id)``.
EncodedTypeTriple = Tuple[int, int]


class PairRun:
    """Sorted, unique integer pairs as two id columns.

    ``first[i]`` / ``second[i]`` are the ``i``-th pair.  Each column is an
    :class:`~repro.sds.int_sequence.IntSequence` — built, or a read-only
    view over a mapped store image — so lookups are bisections on the
    columns and nothing is decoded up front.
    """

    __slots__ = ("first", "second")

    def __init__(self, first: IntSequence, second: IntSequence) -> None:
        self.first = first
        self.second = second

    @classmethod
    def from_pairs(cls, pairs: List[Tuple[int, int]]) -> "PairRun":
        """Store already-sorted unique ``(a, b)`` pairs as two fresh columns."""
        return cls(IntSequence([a for a, _ in pairs]), IntSequence([b for _, b in pairs]))

    def __len__(self) -> int:
        return len(self.first)

    def __iter__(self) -> Iterator[Tuple[int, int]]:
        return zip(self.first, self.second)

    def __contains__(self, pair: Tuple[int, int]) -> bool:
        first, second = pair
        begin, end = self.span(first, first + 1)
        index = self.second.locate(second, begin, end)
        return index < end and self.second[index] == second

    def span(self, low: int, high: int) -> Tuple[int, int]:
        """Index interval of the pairs whose first element lies in ``[low, high)``."""
        begin = self.first.locate(low)
        return begin, self.first.locate(high, begin)

    def firsts(self, begin: int, end: int) -> List[int]:
        """First elements of the pairs at indexes ``[begin, end)``."""
        return self.first.access_range(begin, end)

    def seconds(self, begin: int, end: int) -> List[int]:
        """Second elements of the pairs at indexes ``[begin, end)``."""
        return self.second.access_range(begin, end)

    def size_in_bytes(self) -> int:
        """Exact storage footprint of both columns."""
        return self.first.size_in_bytes() + self.second.size_in_bytes()


class RDFTypeStore:
    """Store of ``rdf:type`` triples with SO and OS access paths."""

    def __init__(self, triples: Iterable[EncodedTypeTriple] = ()) -> None:
        so = sorted(set(triples))
        self._so = PairRun.from_pairs(so)
        self._os = PairRun.from_pairs(sorted((concept, subject) for subject, concept in so))

    @classmethod
    def _from_components(cls, so_run: PairRun, os_run: PairRun) -> "RDFTypeStore":
        """Assemble a store around pre-built (typically mapped) pair runs."""
        store = object.__new__(cls)
        store._so = so_run
        store._os = os_run
        return store

    # ------------------------------------------------------------------ #
    # lookups
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return len(self._so)

    def __repr__(self) -> str:
        return f"RDFTypeStore({len(self)} rdf:type triples)"

    def contains(self, subject_id: int, concept_id: int) -> bool:
        """Whether ``subject rdf:type concept`` is explicitly stored."""
        return (subject_id, concept_id) in self._so

    def subjects_of(self, concept_id: int) -> List[int]:
        """Subjects explicitly typed with ``concept_id``, ascending."""
        return self._os.seconds(*self._os.span(concept_id, concept_id + 1))

    def subjects_of_interval(self, concept_low: int, concept_high: int) -> List[int]:
        """Subjects typed with any concept in the LiteMat interval ``[low, high)``.

        This is how SuccinctEdge answers ``?x rdf:type C`` with reasoning: the
        interval covers ``C`` and every direct/indirect sub-concept, so one
        contiguous slice of the OS run returns the complete answer set.
        The result is sorted and deduplicated (a subject can match several
        sub-concepts).
        """
        return sorted(set(self._os.seconds(*self._os.span(concept_low, concept_high))))

    def concepts_of(self, subject_id: int) -> List[int]:
        """Concepts explicitly attached to ``subject_id``, ascending."""
        return self._so.seconds(*self._so.span(subject_id, subject_id + 1))

    def pairs_in_interval(self, concept_low: int, concept_high: int) -> Iterator[EncodedTypeTriple]:
        """All ``(subject_id, concept_id)`` pairs whose concept falls in ``[low, high)``.

        Unlike :meth:`subjects_of_interval` this yields every explicit pair
        (no dedup), in OS order — the primitive the delta overlay needs to
        apply per-pair tombstones before deduplicating.
        """
        begin, end = self._os.span(concept_low, concept_high)
        return zip(self._os.seconds(begin, end), self._os.firsts(begin, end))

    def count_concept(self, concept_id: int) -> int:
        """Number of explicit ``rdf:type`` triples for ``concept_id``."""
        return self.count_concept_interval(concept_id, concept_id + 1)

    def count_concept_interval(self, concept_low: int, concept_high: int) -> int:
        """Number of explicit typings whose concept falls in ``[low, high)``."""
        begin, end = self._os.span(concept_low, concept_high)
        return end - begin

    def iter_triples(self) -> Iterator[EncodedTypeTriple]:
        """All ``(subject_id, concept_id)`` pairs in SO order."""
        return iter(self._so)

    # ------------------------------------------------------------------ #
    # storage accounting
    # ------------------------------------------------------------------ #

    def size_in_bytes(self) -> int:
        """Storage footprint of both pair runs."""
        return self._so.size_in_bytes() + self._os.size_in_bytes()
