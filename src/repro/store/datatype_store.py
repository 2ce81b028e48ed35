"""Datatype-property triple store.

Datatype properties relate an individual to a literal (a measurement value,
a timestamp, a name...).  Creating dictionary entries for every literal would
be wasteful — sensors emit a practically unbounded stream of distinct values —
so SuccinctEdge stores them as-is in a flat literal store and keeps only
positional pointers in the PS layout (paper Section 4, "Datatype-triple-store").

The layout is the shared :class:`~repro.store.triple_store.PSOLayout`
(``wt_p``, ``bm_ps``, ``wt_s``, ``bm_so``); only the object layer differs: an
:class:`~repro.sds.int_sequence.IntSequence` of positions into the
:class:`~repro.dictionary.literal_store.LiteralStore`.  Whole literal runs are
decoded with one batched ``access_range`` over the pointer sequence plus one
batched select scan over the run bitmap.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.dictionary.literal_store import LiteralStore
from repro.rdf.terms import Literal
from repro.sds.int_sequence import IntSequence
from repro.store.triple_store import PSOLayout

#: An encoded datatype triple ``(property_id, subject_id, literal)``.
EncodedDatatypeTriple = Tuple[int, int, Literal]


class DatatypeTripleStore(PSOLayout):
    """Immutable PS(+flat literal) store over datatype-property triples.

    Triples are stably sorted by ``(property, subject)``: duplicates are kept
    and literals stay in insertion order within a pair.  ``presorted``
    promises that ``triples`` already arrive in that order, skipping the sort
    pass.
    """

    def __init__(
        self,
        triples: Sequence[EncodedDatatypeTriple],
        literal_store: Optional[LiteralStore] = None,
        presorted: bool = False,
    ) -> None:
        self.literals = literal_store if literal_store is not None else LiteralStore()
        if presorted:
            ordered = list(triples)
        else:
            ordered = sorted(triples, key=lambda triple: (triple[0], triple[1]))
        super().__init__(ordered)

    @classmethod
    def _from_components(cls, literals, **components) -> "DatatypeTripleStore":
        """Assemble a store around pre-built structures and a literal store.

        ``literals`` is any literal-store implementation (typically the lazy
        :class:`~repro.dictionary.literal_store.BufferLiteralStore` decoding
        straight out of a mapped image).
        """
        store = super()._from_components(**components)
        store.literals = literals
        return store

    def _encode_objects(self, literals: List[Literal]) -> IntSequence:
        return IntSequence([self.literals.append(literal) for literal in literals])

    def _decode_objects(self, begin: int, end: int) -> List[Literal]:
        get = self.literals.get
        return [get(pointer) for pointer in self._objects.access_range(begin, end)]

    @property
    def object_pointers(self) -> IntSequence:
        """The object layer: literal-store positions grouped by ``(p, s)`` pair."""
        return self._objects

    def literals_for(self, subject_id: int, property_id: int) -> List[Literal]:
        """Literal objects of ``(subject, property, ?o)`` (batched run decode)."""
        return self._objects_of(subject_id, property_id)

    def subjects_for(self, property_id: int, literal: Literal) -> List[int]:
        """Subjects of ``(?s, property, literal)``.

        Literals are not dictionary-encoded, so this decodes the property's
        whole pointer run in one batched pass and compares values — the paper
        accepts this cost because literal-bound patterns are rare in its IoT
        workload.
        """
        results: List[int] = []
        for subject_id, found in self.pairs_for_property(property_id):
            if found == literal and (not results or results[-1] != subject_id):
                results.append(subject_id)
        return results

    def size_in_bytes(self, include_literals: bool = True) -> int:
        """Approximate storage footprint (optionally excluding literal payload)."""
        total = super().size_in_bytes()
        if include_literals:
            total += self.literals.size_in_bytes()
        return total
