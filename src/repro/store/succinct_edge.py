"""SuccinctEdge facade: the public entry point of the reproduction.

A :class:`SuccinctEdge` instance bundles the dictionaries, the three storage
layouts and the statistics, and exposes:

* :meth:`SuccinctEdge.from_graph` — build a store from a data graph and an
  optional ontology;
* :meth:`SuccinctEdge.query` — run a SPARQL SELECT query (subset), with
  LiteMat-based RDFS reasoning enabled by default;
* :meth:`SuccinctEdge.match` — low-level triple-pattern matching over the
  encoded stores (the building block of the query executor and the ground
  truth used in tests);
* storage accounting methods mirroring the measurements of the paper's
  evaluation (dictionary size, triple storage size, RAM footprint).
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple, Union

from repro.dictionary.statistics import DictionaryStatistics
from repro.dictionary.term_dictionary import (
    ConceptDictionary,
    InstanceDictionary,
    PropertyDictionary,
)
from repro.ontology.schema import OntologySchema
from repro.rdf.graph import Graph
from repro.rdf.namespaces import RDF_TYPE
from repro.rdf.terms import Literal, Term, Triple, URI
from repro.sparql.ast import Query as QueryAst
from repro.sparql.bindings import AskResult, ResultSet
from repro.store.datatype_store import DatatypeTripleStore
from repro.store.rdftype_store import RDFTypeStore
from repro.store.triple_store import ObjectTripleStore


class SuccinctEdge:
    """Compact, self-indexed, in-memory RDF store with query-time reasoning."""

    def __init__(
        self,
        schema: OntologySchema,
        concepts: ConceptDictionary,
        properties: PropertyDictionary,
        instances: InstanceDictionary,
        object_store: ObjectTripleStore,
        datatype_store: DatatypeTripleStore,
        type_store: RDFTypeStore,
        statistics: DictionaryStatistics,
        skipped_triples: int = 0,
    ) -> None:
        self.schema = schema
        self.concepts = concepts
        self.properties = properties
        self.instances = instances
        self.object_store = object_store
        self.datatype_store = datatype_store
        self.type_store = type_store
        self.statistics = statistics
        self.skipped_triples = skipped_triples

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #

    @classmethod
    def from_graph(cls, data: Graph, ontology: Optional[Graph] = None) -> "SuccinctEdge":
        """Build a store from a data graph and an optional ontology graph."""
        from repro.store.builder import StoreBuilder

        return StoreBuilder(ontology=ontology).build(data)

    # ------------------------------------------------------------------ #
    # persistence (store images, see docs/persistence.md)
    # ------------------------------------------------------------------ #

    #: When this store was loaded from an image, the
    #: :class:`~repro.store.persistence.StoreImage` handle keeping the mapping
    #: (or byte buffer) alive; ``None`` for built stores.
    image = None

    @classmethod
    def load(cls, path, mmap: bool = True) -> "SuccinctEdge":
        """Load a store from a store image written by :meth:`save_image`.

        With ``mmap=True`` (the default) the file is memory mapped and the
        succinct layouts alias the mapping directly — startup cost is
        independent of the triple count, and the handle stays reachable as
        ``store.image``.
        """
        from repro.store.persistence import load_store

        return load_store(path, mmap=mmap)

    def save_image(self, path, atomic: bool = False) -> int:
        """Write this store as a store image at ``path``; returns the size.

        With ``atomic=True`` the image is staged in a temporary sibling file,
        fsynced, and moved into place with ``os.replace`` so a concurrent
        reader never observes a half-written image.
        """
        from repro.store.persistence import save_store_image

        return save_store_image(self, path, atomic=atomic)

    # ------------------------------------------------------------------ #
    # live updates (delta overlay, see docs/update_lifecycle.md)
    # ------------------------------------------------------------------ #

    #: Snapshot-epoch accounting.  An immutable store never moves past epoch
    #: ``(0, 0)``; :class:`~repro.store.updatable.UpdatableSuccinctEdge`
    #: increments ``data_epoch`` per applied write and ``compaction_epoch``
    #: per compaction.
    data_epoch: int = 0
    compaction_epoch: int = 0

    @property
    def snapshot_epoch(self) -> Tuple[int, int]:
        """``(compaction_epoch, data_epoch)`` — lexicographically monotonic."""
        return self.compaction_epoch, self.data_epoch

    def updatable(self, policy=None, ontology: Optional[Graph] = None) -> "SuccinctEdge":
        """A live view of this store: same data, plus insert/delete/compact.

        Returns an :class:`~repro.store.updatable.UpdatableSuccinctEdge`
        overlaying this (still immutable) store with an in-memory delta; the
        dictionaries and statistics are shared, not copied.  Pass the
        ``ontology`` graph this store was built from so that a later
        ``rebuild()`` can re-encode with the full hierarchy.
        """
        from repro.store.updatable import UpdatableSuccinctEdge  # deferred: avoids an import cycle

        return UpdatableSuccinctEdge(self, policy=policy, ontology=ontology)

    def insert(self, triple: Triple) -> bool:
        """Immutable stores reject writes; use :meth:`updatable` for a live view."""
        raise TypeError(
            "this SuccinctEdge is immutable; call .updatable() (or build with "
            "UpdatableSuccinctEdge.from_graph) to get a store with a write path"
        )

    def delete(self, triple: Triple) -> bool:
        """Immutable stores reject writes; use :meth:`updatable` for a live view."""
        raise TypeError(
            "this SuccinctEdge is immutable; call .updatable() (or build with "
            "UpdatableSuccinctEdge.from_graph) to get a store with a write path"
        )

    def compact(self):
        """Immutable stores have no delta to compact; see :meth:`updatable`."""
        raise TypeError(
            "this SuccinctEdge is immutable and has no delta to compact; "
            "compaction applies to UpdatableSuccinctEdge stores"
        )

    # ------------------------------------------------------------------ #
    # basic accessors
    # ------------------------------------------------------------------ #

    @property
    def triple_count(self) -> int:
        """Number of stored triples across the three layouts."""
        return len(self.object_store) + len(self.datatype_store) + len(self.type_store)

    def __len__(self) -> int:
        return self.triple_count

    def __repr__(self) -> str:
        return (
            f"SuccinctEdge({self.triple_count} triples: "
            f"{len(self.object_store)} object, {len(self.datatype_store)} datatype, "
            f"{len(self.type_store)} rdf:type)"
        )

    # ------------------------------------------------------------------ #
    # term <-> identifier helpers
    # ------------------------------------------------------------------ #

    def decode_instance(self, identifier: int) -> Term:
        """Individual carrying ``identifier`` in the instance dictionary."""
        return self.instances.extract(identifier)

    def decode_concept(self, identifier: int) -> Term:
        """Concept carrying ``identifier`` in the concept dictionary."""
        return self.concepts.extract(identifier)

    def decode_property(self, identifier: int) -> Term:
        """Property carrying ``identifier`` in the property dictionary."""
        return self.properties.extract(identifier)

    # ------------------------------------------------------------------ #
    # triple pattern matching (explicit triples only, no reasoning)
    # ------------------------------------------------------------------ #

    def match(
        self,
        subject: Optional[Term] = None,
        predicate: Optional[URI] = None,
        obj: Optional[Term] = None,
    ) -> Iterator[Triple]:
        """Yield explicit triples matching the pattern (``None`` = wildcard)."""
        if predicate is None:
            yield from self._match_any_predicate(subject, obj)
            return
        if predicate == RDF_TYPE:
            yield from self._match_rdf_type(subject, obj)
            return
        property_id = self.properties.try_locate(predicate)
        if property_id is None:
            return
        yield from self._match_object_property(property_id, predicate, subject, obj)
        yield from self._match_datatype_property(property_id, predicate, subject, obj)

    def _match_any_predicate(self, subject: Optional[Term], obj: Optional[Term]) -> Iterator[Triple]:
        yield from self._match_rdf_type(subject, obj)
        for property_id in self.object_store.properties:
            predicate = self.properties.extract(property_id)
            yield from self._match_object_property(property_id, predicate, subject, obj)
        for property_id in self.datatype_store.properties:
            predicate = self.properties.extract(property_id)
            yield from self._match_datatype_property(property_id, predicate, subject, obj)

    def _match_rdf_type(self, subject: Optional[Term], obj: Optional[Term]) -> Iterator[Triple]:
        if obj is not None:
            if not isinstance(obj, URI):
                return
            concept_id = self.concepts.try_locate(obj)
            if concept_id is None:
                return
            subject_id = None if subject is None else self.instances.try_locate(subject)
            if subject is not None and subject_id is None:
                return
            if subject_id is not None:
                # Fully bound: one O(log n) membership probe instead of
                # enumerating the whole concept run.
                if self.type_store.contains(subject_id, concept_id):
                    yield Triple(subject, RDF_TYPE, obj)  # type: ignore[arg-type]
                return
            for candidate in self.type_store.subjects_of(concept_id):
                yield Triple(self.instances.extract(candidate), RDF_TYPE, obj)  # type: ignore[arg-type]
            return
        if subject is not None:
            subject_id = self.instances.try_locate(subject)
            if subject_id is None:
                return
            for concept_id in self.type_store.concepts_of(subject_id):
                yield Triple(subject, RDF_TYPE, self.concepts.extract(concept_id))  # type: ignore[arg-type]
            return
        for subject_id, concept_id in self.type_store.iter_triples():
            yield Triple(
                self.instances.extract(subject_id),  # type: ignore[arg-type]
                RDF_TYPE,
                self.concepts.extract(concept_id),
            )

    def _match_object_property(
        self,
        property_id: int,
        predicate: URI,
        subject: Optional[Term],
        obj: Optional[Term],
    ) -> Iterator[Triple]:
        if not self.object_store.has_property(property_id):
            return
        if obj is not None and isinstance(obj, Literal):
            return
        subject_id = None if subject is None else self.instances.try_locate(subject)
        if subject is not None and subject_id is None:
            return
        object_id = None if obj is None else self.instances.try_locate(obj)
        if obj is not None and object_id is None:
            return
        if subject_id is not None and object_id is not None:
            if self.object_store.contains(subject_id, property_id, object_id):
                yield Triple(subject, predicate, obj)  # type: ignore[arg-type]
            return
        if subject_id is not None:
            for found_object in self.object_store.objects_for(subject_id, property_id):
                yield Triple(subject, predicate, self.instances.extract(found_object))  # type: ignore[arg-type]
            return
        if object_id is not None:
            for found_subject in self.object_store.subjects_for(property_id, object_id):
                yield Triple(self.instances.extract(found_subject), predicate, obj)  # type: ignore[arg-type]
            return
        for found_subject, found_object in self.object_store.pairs_for_property(property_id):
            yield Triple(
                self.instances.extract(found_subject),  # type: ignore[arg-type]
                predicate,
                self.instances.extract(found_object),
            )

    def _match_datatype_property(
        self,
        property_id: int,
        predicate: URI,
        subject: Optional[Term],
        obj: Optional[Term],
    ) -> Iterator[Triple]:
        if not self.datatype_store.has_property(property_id):
            return
        if obj is not None and not isinstance(obj, Literal):
            return
        subject_id = None if subject is None else self.instances.try_locate(subject)
        if subject is not None and subject_id is None:
            return
        if subject_id is not None:
            for literal in self.datatype_store.literals_for(subject_id, property_id):
                if obj is not None and literal != obj:
                    continue
                yield Triple(subject, predicate, literal)  # type: ignore[arg-type]
            return
        if obj is not None:
            for found_subject in self.datatype_store.subjects_for(property_id, obj):
                yield Triple(self.instances.extract(found_subject), predicate, obj)  # type: ignore[arg-type]
            return
        for found_subject, literal in self.datatype_store.pairs_for_property(property_id):
            yield Triple(self.instances.extract(found_subject), predicate, literal)  # type: ignore[arg-type]

    # ------------------------------------------------------------------ #
    # SPARQL
    # ------------------------------------------------------------------ #

    def query(
        self,
        query: Union[str, "QueryAst"],
        reasoning: bool = True,
    ) -> Union[ResultSet, AskResult]:
        """Run a SPARQL query (SELECT or ASK, supported subset).

        The WHERE clause may use basic graph patterns, ``FILTER``, ``BIND``,
        ``UNION``, ``OPTIONAL`` and ``VALUES``; SELECT queries additionally
        support ``DISTINCT``, ``GROUP BY`` with the ``COUNT`` / ``SUM`` /
        ``MIN`` / ``MAX`` / ``AVG`` / ``SAMPLE`` aggregates,
        ``(expr AS ?var)`` projections, ``ORDER BY``, ``OFFSET`` and
        ``LIMIT`` (see ``docs/sparql_support.md``).  Evaluation is a
        streaming operator pipeline: ``LIMIT`` and ``ASK`` terminate early
        instead of materializing full answer sets.

        With ``reasoning`` (the default, and the paper's native mode) the
        engine uses LiteMat identifier intervals to answer concept and
        property hierarchy inferences at query time; without it only explicit
        triples are matched.

        Returns a :class:`~repro.sparql.bindings.ResultSet` for SELECT and a
        boolean-valued :class:`~repro.sparql.bindings.AskResult` for ASK.
        """
        from repro.query.engine import QueryEngine  # deferred: avoids an import cycle

        return QueryEngine(self, reasoning=reasoning).execute(query)

    # ------------------------------------------------------------------ #
    # storage accounting (evaluation Section 7.3.2)
    # ------------------------------------------------------------------ #

    def dictionary_size_in_bytes(self) -> int:
        """Serialised size of the three dictionaries (Figure 9)."""
        return (
            self.concepts.size_in_bytes()
            + self.properties.size_in_bytes()
            + self.instances.size_in_bytes()
        )

    def triple_storage_size_in_bytes(self) -> int:
        """Serialised size of the triple layouts, dictionaries excluded (Figure 10)."""
        return (
            self.object_store.size_in_bytes()
            + self.datatype_store.size_in_bytes()
            + self.type_store.size_in_bytes()
        )

    def memory_footprint_in_bytes(self) -> int:
        """Total in-memory footprint: dictionaries plus triple storage (Figure 11)."""
        return self.dictionary_size_in_bytes() + self.triple_storage_size_in_bytes()

    # ------------------------------------------------------------------ #
    # export helpers
    # ------------------------------------------------------------------ #

    def export_graph(self) -> Graph:
        """Rebuild a :class:`~repro.rdf.graph.Graph` of every stored triple."""
        graph = Graph()
        for triple in self.match(None, None, None):
            graph.add(triple)
        return graph

    def lubm_style_summary(self) -> Tuple[int, int, int]:
        """Triple counts per layout ``(object, datatype, rdf:type)``."""
        return len(self.object_store), len(self.datatype_store), len(self.type_store)
