"""Store builder: dictionaries, LiteMat encoding and triple partitioning.

The builder reproduces the construction pipeline of the paper's Figure 4:

1. the ontology is turned into an :class:`~repro.ontology.schema.OntologySchema`
   and LiteMat-encoded (concept and property dictionaries);
2. individuals receive sequential identifiers in the instance dictionary;
3. triples are partitioned into the three storage layouts — ``rdf:type``
   triples, object-property triples and datatype-property triples;
4. occurrence statistics are recorded for the query optimizer;
5. the SDS structures are built and wrapped into a
   :class:`~repro.store.succinct_edge.SuccinctEdge` instance.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.dictionary.literal_store import LiteralStore
from repro.dictionary.statistics import DictionaryStatistics, profile_triples
from repro.dictionary.term_dictionary import (
    ConceptDictionary,
    InstanceDictionary,
    PropertyDictionary,
)
from repro.ontology.litemat import LiteMatEncoder
from repro.ontology.schema import OntologySchema
from repro.rdf.graph import Graph
from repro.rdf.namespaces import (
    RDF_TYPE,
    RDFS_DOMAIN,
    RDFS_RANGE,
    RDFS_SUBCLASSOF,
    RDFS_SUBPROPERTYOF,
)
from repro.rdf.terms import Literal, URI
from repro.store.datatype_store import DatatypeTripleStore, EncodedDatatypeTriple
from repro.store.rdftype_store import EncodedTypeTriple, RDFTypeStore
from repro.store.triple_store import EncodedTriple, ObjectTripleStore

_SCHEMA_PREDICATES = {RDFS_SUBCLASSOF, RDFS_SUBPROPERTYOF, RDFS_DOMAIN, RDFS_RANGE}


def build_layouts(
    object_triples: Sequence[EncodedTriple],
    datatype_triples: Sequence[EncodedDatatypeTriple],
    type_triples: Sequence[EncodedTypeTriple],
    presorted: bool = False,
) -> Tuple[ObjectTripleStore, DatatypeTripleStore, RDFTypeStore]:
    """Build the three storage layouts from encoded triples.

    ``presorted`` promises that the object and datatype triples already come
    in layout order (a compaction snapshot, a subject-filtered slice of a
    built store), skipping their sort pass.  Each call gets its own literal
    store.
    """
    return (
        ObjectTripleStore(object_triples, presorted=presorted),
        DatatypeTripleStore(datatype_triples, LiteralStore(), presorted=presorted),
        RDFTypeStore(type_triples),
    )


class StoreBuilder:
    """Builds a :class:`~repro.store.succinct_edge.SuccinctEdge` from graphs.

    Parameters
    ----------
    ontology:
        Optional ontology graph (TBox).  Its hierarchy axioms drive the
        LiteMat encoding; in the paper's deployment this encoding happens on
        the central server and the resulting dictionaries are broadcast to
        the edge devices.
    include_schema_triples:
        When ``True``, schema triples found in the *data* graph are also
        stored as regular triples; by default they only feed the schema
        (LUBM's data files are pure ABox, like the paper's datasets).
    """

    def __init__(
        self,
        ontology: Optional[Graph] = None,
        include_schema_triples: bool = False,
    ) -> None:
        self.ontology = ontology
        self.include_schema_triples = include_schema_triples

    def build(self, data: Graph) -> "SuccinctEdge":
        """Build a fully-loaded SuccinctEdge instance from ``data``."""
        from repro.store.succinct_edge import SuccinctEdge  # deferred: avoids an import cycle

        schema = OntologySchema()
        if self.ontology is not None:
            schema = OntologySchema.from_graph(self.ontology)
        # One pass feeds schema axioms shipped inside the data graph into the
        # hierarchy AND collects the concepts/properties the data mentions.
        data_concepts, data_properties = self._collect_terms(
            data,
            schema=schema,
            include_schema_predicates=self.include_schema_triples,
        )
        encoder = LiteMatEncoder(schema)
        concept_encoding = encoder.encode_concepts(extra_concepts=data_concepts)
        property_encoding = encoder.encode_properties(extra_properties=data_properties)

        concepts = ConceptDictionary(concept_encoding)
        properties = PropertyDictionary(property_encoding)
        instances = InstanceDictionary()

        type_triples: List[Tuple[int, int]] = []
        object_triples: List[Tuple[int, int, int]] = []
        datatype_triples: List[Tuple[int, int, Literal]] = []
        skipped = 0

        for triple in data:
            subject, predicate, obj = triple
            if predicate in _SCHEMA_PREDICATES and not self.include_schema_triples:
                continue
            if predicate == RDF_TYPE:
                if not isinstance(obj, URI) or obj not in concepts:
                    skipped += 1
                    continue
                subject_id = instances.add(subject)
                concept_id = concepts.locate(obj)
                type_triples.append((subject_id, concept_id))
                concepts.record_occurrence(concept_id)
                instances.record_occurrence(subject_id)
                continue
            property_id = properties.locate(predicate)
            subject_id = instances.add(subject)
            properties.record_occurrence(property_id)
            instances.record_occurrence(subject_id)
            if isinstance(obj, Literal):
                datatype_triples.append((property_id, subject_id, obj))
            else:
                object_id = instances.add(obj)
                instances.record_occurrence(object_id)
                object_triples.append((property_id, subject_id, object_id))

        object_store, datatype_store, type_store = build_layouts(
            object_triples, datatype_triples, type_triples
        )
        statistics = DictionaryStatistics(concepts, properties, instances)
        # Join-aware statistics for the cost-based planner: one profiling
        # pass over the already-encoded triples (distinct subject/object
        # counts per property, characteristic sets per subject).
        profiles, characteristic_sets = profile_triples(
            object_triples, datatype_triples, type_triples
        )
        statistics.register_profiles(
            profiles, characteristic_sets, type_triple_count=len(type_triples)
        )

        return SuccinctEdge(
            schema=schema,
            concepts=concepts,
            properties=properties,
            instances=instances,
            object_store=object_store,
            datatype_store=datatype_store,
            type_store=type_store,
            statistics=statistics,
            skipped_triples=skipped,
        )

    @staticmethod
    def _collect_terms(
        data: Graph,
        schema: Optional[OntologySchema] = None,
        include_schema_predicates: bool = False,
    ) -> Tuple[List[URI], List[URI]]:
        """Concepts and properties mentioned by the data but maybe not declared.

        When ``schema`` is given, schema axioms found in the data graph are
        ingested into it during the same pass (the seed implementation walked
        the graph twice).
        """
        concepts: List[URI] = []
        seen_concepts = set()
        properties: List[URI] = []
        seen_properties = set()
        for triple in data:
            if triple.predicate in _SCHEMA_PREDICATES:
                if schema is not None:
                    schema._ingest(triple)  # noqa: SLF001 — builder is a friend of the schema
                if not include_schema_predicates:
                    continue
            if triple.predicate == RDF_TYPE:
                if isinstance(triple.object, URI) and triple.object not in seen_concepts:
                    seen_concepts.add(triple.object)
                    concepts.append(triple.object)
                continue
            if triple.predicate not in seen_properties:
                seen_properties.add(triple.predicate)
                properties.append(triple.predicate)
        return concepts, properties
