"""Triple-pattern evaluation over the SuccinctEdge layouts.

This module turns one triple pattern plus a partial solution binding into the
SDS operations of the paper's Section 5.2:

* ``(s, p, ?o)`` — Algorithm 3 (``ObjectTripleStore.objects_for`` /
  ``DatatypeTripleStore.literals_for``);
* ``(?s, p, o)`` — Algorithm 4 (``subjects_for``);
* ``(?s, p, ?o)`` — a property-run scan (``pairs_for_property``);
* ``rdf:type`` patterns — binary-searched pair-run lookups in the RDFType store;
* reasoning — the constant predicate/concept is replaced by its LiteMat
  identifier interval, so concept and property hierarchies are answered
  without materialisation or UNION rewriting.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Tuple

from repro.rdf.namespaces import RDF_TYPE
from repro.rdf.terms import Literal, Term, URI
from repro.sparql.ast import TriplePattern, Variable
from repro.sparql.bindings import Binding
from repro.store.succinct_edge import SuccinctEdge

#: A resolved pattern slot: a constant term, or the name of an unbound variable.
_Slot = Tuple[Optional[Term], Optional[str]]


class TriplePatternEvaluator:
    """Evaluates triple patterns against a :class:`SuccinctEdge` store."""

    def __init__(self, store: SuccinctEdge, reasoning: bool = True) -> None:
        self.store = store
        self.reasoning = reasoning

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #

    def evaluate(self, pattern: TriplePattern, binding: Binding) -> Iterator[Binding]:
        """Yield the bindings extending ``binding`` that satisfy ``pattern``."""
        subject = self._resolve(pattern.subject, binding)
        predicate = self._resolve(pattern.predicate, binding)
        obj = self._resolve(pattern.object, binding)

        predicate_term, predicate_var = predicate
        if predicate_term is None:
            yield from self._evaluate_unbound_predicate(subject, predicate_var, obj, binding)
            return
        if not isinstance(predicate_term, URI):
            return
        if predicate_term == RDF_TYPE:
            yield from self._evaluate_rdf_type(subject, obj, binding)
            return
        yield from self._evaluate_property(predicate_term, subject, obj, binding)

    def evaluate_all(self, pattern: TriplePattern) -> List[Binding]:
        """Evaluate ``pattern`` with no initial binding (convenience for tests)."""
        return list(self.evaluate(pattern, Binding()))

    def evaluate_many(
        self, pattern: TriplePattern, bindings: Iterable[Binding]
    ) -> Iterator[Binding]:
        """Stream the bind-propagation join of ``bindings`` with ``pattern``.

        Pulls one upstream binding at a time, propagates it into the pattern
        (one batched SDS probe) and yields the extensions before touching the
        next upstream binding — the primitive the streaming pipeline's
        ``LIMIT``/``ASK`` early termination relies on: upstream bindings the
        consumer never asks about are never probed.
        """
        for binding in bindings:
            yield from self.evaluate(pattern, binding)

    def expand_frontier(self, forward_pids, inverse_pids, frontier_ids, frontier_literals):
        """One property-path BFS round against this evaluator's store.

        The sequential implementation of the hook the parallel / process /
        cluster executors override to scatter per-shard frontier expansion
        (see :func:`repro.query.paths.expand_frontier_local`).
        """
        from repro.query.paths import expand_frontier_local

        return expand_frontier_local(
            self.store, forward_pids, inverse_pids, frontier_ids, frontier_literals
        )

    def estimate_cardinality(self, pattern: TriplePattern) -> int:
        """Run-time cardinality estimate computed on the SDS structures.

        For a constant, non-``rdf:type`` predicate this is Algorithm 2
        (two ``select`` calls per layout); for ``rdf:type`` patterns it counts
        the pair-run range.
        """
        predicate = pattern.predicate
        if isinstance(predicate, Variable):
            return self.store.triple_count
        if pattern.is_rdf_type:
            if isinstance(pattern.object, URI):
                concept_id = self.store.concepts.try_locate(pattern.object)
                if concept_id is None:
                    return 0
                if self.reasoning:
                    low, high = self.store.concepts.interval(pattern.object)
                    return self.store.type_store.count_concept_interval(low, high)
                return self.store.type_store.count_concept(concept_id)
            return len(self.store.type_store)
        total = 0
        for property_id in self._candidate_property_ids(predicate):
            total += self.store.object_store.count_triples_with_property(property_id)
            total += self.store.datatype_store.count_triples_with_property(property_id)
        return total

    # ------------------------------------------------------------------ #
    # slot resolution
    # ------------------------------------------------------------------ #

    @staticmethod
    def _resolve(slot, binding: Binding) -> _Slot:
        if isinstance(slot, Variable):
            bound = binding.get(slot.name)
            if bound is None:
                return None, slot.name
            return bound, None
        return slot, None

    def _emit(
        self,
        binding: Binding,
        assignments: List[Tuple[Optional[str], Term]],
    ) -> Optional[Binding]:
        """Extend ``binding`` with variable assignments, checking consistency."""
        current = binding
        for name, value in assignments:
            if name is None:
                continue
            existing = current.get(name)
            if existing is not None:
                if existing != value:
                    return None
                continue
            current = current.extended(name, value)
        return current

    # ------------------------------------------------------------------ #
    # rdf:type patterns (RDFType store)
    # ------------------------------------------------------------------ #

    def _evaluate_rdf_type(
        self, subject: _Slot, obj: _Slot, binding: Binding
    ) -> Iterator[Binding]:
        subject_term, subject_var = subject
        object_term, object_var = obj
        store = self.store

        if object_term is not None:
            if not isinstance(object_term, URI):
                return
            concept_id = store.concepts.try_locate(object_term)
            if concept_id is None:
                return
            if subject_term is not None:
                # Fully bound: a membership check through the SO access path.
                subject_id = store.instances.try_locate(subject_term)
                if subject_id is None:
                    return
                stored_concepts = store.type_store.concepts_of(subject_id)
                if self.reasoning:
                    low, high = store.concepts.interval(object_term)
                    matched = any(low <= stored < high for stored in stored_concepts)
                else:
                    matched = concept_id in stored_concepts
                if matched:
                    extended = self._emit(binding, [])
                    if extended is not None:
                        yield extended
                return
            if self.reasoning:
                low, high = store.concepts.interval(object_term)
                subjects = store.type_store.subjects_of_interval(low, high)
            else:
                subjects = store.type_store.subjects_of(concept_id)
            # ``subject_var`` is guaranteed unbound here (a bound variable
            # resolves to a term), so each result extends the binding directly.
            extract = store.instances.extract
            extend = binding.extended
            for subject_id in subjects:
                yield extend(subject_var, extract(subject_id))
            return

        # Object is an unbound variable: enumerate concepts.
        if subject_term is not None:
            subject_id = store.instances.try_locate(subject_term)
            if subject_id is None:
                return
            extend = binding.extended
            for concept in self._concepts_of_subject(subject_id):
                yield extend(object_var, concept)
            return

        extract = store.instances.extract
        base = binding.as_dict()
        adopt = Binding._adopt
        diagonal = subject_var == object_var
        for subject_id, concept_id in store.type_store.iter_triples():
            subject_value = extract(subject_id)
            for concept in self._expand_concept(concept_id):
                if diagonal:
                    if subject_value == concept:
                        yield binding.extended(subject_var, subject_value)
                    continue
                values = dict(base)
                values[subject_var] = subject_value
                values[object_var] = concept
                yield adopt(values)

    def _concepts_of_subject(self, subject_id: int) -> List[URI]:
        concepts: List[URI] = []
        seen = set()
        for concept_id in self.store.type_store.concepts_of(subject_id):
            for concept in self._expand_concept(concept_id):
                if concept not in seen:
                    seen.add(concept)
                    concepts.append(concept)
        return concepts

    def _expand_concept(self, concept_id: int) -> List[URI]:
        """The stored concept, plus its super-concepts when reasoning is on."""
        concept = self.store.concepts.extract(concept_id)
        if not isinstance(concept, URI):
            return []
        if not self.reasoning:
            return [concept]
        return self.store.schema.superconcepts(concept, include_self=True)

    # ------------------------------------------------------------------ #
    # object / datatype property patterns (PSO layouts)
    # ------------------------------------------------------------------ #

    def _candidate_property_ids(self, predicate: URI) -> List[int]:
        """Property identifiers to probe for ``predicate``.

        Without reasoning this is the single identifier of the predicate.
        With reasoning it is every *stored* property whose identifier falls in
        the predicate's LiteMat interval — obtained with one wavelet-matrix
        symbol-range probe per layout, the paper's interval optimization.
        ``properties_in_interval`` is a store-level method so that the same
        pattern evaluation works over both a pure succinct base and the
        base+delta overlay view (``repro.store.delta``).
        """
        store = self.store
        property_id = store.properties.try_locate(predicate)
        if not self.reasoning:
            return [] if property_id is None else [property_id]
        if predicate not in store.properties:
            return []
        low, high = store.properties.interval(predicate)
        present = set(store.object_store.properties_in_interval(low, high))
        present.update(store.datatype_store.properties_in_interval(low, high))
        return sorted(present)

    def _evaluate_property(
        self,
        predicate: URI,
        subject: _Slot,
        obj: _Slot,
        binding: Binding,
        expand: bool = True,
    ) -> Iterator[Binding]:
        subject_term, subject_var = subject
        object_term, object_var = obj
        store = self.store

        subject_id: Optional[int] = None
        if subject_term is not None:
            if isinstance(subject_term, Literal):
                return
            subject_id = store.instances.try_locate(subject_term)
            if subject_id is None:
                return

        if expand:
            property_ids = self._candidate_property_ids(predicate)
        else:
            single = store.properties.try_locate(predicate)
            property_ids = [] if single is None else [single]
        extract = store.instances.extract
        extend = binding.extended
        for property_id in property_ids:
            if subject_id is not None and object_term is not None:
                if self._contains(property_id, subject_id, object_term):
                    extended = self._emit(binding, [])
                    if extended is not None:
                        yield extended
                continue
            if subject_id is not None:
                # (s, p, ?o): Algorithm 3 on the object layout, plus the flat
                # literal run of the datatype layout.  Each store call
                # materialises its whole answer run in batched kernel calls;
                # ``object_var`` is guaranteed unbound (a bound variable
                # would have been resolved to a term), so the bindings are
                # extended directly.
                for object_id in store.object_store.objects_for(subject_id, property_id):
                    yield extend(object_var, extract(object_id))
                for literal in store.datatype_store.literals_for(subject_id, property_id):
                    yield extend(object_var, literal)
                continue
            if object_term is not None:
                # (?s, p, o): Algorithm 4, one batched reverse lookup.
                if isinstance(object_term, Literal):
                    found_subjects = store.datatype_store.subjects_for(property_id, object_term)
                else:
                    object_id = store.instances.try_locate(object_term)
                    if object_id is None:
                        continue
                    found_subjects = store.object_store.subjects_for(property_id, object_id)
                for found_subject in found_subjects:
                    yield extend(subject_var, extract(found_subject))
                continue
            # (?s, p, ?o): materialise the property run of both layouts with
            # one batched scan each.  The same variable may fill both slots
            # (``?x p ?x``), in which case only diagonal pairs match.
            diagonal = subject_var == object_var
            base = binding.as_dict()
            adopt = Binding._adopt
            for found_subject, found_object in store.object_store.pairs_for_property(property_id):
                if diagonal:
                    if found_subject == found_object:
                        yield extend(subject_var, extract(found_subject))
                    continue
                values = dict(base)
                values[subject_var] = extract(found_subject)
                values[object_var] = extract(found_object)
                yield adopt(values)
            for found_subject, literal in store.datatype_store.pairs_for_property(property_id):
                if diagonal:
                    continue  # a subject URI never equals a literal
                values = dict(base)
                values[subject_var] = extract(found_subject)
                values[object_var] = literal
                yield adopt(values)

    def _contains(self, property_id: int, subject_id: int, object_term: Term) -> bool:
        if isinstance(object_term, Literal):
            return object_term in self.store.datatype_store.literals_for(subject_id, property_id)
        object_id = self.store.instances.try_locate(object_term)
        if object_id is None:
            return False
        return self.store.object_store.contains(subject_id, property_id, object_id)

    # ------------------------------------------------------------------ #
    # unbound predicate (rare in the paper's workloads)
    # ------------------------------------------------------------------ #

    def _evaluate_unbound_predicate(
        self,
        subject: _Slot,
        predicate_var: Optional[str],
        obj: _Slot,
        binding: Binding,
    ) -> Iterator[Binding]:
        store = self.store
        # rdf:type triples first.
        for extended in self._evaluate_rdf_type(subject, obj, binding):
            result = self._emit(extended, [(predicate_var, RDF_TYPE)])
            if result is not None:
                yield result
        # Every stored property across both layouts.
        property_ids = sorted(
            set(store.object_store.properties) | set(store.datatype_store.properties)
        )
        for property_id in property_ids:
            predicate = store.properties.extract(property_id)
            if not isinstance(predicate, URI):
                continue
            # The variable binds to the *stored* predicate, so no hierarchy
            # expansion happens here (each stored property matches itself).
            for extended in self._evaluate_property(predicate, subject, obj, binding, expand=False):
                result = self._emit(extended, [(predicate_var, predicate)])
                if result is not None:
                    yield result
