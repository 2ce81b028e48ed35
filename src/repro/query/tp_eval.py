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

Algorithms 3 and 4 answer one upstream binding at a time, as in the paper,
until a bind-join step has probed one run often enough to pay for decoding
it.  :meth:`TriplePatternEvaluator.evaluate_many` gives each step a
:class:`StepProbes` state that charges every probe of a run against the
run's size (a ski-rental rule); at the next probe of a run whose charge has
reached its size, the run is decoded once (``pairs_for_property`` /
``subjects_of_interval``) into an id-keyed bucket that answers that probe
and every later one.  Every store view yields those runs in PSO order, so
the bucketed answers come out in the probes' order.  Literal probes of the
datatype layout always stay on the probe path: decoding literal records
costs more than the probes it saves.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.rdf.namespaces import RDF_TYPE
from repro.rdf.terms import Literal, Term, URI
from repro.sparql.ast import TriplePattern, Variable
from repro.sparql.bindings import Binding
from repro.store.succinct_edge import SuccinctEdge

#: A resolved pattern slot: a constant term, or the name of an unbound variable.
_Slot = Tuple[Optional[Term], Optional[str]]

#: A matched type-membership probe: one hit, so it is charged like a found entry.
_MEMBER = (True,)


class StepProbes:
    """Run buckets of one bind-join step (one ``evaluate_many`` call).

    Every probe of a run is charged :attr:`PROBE_COST` plus :attr:`HIT_COST`
    per returned entry, in units of one decoded run entry.  A probe that
    finds its run's charge at or above the run's size decodes the run once
    into a bucket and answers from it, as does every later probe of the run
    (Karlin et al.'s ski rental: rent until the rent paid equals the price);
    an empty run is never decoded.
    The first probe of a run never builds — a step that probes once (one
    ``OPTIONAL`` per outer binding) never pays for a decode — and neither
    does the probe that crosses the threshold: the build waits for the next
    probe, which a ``LIMIT`` that is already satisfied never issues.

    The constants are calibrated in decoded PSO triples (5–11 µs each): an
    object-layout probe costs ~100 µs plus 24–95 µs per hit.  A
    type-membership probe (4.9 µs) is worth ~45 decoded rdf:type pairs
    (0.11 µs each), so it is charged the same and builds later than the
    break-even point.
    """

    PROBE_COST = 16
    HIT_COST = 8

    __slots__ = ("_charges", "_sizes", "_buckets")

    def __init__(self) -> None:
        self._charges: Dict[Hashable, int] = {}
        self._sizes: Dict[Hashable, int] = {}
        self._buckets: Dict[Hashable, dict] = {}

    def answer(
        self,
        key: Hashable,
        item: int,
        probe: Callable[[], Sequence],
        size: Callable[[], int],
        build: Callable[[], dict],
    ) -> Sequence:
        """Answer the probe for ``item`` of run ``key``.

        ``probe()`` is the per-binding store call; ``size()`` counts the
        run's entries; ``build()`` decodes the run into a bucket mapping
        each probed id to what ``probe()`` would return for it.
        """
        bucket = self._buckets.get(key)
        if bucket is None:
            charge = self._charges.get(key)
            if charge is None or not 0 < self._run_size(key, size) <= charge:
                found = probe()
                self._charges[key] = (charge or 0) + self.PROBE_COST + self.HIT_COST * len(found)
                return found
            bucket = self._buckets[key] = build()
        return bucket.get(item, ())

    def _run_size(self, key: Hashable, size: Callable[[], int]) -> int:
        known = self._sizes.get(key)
        if known is None:
            known = self._sizes[key] = size()
        return known


def _group_pairs(pairs: Iterable[Tuple[int, int]]) -> Dict[int, List[int]]:
    """Bucket ``(key, value)`` pairs by key; each value list keeps the pairs' order."""
    bucket: Dict[int, List[int]] = {}
    for key, value in pairs:
        found = bucket.get(key)
        if found is None:
            bucket[key] = [value]
        else:
            found.append(value)
    return bucket


class TriplePatternEvaluator:
    """Evaluates triple patterns against a :class:`SuccinctEdge` store."""

    def __init__(self, store: SuccinctEdge, reasoning: bool = True) -> None:
        self.store = store
        self.reasoning = reasoning

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #

    def evaluate(
        self,
        pattern: TriplePattern,
        binding: Binding,
        probes: Optional[StepProbes] = None,
    ) -> Iterator[Binding]:
        """Yield the bindings extending ``binding`` that satisfy ``pattern``.

        ``probes`` is the run-bucket state of the bind-join step this
        binding belongs to (see :meth:`evaluate_many`); without it the
        binding gets a fresh state, so every probe goes to the store.
        """
        if probes is None:
            probes = StepProbes()
        subject = self._resolve(pattern.subject, binding)
        predicate = self._resolve(pattern.predicate, binding)
        obj = self._resolve(pattern.object, binding)

        predicate_term, predicate_var = predicate
        if predicate_term is None:
            yield from self._evaluate_unbound_predicate(subject, predicate_var, obj, binding, probes)
            return
        if not isinstance(predicate_term, URI):
            return
        if predicate_term == RDF_TYPE:
            yield from self._evaluate_rdf_type(subject, obj, binding, probes)
            return
        yield from self._evaluate_property(predicate_term, subject, obj, binding, probes)

    def evaluate_all(self, pattern: TriplePattern) -> List[Binding]:
        """Evaluate ``pattern`` with no initial binding (convenience for tests)."""
        return list(self.evaluate(pattern, Binding()))

    def evaluate_many(
        self, pattern: TriplePattern, bindings: Iterable[Binding]
    ) -> Iterator[Binding]:
        """Stream the bind-propagation join of ``bindings`` with ``pattern``.

        Pulls one upstream binding at a time, propagates it into the pattern
        (one batched SDS probe, or a read of the step's run bucket once the
        probes have paid for one — see :class:`StepProbes`) and yields the
        extensions before touching the next upstream binding — the primitive
        the streaming pipeline's ``LIMIT``/``ASK`` early termination relies
        on: upstream bindings the consumer never asks about are never probed.
        """
        probes = StepProbes()
        for binding in bindings:
            yield from self.evaluate(pattern, binding, probes=probes)

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
        self,
        subject: _Slot,
        obj: _Slot,
        binding: Binding,
        probes: StepProbes,
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
                if self.reasoning:
                    low, high = store.concepts.interval(object_term)
                else:
                    low, high = concept_id, concept_id + 1
                type_store = store.type_store
                matched = probes.answer(
                    ("type", low, high),
                    subject_id,
                    lambda: (
                        _MEMBER
                        if any(low <= c < high for c in type_store.concepts_of(subject_id))
                        else ()
                    ),
                    lambda: type_store.count_concept_interval(low, high),
                    lambda: dict.fromkeys(type_store.subjects_of_interval(low, high), _MEMBER),
                )
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
        the predicate's LiteMat interval — obtained with two bisections of
        the property layer per layout, the paper's interval optimization.
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
        probes: StepProbes,
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
                for object_id in self._objects_for(subject_id, property_id, probes):
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
                    found_subjects = self._subjects_for(property_id, object_id, probes)
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

    def _objects_for(self, subject_id: int, property_id: int, probes: StepProbes) -> Sequence[int]:
        """Algorithm 3 on the object layout, or the step's subject-keyed run bucket."""
        object_store = self.store.object_store
        return probes.answer(
            ("objects", property_id),
            subject_id,
            lambda: object_store.objects_for(subject_id, property_id),
            lambda: object_store.count_triples_with_property(property_id),
            lambda: _group_pairs(object_store.pairs_for_property(property_id)),
        )

    def _subjects_for(self, property_id: int, object_id: int, probes: StepProbes) -> Sequence[int]:
        """Algorithm 4 on the object layout, or the step's object-keyed run bucket."""
        object_store = self.store.object_store
        return probes.answer(
            ("subjects", property_id),
            object_id,
            lambda: object_store.subjects_for(property_id, object_id),
            lambda: object_store.count_triples_with_property(property_id),
            lambda: _group_pairs(
                (obj, subject) for subject, obj in object_store.pairs_for_property(property_id)
            ),
        )

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
        probes: StepProbes,
    ) -> Iterator[Binding]:
        store = self.store
        # rdf:type triples first.
        for extended in self._evaluate_rdf_type(subject, obj, binding, probes):
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
            for extended in self._evaluate_property(
                predicate, subject, obj, binding, probes, expand=False
            ):
                result = self._emit(extended, [(predicate_var, predicate)])
                if result is not None:
                    yield result
