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

Solutions stay ids.  Each step is compiled once (:class:`_Step`), and the
object-layout and type-store hits extend the binding's row with their
instance ids, undecoded; a later step reads a bound id column and probes
with it directly.  Ids decode only where an operator reads the value or at
the response encoder (see :mod:`repro.sparql.bindings`).
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.rdf.namespaces import RDF_TYPE
from repro.rdf.terms import Literal, Term, URI
from repro.sparql.ast import TriplePattern, Variable
from repro.sparql.bindings import Binding, Layout
from repro.store.succinct_edge import SuccinctEdge

#: A resolved pattern slot: a constant term, or the name of an unbound variable.
_Slot = Tuple[Optional[Term], Optional[str]]

#: A matched type-membership probe: one hit, so it is charged like a found entry.
_MEMBER = (True,)

#: What a step's predicate classifies as when it is ``rdf:type``.
_TYPE = object()


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

    The constants are in units of one decoded PSO triple.  Measured on the
    mapped LUBM-10 image (shared 2-core host), a decoded triple costs
    ~0.5 µs and an object-layout probe 5–8 µs plus ~0.02 µs per hit, so
    :attr:`PROBE_COST` matches a probe and :attr:`HIT_COST` over-charges
    hits.  A type-membership probe (2.6 µs) is worth ~45 decoded rdf:type
    pairs (0.06 µs each), so it is charged the same and builds later than
    the break-even point.
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

        The compiled step of :meth:`evaluate_many`, run on one binding.
        ``probes`` is the run-bucket state of the bind-join step this
        binding belongs to; without it the binding gets a fresh state, so
        every probe goes to the store.
        """
        return iter(_Step(self, pattern, probes or StepProbes()).run(binding))

    def evaluate_all(self, pattern: TriplePattern) -> List[Binding]:
        """Evaluate ``pattern`` with no initial binding (convenience for tests)."""
        return list(self.evaluate(pattern, Binding()))

    def evaluate_many(
        self, pattern: TriplePattern, bindings: Iterable[Binding]
    ) -> Iterator[Binding]:
        """Stream the bind-propagation join of ``bindings`` with ``pattern``.

        Compiles the step once (:class:`_Step`), then pulls one upstream
        binding at a time, propagates it into the pattern (one batched SDS
        probe, or a read of the step's run bucket once the probes have paid
        for one — see :class:`StepProbes`) and yields the extensions before
        touching the next upstream binding — the primitive the streaming
        pipeline's ``LIMIT``/``ASK`` early termination relies on: upstream
        bindings the consumer never asks about are never probed.
        """
        run = _Step(self, pattern, StepProbes()).run
        for binding in bindings:
            yield from run(binding)

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

    @staticmethod
    def _resolve(slot, binding: Binding) -> _Slot:
        """A pattern slot as ``(term, None)`` when bound, ``(None, name)`` when not."""
        if isinstance(slot, Variable):
            bound = binding.get(slot.name)
            if bound is None:
                return None, slot.name
            return bound, None
        return slot, None

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


def _emit(binding: Binding, name: str, value: Term) -> Optional[Binding]:
    """``binding`` with ``name`` bound to ``value``; ``None`` if it holds another value."""
    existing = binding.get(name)
    if existing is None:
        return binding.extended(name, value)
    return binding if existing == value else None


class _Step:
    """One triple pattern compiled for one bind-join step.

    Resolved once per step, not once per binding: the instance ids of the
    constant subject and object, each predicate's candidate property ids,
    each class's concept id and LiteMat interval, and — per input
    :class:`~repro.sparql.bindings.Layout` — the columns that bind the
    pattern's variables.  A bound instance id is probed with as is, a bound
    term is located first; object-layout and type-store hits extend the row
    with their ids, literals, concepts and predicates with terms.
    """

    def __init__(self, evaluator: TriplePatternEvaluator, pattern: TriplePattern, probes: StepProbes) -> None:
        self.evaluator = evaluator
        self.store = evaluator.store
        self.instances = self.store.instances
        self.probes = probes
        self._property_ids: Dict[Term, List[int]] = {}
        self._concepts: Dict[Term, Optional[Tuple[int, int, int]]] = {}
        self._predicate = self._class = None  # a constant predicate / class, resolved
        self._layouts: Dict[Layout, tuple] = {}
        predicate = pattern.predicate
        # A constant object is an instance only under a constant property.
        object_is_instance = isinstance(predicate, URI) and predicate != RDF_TYPE
        self._slots = (
            self._constant(pattern.subject, True),
            self._constant(predicate, False),
            self._constant(pattern.object, object_is_instance),
        )
        if not isinstance(predicate, Variable):
            self._predicate = self._classify(predicate)
        if not (isinstance(pattern.object, Variable) or isinstance(self._predicate, list)):
            self._class = self._concept(pattern.object)

    def _constant(self, slot, instance: bool):
        """A variable's name, or ``(constant,)`` (its instance id when it has one)."""
        if isinstance(slot, Variable):
            return slot.name
        found = self.instances.try_locate(slot) if instance and not isinstance(slot, Literal) else None
        return (slot if found is None else found,)

    def _compile(self, layout: Layout) -> tuple:
        """``layout`` owned by the instance dictionary, then per slot
        ``(constant, column, variable)``; ``()`` for ids of another dictionary."""
        owned = layout.owned(self.instances)
        if owned is None:
            return ()
        columns = layout.columns
        compiled = self._layouts[layout] = (owned,) + tuple([
            (slot[0], None, None) if slot.__class__ is tuple
            else (None, columns[slot], None) if slot in columns
            else (None, None, slot)
            for slot in self._slots
        ])
        return compiled

    def run(self, binding: Binding) -> Iterable[Binding]:
        """The extensions of ``binding`` that satisfy the pattern."""
        layout = binding.layout
        compiled = self._layouts.get(layout) or self._compile(layout)
        if not compiled:  # ids of another store's dictionary: go by the terms
            return self.run(Binding(binding.as_dict()))
        owned, (subject, s_column, subject_var), (predicate, p_column, predicate_var), slot = compiled
        obj, o_column, object_var = slot
        row = binding.row
        if owned is not layout:
            binding = Binding.of(owned, row)
        if s_column is not None:
            subject = row[s_column]
        if o_column is not None:
            obj = row[o_column]
        if p_column is not None:
            predicate = row[p_column]
            kind = self._classify(self.instances.extract(predicate) if predicate.__class__ is int else predicate)
        elif predicate is None:
            return self._unbound_predicate(binding, subject, subject_var, predicate_var, obj, object_var)
        else:
            kind = self._predicate
        if kind is _TYPE:
            concept = self._class if o_column is None else self._concept(obj)
            return self._rdf_type(binding, subject, subject_var, concept, object_var)
        return self._property(binding, kind, subject, subject_var, obj, object_var) if kind else ()

    def _classify(self, predicate: Term):
        """:data:`_TYPE` for rdf:type, else the predicate's candidate property ids."""
        if predicate == RDF_TYPE:
            return _TYPE
        if not isinstance(predicate, URI):
            return []
        found = self._property_ids.get(predicate)
        if found is None:
            found = self._property_ids[predicate] = self.evaluator._candidate_property_ids(predicate)
        return found

    def _instance_id(self, value) -> Optional[int]:
        """The instance id of a bound subject/object value (``None`` if it has none)."""
        if value.__class__ is int:
            return value
        return None if isinstance(value, Literal) else self.instances.try_locate(value)

    # ------------------------------------------------------------------ #
    # rdf:type patterns (RDFType store)
    # ------------------------------------------------------------------ #

    def _concept(self, term) -> Optional[Tuple[int, int, int]]:
        """``(concept id, low, high)``: the id and the interval a class matches."""
        if term.__class__ is int:
            term = self.instances.extract(term)
        if term not in self._concepts:
            concepts, found = self.store.concepts, None
            concept_id = concepts.try_locate(term) if isinstance(term, URI) else None
            if concept_id is not None:
                if self.evaluator.reasoning:
                    found = (concept_id, *concepts.interval(term))
                else:
                    found = (concept_id, concept_id, concept_id + 1)
            self._concepts[term] = found
        return self._concepts[term]

    def _rdf_type(self, binding: Binding, subject, subject_var, concept, object_var) -> Iterator[Binding]:
        """``concept`` is the bound class's ``(id, low, high)``, or ``None``."""
        type_store = self.store.type_store
        if object_var is None:
            if concept is None:
                return
            concept_id, low, high = concept
            if subject is not None:
                # Fully bound: a membership check through the SO access path.
                subject_id = self._instance_id(subject)
                if subject_id is None:
                    return
                matched = self.probes.answer(
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
                    yield binding
                return
            if self.evaluator.reasoning:
                subjects = type_store.subjects_of_interval(low, high)
            else:
                subjects = type_store.subjects_of(concept_id)
            # ``subject_var`` is unbound here (a bound variable resolves to a
            # value), so each subject id extends the row directly.
            of, child, row = Binding.of, binding.layout.child(subject_var), binding.row
            for subject_id in subjects:
                yield of(child, row + (subject_id,))
            return

        # Object is an unbound variable: enumerate concepts.
        if subject is not None:
            subject_id = self._instance_id(subject)
            if subject_id is None:
                return
            extend = binding.extended
            for concept in self.evaluator._concepts_of_subject(subject_id):
                yield extend(object_var, concept)
            return

        if subject_var == object_var:
            # ``?x rdf:type ?x``: an individual that is its own class.
            extract, expand = self.instances.extract, self.evaluator._expand_concept
            for subject_id, concept_id in type_store.iter_triples():
                subject_value = extract(subject_id)
                if subject_value in expand(concept_id):
                    yield binding.extended(subject_var, subject_value)
            return
        of, row = Binding.of, binding.row
        pair = binding.layout.child(subject_var).child(object_var)
        expand = self.evaluator._expand_concept
        for subject_id, concept_id in type_store.iter_triples():
            for concept in expand(concept_id):
                yield of(pair, row + (subject_id, concept))

    # ------------------------------------------------------------------ #
    # object / datatype property patterns (PSO layouts)
    # ------------------------------------------------------------------ #

    def _property(
        self, binding: Binding, property_ids: List[int], subject, subject_var, obj, object_var
    ) -> Iterator[Binding]:
        store = self.store
        subject_id: Optional[int] = None
        if subject is not None:
            subject_id = self._instance_id(subject)
            if subject_id is None:
                return
        object_id = None
        if obj is not None and not isinstance(obj, Literal):
            object_id = self._instance_id(obj)
        of, row, layout = Binding.of, binding.row, binding.layout
        for property_id in property_ids:
            if subject_id is not None and obj is not None:
                if object_id is not None:
                    found = store.object_store.contains(subject_id, property_id, object_id)
                else:
                    found = isinstance(obj, Literal) and obj in store.datatype_store.literals_for(
                        subject_id, property_id
                    )
                if found:
                    yield binding
                continue
            if subject_id is not None:
                # (s, p, ?o): Algorithm 3 on the object layout, plus the flat
                # literal run of the datatype layout.  Each store call
                # materialises its whole answer run in batched kernel calls;
                # ``object_var`` is unbound (a bound variable would have
                # resolved to a value), so the row is extended directly.
                child = layout.child(object_var)
                for found_object in self._objects_for(subject_id, property_id):
                    yield of(child, row + (found_object,))
                for literal in store.datatype_store.literals_for(subject_id, property_id):
                    yield of(child, row + (literal,))
                continue
            if obj is not None:
                # (?s, p, o): Algorithm 4, one batched reverse lookup.
                if isinstance(obj, Literal):
                    found_subjects = store.datatype_store.subjects_for(property_id, obj)
                elif object_id is None:
                    continue
                else:
                    found_subjects = self._subjects_for(property_id, object_id)
                child = layout.child(subject_var)
                for found_subject in found_subjects:
                    yield of(child, row + (found_subject,))
                continue
            # (?s, p, ?o): materialise the property run of both layouts with
            # one batched scan each.  The same variable may fill both slots
            # (``?x p ?x``), in which case only diagonal pairs match.
            if subject_var == object_var:
                child = layout.child(subject_var)
                for found_subject, found_object in store.object_store.pairs_for_property(property_id):
                    if found_subject == found_object:
                        yield of(child, row + (found_subject,))
                continue  # a subject URI never equals a literal
            pair = layout.child(subject_var).child(object_var)
            for found_subject, found_object in store.object_store.pairs_for_property(property_id):
                yield of(pair, row + (found_subject, found_object))
            for found_subject, literal in store.datatype_store.pairs_for_property(property_id):
                yield of(pair, row + (found_subject, literal))

    def _objects_for(self, subject_id: int, property_id: int) -> Sequence[int]:
        """Algorithm 3 on the object layout, or the step's subject-keyed run bucket."""
        object_store = self.store.object_store
        return self.probes.answer(
            ("objects", property_id),
            subject_id,
            lambda: object_store.objects_for(subject_id, property_id),
            lambda: object_store.count_triples_with_property(property_id),
            lambda: _group_pairs(object_store.pairs_for_property(property_id)),
        )

    def _subjects_for(self, property_id: int, object_id: int) -> Sequence[int]:
        """Algorithm 4 on the object layout, or the step's object-keyed run bucket."""
        object_store = self.store.object_store
        return self.probes.answer(
            ("subjects", property_id),
            object_id,
            lambda: object_store.subjects_for(property_id, object_id),
            lambda: object_store.count_triples_with_property(property_id),
            lambda: _group_pairs(
                (obj, subject) for subject, obj in object_store.pairs_for_property(property_id)
            ),
        )

    # ------------------------------------------------------------------ #
    # unbound predicate (rare in the paper's workloads)
    # ------------------------------------------------------------------ #

    def _unbound_predicate(
        self, binding: Binding, subject, subject_var, predicate_var: str, obj, object_var
    ) -> Iterator[Binding]:
        store = self.store
        # rdf:type triples first.
        concept = None if obj is None else self._concept(obj)
        for extended in self._rdf_type(binding, subject, subject_var, concept, object_var):
            result = _emit(extended, predicate_var, RDF_TYPE)
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
            for extended in self._property(
                binding, [property_id], subject, subject_var, obj, object_var
            ):
                result = _emit(extended, predicate_var, predicate)
                if result is not None:
                    yield result
