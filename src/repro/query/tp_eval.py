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

A bind-join step takes batches of upstream rows
(:class:`~repro.sparql.bindings.Batch`) and walks each batch's rows in
order.  Algorithms 3 and 4 answer one bound id at a time, as in the paper —
once per batch for an id that several rows bind — until the step has probed
one run often enough to pay for decoding it.
:meth:`TriplePatternEvaluator.evaluate_many` gives each step a
:class:`StepProbes` state that charges every probe of a run against the
run's size (a ski-rental rule); at the next probe of a run whose charge has
reached its size, the run is decoded once (``pairs_for_property`` /
``subjects_of_interval``) into an id-keyed bucket that answers that probe
and every later one; once every run a step reads has its bucket, a batch
of bound ids is answered in one pass over the buckets.  Every store view
yields those runs in PSO order, so the bucketed answers come out in the
probes' order.  Literal probes of the
datatype layout always stay on the probe path: decoding literal records
costs more than the probes it saves.

Solutions stay ids.  Each step is compiled once (:class:`_Step`), and the
object-layout and type-store hits extend the row with their instance ids,
undecoded; a later step reads a bound id column and probes with it
directly.  Ids decode only where an operator reads the value or at the
response encoder (see :mod:`repro.sparql.bindings`).
"""

from __future__ import annotations

from itertools import chain, compress, islice
from operator import itemgetter
from typing import Callable, Dict, Hashable, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.rdf.namespaces import RDF_TYPE
from repro.rdf.terms import Literal, Term, URI
from repro.sparql.ast import TriplePattern, Variable
from repro.sparql.bindings import BATCH_ROWS, Batch, Binding, Layout, grow, rows
from repro.store.succinct_edge import SuccinctEdge

#: A resolved pattern slot: a constant term, or the name of an unbound variable.
_Slot = Tuple[Optional[Term], Optional[str]]

#: A matched type-membership probe: one hit, so it is charged like a found entry.
_MEMBER = (True,)

#: What a step's predicate classifies as when it is ``rdf:type``.
_TYPE = object()

#: The value types of a bound column that holds instance ids only.
_INT = {int}

#: Rows answered per list from run buckets: a bound id can have thousands
#: of matches, and a batch's whole answer at once would sit in memory.
_CHUNK = 16


class StepProbes:
    """Run buckets of one bind-join step, over all the batches it runs on.

    The step asks once per batch for each run and id its rows bind, so a
    probe here is one distinct id of one batch.

    Every probe of a run is charged :attr:`PROBE_COST` plus :attr:`HIT_COST`
    per returned entry, in units of one decoded run entry.  A probe that
    finds its run's charge at or above the run's size decodes the run once
    into a bucket and answers from it, as does every later probe of the run
    (Karlin et al.'s ski rental: rent until the rent paid equals the price);
    an empty run is never decoded.
    The first probe of a run never builds — a step that probes once never
    pays for a decode — and neither does the probe that crosses the
    threshold: the build waits for the next probe, which a ``LIMIT`` that is
    already satisfied never issues.  An ``OPTIONAL`` group's steps keep one
    state for the whole query, over every outer batch they run on.

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

    def bucket(self, key: Hashable) -> Optional[dict]:
        """The run's bucket, ``{}`` for a run known to be empty, ``None`` before either."""
        found = self._buckets.get(key)
        return {} if found is None and self._sizes.get(key) == 0 else found

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

        The compiled step of :meth:`evaluate_many`, run on a one-row batch.
        ``probes`` is the run-bucket state of the bind-join step this
        binding belongs to; without it the binding gets a fresh state, so
        every probe goes to the store.
        """
        step = _Step(self, pattern, probes or StepProbes())
        return rows(step.run(Batch(binding.layout, [binding.row])))

    def evaluate_all(self, pattern: TriplePattern) -> List[Binding]:
        """Evaluate ``pattern`` with no initial binding (convenience for tests)."""
        return list(self.evaluate(pattern, Binding()))

    def evaluate_many(
        self,
        pattern: TriplePattern,
        batches: Iterable[Batch],
        wanted: Optional[int] = None,
        probes: Optional[StepProbes] = None,
    ) -> Iterator[Batch]:
        """Stream the bind-propagation join of upstream ``batches`` with ``pattern``.

        Compiles the step once (:class:`_Step`), then pulls one upstream
        batch at a time and propagates its rows into the pattern in order
        (one batched SDS probe per distinct bound id, or a read of the
        step's run bucket once the probes have paid for one — see
        :class:`StepProbes`).  The extensions leave in batches of one row,
        then four, sixteen ... each as soon as it fills — the primitive the
        streaming pipeline's ``LIMIT``/``ASK`` early termination relies on:
        upstream rows and batches the consumer never asks about are never
        probed.  ``wanted``, when given, is how many rows a ``LIMIT`` takes
        from this step in all; no batch is cut longer than what is left of it.
        ``probes``, when given, is the run-bucket state of a step that runs
        over several upstream streams (an OPTIONAL group's, once per outer
        batch); by default the step gets a fresh one.
        """
        run = _Step(self, pattern, StepProbes() if probes is None else probes, wanted).run
        for batch in batches:
            yield from run(batch)

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


class _Step:
    """One triple pattern compiled for one bind-join step.

    Resolved once per step, not once per row: the instance ids of the
    constant subject and object, each predicate's candidate property ids,
    each class's concept id and LiteMat interval, and — per input
    :class:`~repro.sparql.bindings.Layout` — the columns that bind the
    pattern's variables and the layout of the extended rows.  A bound
    instance id is probed with as is, a bound term is located first;
    object-layout and type-store hits extend the row with their ids,
    literals, concepts and predicates with terms.

    :meth:`run` walks one batch's rows in order; within a batch each run
    and bound id is asked of :class:`StepProbes` once.  Extended rows leave
    in batches of at least one row, then four, sixteen ... up to
    :data:`~repro.sparql.bindings.BATCH_ROWS`, each as soon as it fills, so
    a consumer that stops early leaves the rest of the batch unprobed, and
    never longer than the rows a ``LIMIT`` still takes from the step.  A
    probe's answer, already materialised, is not cut (unless it overflows
    a full batch); lazy scans are.
    """

    def __init__(
        self,
        evaluator: TriplePatternEvaluator,
        pattern: TriplePattern,
        probes: StepProbes,
        wanted: Optional[int] = None,
    ) -> None:
        self.evaluator = evaluator
        self.store = evaluator.store
        self.instances = self.store.instances
        self.probes = probes
        self._property_ids: Dict[Term, List[int]] = {}
        self._literal_runs: Dict[int, bool] = {}  # property id -> has a datatype-layout run
        self._concepts: Dict[Term, Optional[Tuple[int, int, int]]] = {}
        self._predicate = self._class = None  # a constant predicate / class, resolved
        self._layouts: Dict[Layout, tuple] = {}
        self._memo: Dict[tuple, Sequence] = {}  # (run, id) -> answer, for one batch
        self._size = 1  # rows in the next output batch
        self._left = wanted  # rows a LIMIT still takes from this step (None: all)
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
        """The layout of the extended rows, then per slot ``(constant, column,
        variable)``; ``()`` for ids of another dictionary."""
        owned = layout.owned(self.instances)
        if owned is None:
            return ()
        columns = layout.columns
        slots = tuple([
            (slot[0], None, None) if slot.__class__ is tuple
            else (None, columns[slot], None) if slot in columns
            else (None, None, slot)
            for slot in self._slots
        ])
        extended = owned
        for _, _, variable in (slots[0], slots[2], slots[1]):  # the order rows extend in
            if variable is not None and variable not in extended.columns:
                extended = extended.child(variable)
        compiled = self._layouts[layout] = (extended,) + slots + (self._bucketed(*slots),)
        return compiled

    def _bucketed(self, subject: tuple, predicate: tuple, obj: tuple) -> Optional[tuple]:
        """``(column, run keys, extends)`` when one bound column answers the step
        from run buckets alone: a bound subject's objects or a bound object's
        subjects through object-layout runs (``extends``), or a bound
        subject's membership of the constant class; else ``None``."""
        kind = self._predicate
        if predicate[0] is None or not kind:
            return None
        if kind is _TYPE:  # a constant class is resolved to ``_class``
            if subject[1] is None or self._class is None:
                return None
            return subject[1], [("type",) + self._class[1:]], False
        if any(map(self._has_literals, kind)):
            return None
        if subject[1] is not None and obj[2] is not None:
            return subject[1], [("objects", property_id) for property_id in kind], True
        if obj[1] is not None and subject[2] is not None:
            return obj[1], [("subjects", property_id) for property_id in kind], True
        return None

    def run(self, batch: Batch) -> Iterator[Batch]:
        """The rows of ``batch`` extended by their matches, in batches."""
        layout = batch.layout
        compiled = self._layouts.get(layout) or self._compile(layout)
        if not compiled:  # ids of another store's dictionary: go by the terms
            bindings = [Binding(binding.as_dict()) for binding in rows([batch])]
            yield from self.run(Batch(bindings[0].layout, [binding.row for binding in bindings]))
            return
        extended, subject, predicate, obj, bucketed = compiled
        answers = bucketed and self._from_buckets(batch.rows, *bucketed)
        if not answers:
            self._memo = {}
            answers = (self._match(row, subject, predicate, obj) for row in batch.rows)
        size, cut = self._size, []
        for found in answers:
            if not found:
                continue
            if found.__class__ is list and len(cut) + len(found) <= BATCH_ROWS:
                # A materialised answer joins the batch whole: cutting it
                # would save no store work.
                cut += found
                if len(cut) >= size:
                    yield Batch(extended, cut)
                    size, cut = self._grown(len(cut)), []
                continue
            found = iter(found)
            while True:
                cut += islice(found, size - len(cut))
                if len(cut) < size:
                    break
                yield Batch(extended, cut)
                size, cut = self._grown(len(cut)), []
        if cut:
            yield Batch(extended, cut)
            self._grown(len(cut))

    def _from_buckets(self, rows: List[tuple], column: int, keys: list, extends: bool) -> Optional[Iterator]:
        """The batch's answers read from the run buckets of the ids in
        ``column``, a few rows' at a time; ``None`` unless every run has one."""
        buckets = [self.probes.bucket(key) for key in keys]
        if None in buckets:
            return None
        ids = list(map(itemgetter(column), rows))
        if set(map(type, ids)) != _INT:
            return None
        if not extends:
            return iter([compress(rows, map(buckets[0].__contains__, ids))])
        gets = [bucket.get for bucket in buckets]
        return (  # iterators, so the batches are cut as from a lazy scan
            iter([
                row + (end,) for row, key in zip(rows[start:start + _CHUNK], ids[start:start + _CHUNK])
                for get in gets for end in get(key, ())
            ])
            for start in range(0, len(rows), _CHUNK)
        )

    def _grown(self, emitted: int) -> int:
        """The size of the next output batch, after one of ``emitted`` rows."""
        size = grow(self._size)
        if self._left is not None:
            self._left -= emitted
            size = min(size, max(self._left, 1))
        self._size = size
        return size

    def _match(self, row: tuple, subject_slot: tuple, predicate_slot: tuple, object_slot: tuple) -> Iterable[tuple]:
        """The extensions of ``row`` that satisfy the pattern (a list, or lazy)."""
        subject, s_column, subject_var = subject_slot
        predicate, p_column, predicate_var = predicate_slot
        obj, o_column, object_var = object_slot
        if s_column is not None:
            subject = row[s_column]
        if o_column is not None:
            obj = row[o_column]
        if p_column is not None:
            predicate = row[p_column]
            kind = self._classify(self.instances.extract(predicate) if predicate.__class__ is int else predicate)
        elif predicate is None:
            return self._unbound_predicate(row, subject, subject_var, predicate_var, obj, object_var)
        else:
            kind = self._predicate
        if kind is _TYPE:
            concept = self._class if o_column is None else self._concept(obj)
            return self._rdf_type(row, subject, subject_var, concept, object_var)
        return self._property(row, kind, subject, subject_var, obj, object_var) if kind else ()

    def _known(self, key: Hashable, item: int) -> Optional[Sequence]:
        """The answer for ``item`` from the run's bucket or this batch's memo."""
        bucket = self.probes._buckets.get(key)
        if bucket is not None:
            return bucket.get(item, ())
        return self._memo.get((key, item))

    def _answer(self, key: Hashable, item: int, probe, size, build) -> Sequence:
        """:meth:`StepProbes.answer`, remembered for the rest of the batch."""
        found = self._memo[key, item] = self.probes.answer(key, item, probe, size, build)
        return found

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

    def _rdf_type(self, row: tuple, subject, subject_var, concept, object_var) -> Iterable[tuple]:
        """``concept`` is the bound class's ``(id, low, high)``, or ``None``."""
        if object_var is None:
            if concept is None:
                return ()
            concept_id, low, high = concept
            if subject is not None:
                # Fully bound: a membership check through the SO access path.
                subject_id = subject if subject.__class__ is int else self._instance_id(subject)
                if subject_id is None:
                    return ()
                key = ("type", low, high)
                matched = self._known(key, subject_id)
                if matched is None:
                    type_store = self.store.type_store
                    matched = self._answer(
                        key,
                        subject_id,
                        lambda: (
                            _MEMBER
                            if any(low <= c < high for c in type_store.concepts_of(subject_id))
                            else ()
                        ),
                        lambda: type_store.count_concept_interval(low, high),
                        lambda: dict.fromkeys(type_store.subjects_of_interval(low, high), _MEMBER),
                    )
                return [row] if matched else ()
            type_store = self.store.type_store
            if self.evaluator.reasoning:
                subjects = type_store.subjects_of_interval(low, high)
            else:
                subjects = type_store.subjects_of(concept_id)
            # ``subject_var`` is unbound here (a bound variable resolves to a
            # value), so each subject id extends the row directly.
            return map(row.__add__, zip(subjects))

        # Object is an unbound variable: enumerate concepts.
        if subject is not None:
            subject_id = self._instance_id(subject)
            if subject_id is None:
                return ()
            return [row + (concept,) for concept in self.evaluator._concepts_of_subject(subject_id)]
        type_store, expand = self.store.type_store, self.evaluator._expand_concept
        if subject_var == object_var:
            # ``?x rdf:type ?x``: an individual that is its own class.
            extract = self.instances.extract
            return (
                row + (value,)
                for value, concept_id in ((extract(s), c) for s, c in type_store.iter_triples())
                if value in expand(concept_id)
            )
        return (
            row + (subject_id, concept)
            for subject_id, concept_id in type_store.iter_triples()
            for concept in expand(concept_id)
        )

    # ------------------------------------------------------------------ #
    # object / datatype property patterns (PSO layouts)
    # ------------------------------------------------------------------ #

    def _property(
        self, row: tuple, property_ids: List[int], subject, subject_var, obj, object_var
    ) -> Iterable[tuple]:
        subject_id = subject
        if subject is not None and subject.__class__ is not int:
            subject_id = self._instance_id(subject)
            if subject_id is None:
                return ()
        object_id = obj
        if obj is not None and obj.__class__ is not int:
            object_id = None if isinstance(obj, Literal) else self._instance_id(obj)
        if len(property_ids) == 1:
            return self._property_run(row, property_ids[0], subject_id, subject_var, obj, object_id, object_var)
        # Each candidate's run is read only once the previous one is used up.
        return chain.from_iterable(
            self._property_run(row, property_id, subject_id, subject_var, obj, object_id, object_var)
            for property_id in property_ids
        )

    def _property_run(
        self, row: tuple, property_id: int, subject_id, subject_var, obj, object_id, object_var
    ) -> Iterable[tuple]:
        """The extensions of ``row`` through one candidate property."""
        store = self.store
        if subject_id is not None:
            if obj is not None:
                if object_id is not None:
                    found = store.object_store.contains(subject_id, property_id, object_id)
                else:
                    found = (
                        isinstance(obj, Literal)
                        and self._has_literals(property_id)
                        and obj in store.datatype_store.literals_for(subject_id, property_id)
                    )
                return [row] if found else ()
            # (s, p, ?o): Algorithm 3 on the object layout, plus the flat
            # literal run of the datatype layout.  Each store call
            # materialises its whole answer run in batched kernel calls;
            # ``object_var`` is unbound (a bound variable would have
            # resolved to a value), so the row is extended directly.
            extended = [row + (found,) for found in self._objects_for(subject_id, property_id)]
            if self._has_literals(property_id):
                literals = store.datatype_store.literals_for(subject_id, property_id)
                extended += [row + (literal,) for literal in literals]
            return extended
        if obj is not None:
            # (?s, p, o): Algorithm 4, one batched reverse lookup.
            if isinstance(obj, Literal):
                if not self._has_literals(property_id):
                    return ()
                subjects = store.datatype_store.subjects_for(property_id, obj)
            elif object_id is None:
                return ()
            else:
                subjects = self._subjects_for(property_id, object_id)
            return [row + (found,) for found in subjects]
        # (?s, p, ?o): the property run of both layouts, one batched scan
        # each, the datatype one only once the object one is used up.  The
        # same variable may fill both slots (``?x p ?x``), in which case only
        # diagonal pairs match.
        if subject_var == object_var:
            pairs = store.object_store.pairs_for_property(property_id)
            return (row + (found,) for found, found_object in pairs if found == found_object)
        return chain.from_iterable(
            map(row.__add__, layout.pairs_for_property(property_id))
            for layout in (store.object_store, store.datatype_store)
        )

    def _has_literals(self, property_id: int) -> bool:
        """Whether the datatype layout holds a run of ``property_id`` (once per step)."""
        found = self._literal_runs.get(property_id)
        if found is None:
            found = self._literal_runs[property_id] = self.store.datatype_store.has_property(property_id)
        return found

    def _objects_for(self, subject_id: int, property_id: int) -> Sequence[int]:
        """Algorithm 3 on the object layout, or the step's subject-keyed run bucket."""
        key = ("objects", property_id)
        found = self._known(key, subject_id)
        if found is not None:
            return found
        object_store = self.store.object_store
        return self._answer(
            key,
            subject_id,
            lambda: object_store.objects_for(subject_id, property_id),
            lambda: object_store.count_triples_with_property(property_id),
            lambda: _group_pairs(object_store.pairs_for_property(property_id)),
        )

    def _subjects_for(self, property_id: int, object_id: int) -> Sequence[int]:
        """Algorithm 4 on the object layout, or the step's object-keyed run bucket."""
        key = ("subjects", property_id)
        found = self._known(key, object_id)
        if found is not None:
            return found
        object_store = self.store.object_store
        return self._answer(
            key,
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
        self, row: tuple, subject, subject_var, predicate_var: str, obj, object_var
    ) -> Iterator[tuple]:
        store = self.store
        # The predicate follows the subject and object columns, unless it
        # shares a variable with one of them: then it must equal its value.
        added = [name for name in (subject_var, object_var) if name is not None]
        column = len(row) + added.index(predicate_var) if predicate_var in added else None
        decode = self.instances.extract

        def emit(extended: Iterable[tuple], predicate: URI) -> Iterable[tuple]:
            if column is None:
                return (found + (predicate,) for found in extended)
            return (
                found for found in extended
                if (decode(found[column]) if found[column].__class__ is int else found[column]) == predicate
            )

        # rdf:type triples first.
        concept = None if obj is None else self._concept(obj)
        yield from emit(self._rdf_type(row, subject, subject_var, concept, object_var), RDF_TYPE)
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
            yield from emit(
                self._property(row, [property_id], subject, subject_var, obj, object_var), predicate
            )
