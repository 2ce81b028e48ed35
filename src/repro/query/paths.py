"""SPARQL 1.1 property-path evaluation over the SuccinctEdge layouts.

:class:`PathEvaluator` turns one
:class:`~repro.sparql.ast.PropertyPathPattern` plus a partial solution into
solutions, implementing the SPARQL 1.1 path algebra (§9.3 of the spec) on
top of the batched store accessors:

* **multiset forms** — link, inverse (``^p``), sequence (``p1/p2``),
  alternation (``p1|p2``) and negated property sets (``!(...)``) keep
  duplicate solutions, exactly like the equivalent triple patterns;
* **ALP forms** — ``p?``, ``p*`` and ``p+`` eliminate duplicates per the
  spec's *ArbitraryLengthPath* semantics (a reachability test, not a
  path count), which is what makes them safe on cyclic graphs;
* **zero-length paths** — ``p?``/``p*`` match every term to itself.  With a
  bound endpoint the zero-length solution is included even when the term
  does not occur in the graph (the spec's ALP evaluation starts from the
  given term); with both endpoints unbound the domain is the set of terms
  occurring in *explicit* triples (see :func:`graph_terms`).

Every result list is emitted in the canonical order of
:func:`path_sort_key` — a total order over RDF terms shared with the naive
reference oracle — so results are **byte-identical across all execution
backends by construction**: any correct path evaluation produces the same
sorted sequence.

The transitive forms run a **semi-naive BFS**.  When the closed-over path
flattens into an alternation of plain links and inverse links (the common
shape: ``p+``, ``(p|^q)*`` ...), the BFS runs at the *identifier* level: the
frontier is a sorted list of instance identifiers (coalesced into intervals
for membership tests — LiteMat assigns hierarchy-clustered ids, so real
frontiers coalesce well) and each round is one call to the evaluator's
``expand_frontier`` hook, which the scatter executor
(:mod:`repro.query.parallel`) answers with per-shard ``expand`` units.  Per property the
expansion chooses **probe vs. scan** by the cost model's constants: a small
frontier probes ``objects_for``/``subjects_for`` per id, a large one scans
``pairs_for_property`` once and filters against the interval frontier.
Paths that do not compile to the id level (``rdf:type`` links, nested
closures, sequences under a closure) fall back to a term-level BFS with the
same visited-set fixpoint, so every form terminates on cyclic data.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.rdf.namespaces import RDF_TYPE
from repro.rdf.terms import Literal, Term, URI
from repro.sparql.algebra import term_order_key
from repro.sparql.ast import (
    PathAlternative,
    PathExpression,
    PathInverse,
    PathLink,
    PathNegatedSet,
    PathOneOrMore,
    PathSequence,
    PathZeroOrMore,
    PathZeroOrOne,
    PropertyPathPattern,
)
from repro.sparql.bindings import Binding

#: Probe-vs-scan constants of the frontier expansion, mirroring the planner's
#: :class:`~repro.query.optimizer.CostModel` defaults (kernel-call units): a
#: bound-slot probe costs ~``_PROBE`` calls, one scanned row ~``_ROW``.
_PROBE = 30.0
_SCAN = 8.0
_ROW = 0.4


def path_sort_key(term: Term) -> Tuple:
    """The canonical total order for path results (shared with the oracle).

    :func:`~repro.sparql.algebra.term_order_key` orders term kinds and
    numeric literals; the N-Triples rendering breaks the remaining ties, so
    any two distinct terms compare deterministically.
    """
    return (term_order_key(term), term.n3())


def _sorted_terms(terms: Iterable[Term]) -> List[Term]:
    return sorted(terms, key=path_sort_key)


def invert_path(path: PathExpression) -> PathExpression:
    """The structural inverse of a path (``invert(P)`` relates y→x iff P x→y).

    Inversion is pushed down to the leaves, so the only ``PathInverse``
    nodes in the result wrap plain links — the shape the step evaluators
    handle directly.
    """
    if isinstance(path, PathLink):
        return PathInverse(path)
    if isinstance(path, PathInverse):
        return path.path
    if isinstance(path, PathSequence):
        return PathSequence(tuple(invert_path(step) for step in reversed(path.steps)))
    if isinstance(path, PathAlternative):
        return PathAlternative(tuple(invert_path(branch) for branch in path.branches))
    if isinstance(path, PathZeroOrOne):
        return PathZeroOrOne(invert_path(path.path))
    if isinstance(path, PathZeroOrMore):
        return PathZeroOrMore(invert_path(path.path))
    if isinstance(path, PathOneOrMore):
        return PathOneOrMore(invert_path(path.path))
    if isinstance(path, PathNegatedSet):
        # A forward edge excluded from F becomes an inverse edge excluded
        # from F (and vice versa), so the member lists swap roles.
        return PathNegatedSet(forward=path.inverse, inverse=path.forward)
    raise TypeError(f"cannot invert path node {type(path).__name__}")


# --------------------------------------------------------------------------- #
# the sorted-id-interval frontier
# --------------------------------------------------------------------------- #


class IdFrontier:
    """A BFS frontier of instance identifiers, coalesced into intervals.

    Membership tests bisect over the interval lower bounds — ``O(log k)``
    in the number of *runs*, not ids.  LiteMat assigns hierarchy-clustered
    identifiers, so the frontiers transitive queries produce coalesce into
    few runs (the paper's interval argument, applied to path frontiers).
    """

    __slots__ = ("ids", "lows", "highs")

    def __init__(self, sorted_ids: Sequence[int]) -> None:
        self.ids = list(sorted_ids)
        lows: List[int] = []
        highs: List[int] = []
        for identifier in self.ids:
            if highs and identifier == highs[-1]:
                highs[-1] = identifier + 1
            else:
                lows.append(identifier)
                highs.append(identifier + 1)
        self.lows = lows
        self.highs = highs

    def __len__(self) -> int:
        return len(self.ids)

    def __contains__(self, identifier: int) -> bool:
        position = bisect_right(self.lows, identifier)
        return position > 0 and identifier < self.highs[position - 1]

    @property
    def interval_count(self) -> int:
        """How many coalesced runs the frontier spans."""
        return len(self.lows)


def expand_frontier_local(
    store,
    forward_pids: Sequence[int],
    inverse_pids: Sequence[int],
    frontier_ids: Sequence[int],
    frontier_literals: Sequence[Literal],
) -> Tuple[List[int], List[Literal]]:
    """One BFS round against one store: the sequential frontier expansion.

    Returns the sorted distinct instance identifiers and literals reachable
    in exactly one step — forward over ``forward_pids`` (``objects_for`` /
    ``literals_for`` per probe, ``pairs_for_property`` per scan) and
    backward over ``inverse_pids`` (``subjects_for`` on both layouts).  Per
    (property × direction) the cheaper of probing the frontier and scanning
    the run is chosen with the planner's cost constants; scan mode filters
    with the interval frontier.

    This is the ``expand`` work unit (:mod:`repro.query.units`) every
    scatter transport runs, one per shard.  It must stay a
    pure function of the store snapshot — the union of sorted distinct
    per-shard results equals the monolithic result.
    """
    frontier = IdFrontier(frontier_ids)
    out_ids: Set[int] = set()
    out_literals: Set[Literal] = set()
    object_store = store.object_store
    datatype_store = store.datatype_store

    for property_id in forward_pids:
        run = object_store.count_triples_with_property(property_id)
        if len(frontier) * _PROBE <= _SCAN + run * _ROW:
            for subject_id in frontier.ids:
                out_ids.update(object_store.objects_for(subject_id, property_id))
                out_literals.update(datatype_store.literals_for(subject_id, property_id))
        else:
            for subject_id, object_id in object_store.pairs_for_property(property_id):
                if subject_id in frontier:
                    out_ids.add(object_id)
            for subject_id, literal in datatype_store.pairs_for_property(property_id):
                if subject_id in frontier:
                    out_literals.add(literal)

    for property_id in inverse_pids:
        run = object_store.count_triples_with_property(property_id)
        if len(frontier) * _PROBE <= _SCAN + run * _ROW:
            for object_id in frontier.ids:
                out_ids.update(object_store.subjects_for(property_id, object_id))
        else:
            for subject_id, object_id in object_store.pairs_for_property(property_id):
                if object_id in frontier:
                    out_ids.add(subject_id)
        for literal in frontier_literals:
            out_ids.update(datatype_store.subjects_for(property_id, literal))

    return sorted(out_ids), _sorted_terms(out_literals)


def merge_expansions(
    replies: Iterable[Tuple[Sequence[int], Sequence[Literal]]]
) -> Tuple[List[int], List[Literal]]:
    """Union per-shard expansion replies back into one sorted pair."""
    ids: Set[int] = set()
    literals: Set[Literal] = set()
    for reply_ids, reply_literals in replies:
        ids.update(reply_ids)
        literals.update(reply_literals)
    return sorted(ids), _sorted_terms(literals)


def compile_link_alternation(
    path: PathExpression, candidate_ids
) -> Optional[Tuple[Tuple[int, ...], Tuple[int, ...]]]:
    """``(forward_pids, inverse_pids)`` when ``path`` is id-level steppable.

    A path compiles when it flattens (through alternation) into plain links
    and inverse links over non-``rdf:type`` predicates; ``candidate_ids``
    maps each predicate to its stored property identifiers (the LiteMat
    interval expansion under reasoning).  Returns ``None`` for every other
    shape — the caller falls back to the term-level BFS.
    """
    forward: Set[int] = set()
    inverse: Set[int] = set()

    def collect(node: PathExpression, inverted: bool) -> bool:
        if isinstance(node, PathAlternative):
            return all(collect(branch, inverted) for branch in node.branches)
        if isinstance(node, PathInverse):
            return collect(node.path, not inverted)
        if isinstance(node, PathLink):
            if node.predicate == RDF_TYPE:
                return False
            (inverse if inverted else forward).update(candidate_ids(node.predicate))
            return True
        return False

    if not collect(path, False):
        return None
    return tuple(sorted(forward)), tuple(sorted(inverse))


def path_access_label(path: PathExpression) -> str:
    """The access label EXPLAIN renders for a path step.

    ``interval-bfs`` marks closures whose inner path is structurally
    id-steppable (links / inverse links over non-``rdf:type`` predicates);
    everything else names the top-level algebra node.
    """

    def steppable(node: PathExpression) -> bool:
        if isinstance(node, PathAlternative):
            return all(steppable(branch) for branch in node.branches)
        if isinstance(node, PathInverse):
            return steppable(node.path)
        return isinstance(node, PathLink) and node.predicate != RDF_TYPE

    if isinstance(path, (PathZeroOrMore, PathOneOrMore)):
        form = "zero-or-more" if isinstance(path, PathZeroOrMore) else "one-or-more"
        return f"{form}/{'interval-bfs' if steppable(path.path) else 'term-bfs'}"
    if isinstance(path, PathZeroOrOne):
        return "zero-or-one"
    if isinstance(path, PathSequence):
        return "sequence"
    if isinstance(path, PathAlternative):
        return "alternation"
    if isinstance(path, PathInverse):
        return "inverse"
    if isinstance(path, PathNegatedSet):
        return "negated-set"
    return "link"


def graph_terms(store) -> List[Term]:
    """Every term occurring in an explicit triple, in canonical order.

    The zero-length-path domain: subjects and objects of the PSO layouts
    (instances and literals) plus subjects and concepts of the type store.
    Inferred terms (hierarchy expansions) are *not* included — the
    zero-length path matches what is stored, a deviation documented in
    ``docs/sparql_support.md``.
    """
    identifiers: Set[int] = set()
    terms: Set[Term] = set()
    object_store = store.object_store
    datatype_store = store.datatype_store
    for property_id in object_store.properties:
        for subject_id, object_id in object_store.pairs_for_property(property_id):
            identifiers.add(subject_id)
            identifiers.add(object_id)
    for property_id in datatype_store.properties:
        for subject_id, literal in datatype_store.pairs_for_property(property_id):
            identifiers.add(subject_id)
            terms.add(literal)
    extract_concept = store.concepts.extract
    for subject_id, concept_id in store.type_store.iter_triples():
        identifiers.add(subject_id)
        concept = extract_concept(concept_id)
        if concept is not None:
            terms.add(concept)
    extract = store.instances.extract
    terms.update(extract(identifier) for identifier in identifiers)
    return _sorted_terms(terms)


# --------------------------------------------------------------------------- #
# the evaluator
# --------------------------------------------------------------------------- #


class PathEvaluator:
    """Evaluates property-path patterns through one execution backend.

    Parameters
    ----------
    evaluator:
        The engine's triple-pattern evaluator — either a plain
        :class:`~repro.query.tp_eval.TriplePatternEvaluator` or one of the
        parallel executors wrapping one.  The path evaluator reads the
        store facade through it (delta overlays included) and drives the
        closure BFS through its ``expand_frontier`` hook, which is what the
        thread / process / cluster backends override to scatter frontier
        expansion.
    """

    def __init__(self, evaluator) -> None:
        self.evaluator = evaluator
        self.store = evaluator.store
        self.reasoning = evaluator.reasoning
        #: The plain sequential evaluator (parallel executors wrap one):
        #: non-closure steps run coordinator-side on the store facade.
        self.inner = getattr(evaluator, "inner", evaluator)

    # ------------------------------------------------------------------ #
    # the TriplePatternEvaluator-shaped surface
    # ------------------------------------------------------------------ #

    def evaluate(
        self, pattern: PropertyPathPattern, binding: Binding
    ) -> Iterator[Binding]:
        """Yield the bindings extending ``binding`` that satisfy ``pattern``."""
        from repro.query.tp_eval import TriplePatternEvaluator

        resolve = TriplePatternEvaluator._resolve
        subject_term, subject_var = resolve(pattern.subject, binding)
        object_term, object_var = resolve(pattern.object, binding)
        path = pattern.path

        if subject_term is not None and object_term is not None:
            if self.holds(path, subject_term, object_term):
                yield binding
            return
        if subject_term is not None:
            extend = binding.extended
            for value in self.targets(path, subject_term):
                yield extend(object_var, value)
            return
        if object_term is not None:
            extend = binding.extended
            for value in self.sources(path, object_term):
                yield extend(subject_var, value)
            return
        diagonal = subject_var == object_var
        base = binding.as_dict()
        adopt = Binding._adopt
        for source, target in self.pairs(path):
            if diagonal:
                if source == target:
                    yield binding.extended(subject_var, source)
                continue
            values = dict(base)
            values[subject_var] = source
            values[object_var] = target
            yield adopt(values)

    def evaluate_many(
        self, pattern: PropertyPathPattern, bindings: Iterable[Binding]
    ) -> Iterator[Binding]:
        """Bind-propagation join of upstream bindings with one path pattern."""
        for binding in bindings:
            yield from self.evaluate(pattern, binding)

    # ------------------------------------------------------------------ #
    # the four endpoint shapes
    # ------------------------------------------------------------------ #

    def targets(self, path: PathExpression, start: Term) -> List[Term]:
        """``o`` with ``start path o``, in canonical order (multiset)."""
        return _sorted_terms(self._eval_from(path, start))

    def sources(self, path: PathExpression, end: Term) -> List[Term]:
        """``s`` with ``s path end``, in canonical order (multiset)."""
        return _sorted_terms(self._eval_from(invert_path(path), end))

    def holds(self, path: PathExpression, start: Term, end: Term) -> bool:
        """Whether ``start path end`` has at least one solution."""
        return end in set(self._eval_from(path, start))

    def pairs(self, path: PathExpression) -> List[Tuple[Term, Term]]:
        """All ``(s, o)`` with ``s path o``, sorted on both keys (multiset)."""
        return sorted(
            self._pairs(path),
            key=lambda pair: (path_sort_key(pair[0]), path_sort_key(pair[1])),
        )

    # ------------------------------------------------------------------ #
    # forward evaluation from one bound term
    # ------------------------------------------------------------------ #

    def _eval_from(self, path: PathExpression, start: Term) -> List[Term]:
        """One-sided path evaluation: the multiset of ends from ``start``."""
        if isinstance(path, PathLink):
            return self._link_targets(path.predicate, start)
        if isinstance(path, PathInverse):
            inner = path.path
            if isinstance(inner, PathLink):
                return self._link_sources(inner.predicate, start)
            return self._eval_from(invert_path(inner), start)
        if isinstance(path, PathSequence):
            frontier: List[Term] = [start]
            for step in path.steps:
                next_frontier: List[Term] = []
                for term in frontier:
                    next_frontier.extend(self._eval_from(step, term))
                frontier = next_frontier
                if not frontier:
                    return []
            return frontier
        if isinstance(path, PathAlternative):
            results: List[Term] = []
            for branch in path.branches:
                results.extend(self._eval_from(branch, start))
            return results
        if isinstance(path, PathZeroOrOne):
            distinct: Set[Term] = {start}
            distinct.update(self._eval_from(path.path, start))
            return list(distinct)
        if isinstance(path, PathZeroOrMore):
            reached = self._reachable(path.path, start)
            reached.add(start)
            return list(reached)
        if isinstance(path, PathOneOrMore):
            return list(self._reachable(path.path, start))
        if isinstance(path, PathNegatedSet):
            return self._negated_targets(path, start)
        raise TypeError(f"unknown path node {type(path).__name__}")

    # -- plain links ----------------------------------------------------- #

    def _link_targets(self, predicate: URI, start: Term) -> List[Term]:
        """One forward link step: ``o`` with ``start predicate o`` stored."""
        store = self.store
        if predicate == RDF_TYPE:
            if isinstance(start, Literal):
                return []
            subject_id = store.instances.try_locate(start)
            if subject_id is None:
                return []
            return list(self.inner._concepts_of_subject(subject_id))
        if isinstance(start, Literal):
            return []  # literals never occur in the subject position
        subject_id = store.instances.try_locate(start)
        if subject_id is None:
            return []
        extract = store.instances.extract
        results: List[Term] = []
        for property_id in self.inner._candidate_property_ids(predicate):
            for object_id in store.object_store.objects_for(subject_id, property_id):
                results.append(extract(object_id))
            results.extend(store.datatype_store.literals_for(subject_id, property_id))
        return results

    def _link_sources(self, predicate: URI, end: Term) -> List[Term]:
        """One backward link step: ``s`` with ``s predicate end`` stored."""
        store = self.store
        if predicate == RDF_TYPE:
            if not isinstance(end, URI):
                return []
            concept_id = store.concepts.try_locate(end)
            if concept_id is None:
                return []
            if self.reasoning:
                low, high = store.concepts.interval(end)
                subject_ids = store.type_store.subjects_of_interval(low, high)
            else:
                subject_ids = store.type_store.subjects_of(concept_id)
            extract = store.instances.extract
            return [extract(subject_id) for subject_id in subject_ids]
        extract = store.instances.extract
        results: List[Term] = []
        if isinstance(end, Literal):
            for property_id in self.inner._candidate_property_ids(predicate):
                for subject_id in store.datatype_store.subjects_for(property_id, end):
                    results.append(extract(subject_id))
            return results
        object_id = store.instances.try_locate(end)
        if object_id is None:
            return []
        for property_id in self.inner._candidate_property_ids(predicate):
            for subject_id in store.object_store.subjects_for(property_id, object_id):
                results.append(extract(subject_id))
        return results

    # -- negated property sets ------------------------------------------- #

    def _stored_predicates(self) -> List[Tuple[int, URI]]:
        """Stored (property id, predicate URI) pairs, ascending by id."""
        store = self.store
        property_ids = sorted(
            set(store.object_store.properties) | set(store.datatype_store.properties)
        )
        pairs: List[Tuple[int, URI]] = []
        for property_id in property_ids:
            predicate = store.properties.extract(property_id)
            if isinstance(predicate, URI):
                pairs.append((property_id, predicate))
        return pairs

    def _negated_targets(self, path: PathNegatedSet, start: Term) -> List[Term]:
        """NPS semantics: explicit stored predicates only, no expansion.

        Matches the engine's unbound-predicate evaluation: each stored
        predicate stands for itself (no LiteMat interval widening), and
        ``rdf:type`` edges match through their explicit concept.
        """
        store = self.store
        results: List[Term] = []
        forward_excluded = set(path.forward)
        extract = store.instances.extract

        if self._nps_wants_forward(path) and not isinstance(start, Literal):
            subject_id = store.instances.try_locate(start)
        else:
            subject_id = None
        if subject_id is not None:
            for property_id, predicate in self._stored_predicates():
                if predicate in forward_excluded:
                    continue
                for object_id in store.object_store.objects_for(subject_id, property_id):
                    results.append(extract(object_id))
                results.extend(
                    store.datatype_store.literals_for(subject_id, property_id)
                )
            if RDF_TYPE not in forward_excluded:
                extract_concept = store.concepts.extract
                for concept_id in store.type_store.concepts_of(subject_id):
                    concept = extract_concept(concept_id)
                    if concept is not None:
                        results.append(concept)

        if self._nps_wants_inverse(path):
            results.extend(self._negated_inverse_targets(path, start))
        return results

    @staticmethod
    def _nps_wants_forward(path: PathNegatedSet) -> bool:
        """Whether the NPS matches forward edges.

        Per §18.2.2.3 a negated set splits into ``NPS(forward members)``
        and ``inv(NPS(inverse members))``; a pure-inverse set like
        ``!(^p)`` therefore matches inverse edges *only* — the forward
        direction applies iff a forward member exists (or the set has no
        inverse members at all).
        """
        return bool(path.forward) or not path.inverse

    @staticmethod
    def _nps_wants_inverse(path: PathNegatedSet) -> bool:
        """Whether the NPS includes an inverse member set (``!(...|^p)``).

        Per the spec a negated set with no ``^`` members matches forward
        edges only; once any inverse member appears, *all* non-excluded
        inverse edges match too.
        """
        return bool(path.inverse)

    def _negated_inverse_targets(self, path: PathNegatedSet, start: Term) -> List[Term]:
        store = self.store
        results: List[Term] = []
        inverse_excluded = set(path.inverse)
        extract = store.instances.extract
        for property_id, predicate in self._stored_predicates():
            if predicate in inverse_excluded:
                continue
            if isinstance(start, Literal):
                for subject_id in store.datatype_store.subjects_for(property_id, start):
                    results.append(extract(subject_id))
                continue
            object_id = store.instances.try_locate(start)
            if object_id is None:
                continue
            for subject_id in store.object_store.subjects_for(property_id, object_id):
                results.append(extract(subject_id))
        if RDF_TYPE not in inverse_excluded and isinstance(start, URI):
            concept_id = store.concepts.try_locate(start)
            if concept_id is not None:
                for subject_id in store.type_store.subjects_of(concept_id):
                    results.append(extract(subject_id))
        return results

    # ------------------------------------------------------------------ #
    # the closure BFS (ALP)
    # ------------------------------------------------------------------ #

    def _reachable(self, inner: PathExpression, start: Term) -> Set[Term]:
        """Terms reachable from ``start`` via one or more ``inner`` steps."""
        compiled = compile_link_alternation(inner, self.inner._candidate_property_ids)
        if compiled is not None:
            return self._reachable_intervals(compiled, start)
        expanded: Set[Term] = set()
        reached: Set[Term] = set()
        frontier: List[Term] = [start]
        while frontier:
            next_frontier: List[Term] = []
            for term in frontier:
                if term in expanded:
                    continue
                expanded.add(term)
                for target in self._eval_from(inner, term):
                    if target not in reached:
                        reached.add(target)
                        next_frontier.append(target)
            frontier = next_frontier
        return reached

    def _reachable_intervals(
        self, compiled: Tuple[Tuple[int, ...], Tuple[int, ...]], start: Term
    ) -> Set[Term]:
        """The id-level BFS: interval frontiers through ``expand_frontier``."""
        forward_pids, inverse_pids = compiled
        store = self.store
        frontier_ids: List[int] = []
        frontier_literals: List[Literal] = []
        if isinstance(start, Literal):
            frontier_literals = [start]
        else:
            start_id = store.instances.try_locate(start)
            if start_id is None:
                return set()  # a term absent from the dictionary has no edges
            frontier_ids = [start_id]
        expand = self._expand_frontier
        expanded_ids: Set[int] = set(frontier_ids)
        expanded_literals: Set[Literal] = set(frontier_literals)
        reached_ids: Set[int] = set()
        reached_literals: Set[Literal] = set()
        while frontier_ids or frontier_literals:
            new_ids, new_literals = expand(
                forward_pids, inverse_pids, frontier_ids, frontier_literals
            )
            reached_ids.update(new_ids)
            reached_literals.update(new_literals)
            frontier_ids = [i for i in new_ids if i not in expanded_ids]
            expanded_ids.update(frontier_ids)
            frontier_literals = [
                literal for literal in new_literals if literal not in expanded_literals
            ]
            expanded_literals.update(frontier_literals)
        extract = store.instances.extract
        reached: Set[Term] = {extract(identifier) for identifier in reached_ids}
        reached.update(reached_literals)
        return reached

    def _expand_frontier(
        self,
        forward_pids: Sequence[int],
        inverse_pids: Sequence[int],
        frontier_ids: Sequence[int],
        frontier_literals: Sequence[Literal],
    ) -> Tuple[List[int], List[Literal]]:
        """One BFS round through the backend's ``expand_frontier`` hook."""
        hook = getattr(self.evaluator, "expand_frontier", None)
        if hook is not None:
            return hook(forward_pids, inverse_pids, frontier_ids, frontier_literals)
        return expand_frontier_local(
            self.store, forward_pids, inverse_pids, frontier_ids, frontier_literals
        )

    # ------------------------------------------------------------------ #
    # unbound-unbound evaluation (the relation of a path)
    # ------------------------------------------------------------------ #

    def _pairs(self, path: PathExpression) -> List[Tuple[Term, Term]]:
        """The multiset of ``(s, o)`` pairs related by ``path``."""
        if isinstance(path, PathLink):
            return self._link_pairs(path.predicate)
        if isinstance(path, PathInverse):
            return [(target, source) for source, target in self._pairs(path.path)]
        if isinstance(path, PathSequence):
            steps = list(path.steps)
            pairs = self._pairs(steps[0])
            for step in steps[1:]:
                if not pairs:
                    return []
                right: dict = {}
                for mid, target in self._pairs(step):
                    right.setdefault(mid, []).append(target)
                pairs = [
                    (source, target)
                    for source, mid in pairs
                    for target in right.get(mid, ())
                ]
            return pairs
        if isinstance(path, PathAlternative):
            results: List[Tuple[Term, Term]] = []
            for branch in path.branches:
                results.extend(self._pairs(branch))
            return results
        if isinstance(path, PathZeroOrOne):
            distinct = {(term, term) for term in graph_terms(self.store)}
            distinct.update(self._pairs(path.path))
            return list(distinct)
        if isinstance(path, PathZeroOrMore):
            return self._closure_pairs(path.path, include_zero=True)
        if isinstance(path, PathOneOrMore):
            return self._closure_pairs(path.path, include_zero=False)
        if isinstance(path, PathNegatedSet):
            return self._negated_pairs(path)
        raise TypeError(f"unknown path node {type(path).__name__}")

    def _link_pairs(self, predicate: URI) -> List[Tuple[Term, Term]]:
        store = self.store
        results: List[Tuple[Term, Term]] = []
        if predicate == RDF_TYPE:
            extract = store.instances.extract
            for subject_id, concept_id in store.type_store.iter_triples():
                subject = extract(subject_id)
                for concept in self.inner._expand_concept(concept_id):
                    results.append((subject, concept))
            return results
        extract = store.instances.extract
        for property_id in self.inner._candidate_property_ids(predicate):
            for subject_id, object_id in store.object_store.pairs_for_property(
                property_id
            ):
                results.append((extract(subject_id), extract(object_id)))
            for subject_id, literal in store.datatype_store.pairs_for_property(
                property_id
            ):
                results.append((extract(subject_id), literal))
        return results

    def _closure_pairs(
        self, inner: PathExpression, include_zero: bool
    ) -> List[Tuple[Term, Term]]:
        """ALP with both endpoints unbound: per-source reachability.

        The inner relation is materialised once and closed per distinct
        source over an adjacency map — semi-naive at the term level; the
        id-level frontier applies per source when the inner path compiles
        (``_reachable`` dispatches), but with the full relation already in
        hand the adjacency walk is the cheaper route.
        """
        relation = set(self._pairs(inner))
        adjacency: dict = {}
        for source, target in relation:
            adjacency.setdefault(source, set()).add(target)
        results: Set[Tuple[Term, Term]] = set()
        for source in adjacency:
            reached: Set[Term] = set()
            frontier = list(adjacency[source])
            while frontier:
                next_frontier: List[Term] = []
                for term in frontier:
                    if term in reached:
                        continue
                    reached.add(term)
                    next_frontier.extend(adjacency.get(term, ()))
                frontier = next_frontier
            results.update((source, target) for target in reached)
        if include_zero:
            results.update((term, term) for term in graph_terms(self.store))
        return list(results)

    def _negated_pairs(self, path: PathNegatedSet) -> List[Tuple[Term, Term]]:
        store = self.store
        results: List[Tuple[Term, Term]] = []
        forward_excluded = set(path.forward)
        extract = store.instances.extract
        if self._nps_wants_forward(path):
            for property_id, predicate in self._stored_predicates():
                if predicate in forward_excluded:
                    continue
                for subject_id, object_id in store.object_store.pairs_for_property(
                    property_id
                ):
                    results.append((extract(subject_id), extract(object_id)))
                for subject_id, literal in store.datatype_store.pairs_for_property(
                    property_id
                ):
                    results.append((extract(subject_id), literal))
            if RDF_TYPE not in forward_excluded:
                extract_concept = store.concepts.extract
                for subject_id, concept_id in store.type_store.iter_triples():
                    concept = extract_concept(concept_id)
                    if concept is not None:
                        results.append((extract(subject_id), concept))
        if self._nps_wants_inverse(path):
            inverse_excluded = set(path.inverse)
            for property_id, predicate in self._stored_predicates():
                if predicate in inverse_excluded:
                    continue
                for subject_id, object_id in store.object_store.pairs_for_property(
                    property_id
                ):
                    results.append((extract(object_id), extract(subject_id)))
                for subject_id, literal in store.datatype_store.pairs_for_property(
                    property_id
                ):
                    results.append((literal, extract(subject_id)))
            if RDF_TYPE not in inverse_excluded:
                extract_concept = store.concepts.extract
                for subject_id, concept_id in store.type_store.iter_triples():
                    concept = extract_concept(concept_id)
                    if concept is not None:
                        results.append((concept, extract(subject_id)))
        return results
