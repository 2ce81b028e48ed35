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
  occurring in *explicit* triples.

Every path is evaluated by one routine, :meth:`PathEvaluator._relation`,
as a multiset of ``(start, end)`` *node* pairs: a node is the term's
instance identifier whenever it has one, and the term itself otherwise
(literals, classes that are no instance).  Sequences therefore join on
integers, and a result is decoded once, when it is sorted into the
canonical order of :func:`path_sort_key` — a total order over RDF terms
shared with the naive reference oracle — so results are **byte-identical
across all execution backends by construction**.

Stored edges come from :func:`stored_edges`, which chooses **probe vs.
scan** per property and layout with the cost model's constants: a few
starts probe ``objects_for``/``subjects_for`` per id, many scan
``pairs_for_property`` once and filter against a set.  A closure from a
bound endpoint whose inner path flattens into an alternation of plain and
inverse links (``p+``, ``(p|^q)*`` ...) runs a semi-naive BFS, one round per
call of the evaluator's ``expand_frontier`` hook, which the scatter
executor (:mod:`repro.query.parallel`) answers with per-shard ``expand``
units.  Every other closure is closed over an adjacency map of its inner
relation, so every form terminates on cyclic data.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.query.tp_eval import _group_pairs
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
    Variable,
)
from repro.sparql.bindings import BATCH_ROWS, Batch, Binding, Layout, rows

#: Probe-vs-scan constants of :func:`stored_edges`, mirroring the planner's
#: :class:`~repro.query.optimizer.CostModel` defaults (kernel-call units): a
#: bound-slot probe costs ~``_PROBE`` calls, one scanned row ~``_ROW``.
_PROBE = 30.0
_SCAN = 8.0
_ROW = 0.4

#: A path node: an instance identifier, or a term without one.
Node = object


def path_sort_key(term: Term) -> Tuple:
    """The canonical total order for path results (shared with the oracle).

    :func:`~repro.sparql.algebra.term_order_key` orders term kinds and
    numeric literals; the N-Triples rendering breaks the remaining ties, so
    any two distinct terms compare deterministically.
    """
    return (term_order_key(term), term.n3())


def _sorted_terms(terms: Iterable[Term]) -> List[Term]:
    return sorted(terms, key=path_sort_key)


def _cut(layout: Layout, extended: List[tuple]) -> Iterator[Batch]:
    """``extended`` in batches of up to :data:`~repro.sparql.bindings.BATCH_ROWS` rows."""
    for start in range(0, len(extended), BATCH_ROWS):
        yield Batch(layout, extended[start:start + BATCH_ROWS])


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
# stored edges (the probe-vs-scan rule)
# --------------------------------------------------------------------------- #


def stored_edges(
    store, property_ids: Sequence[int], inverse: bool, starts: Optional[Iterable[Node]]
) -> List[Tuple[Node, Node]]:
    """The stored edges of ``property_ids`` as ``(start, end)`` node pairs.

    Forward edges run subject → object over both layouts (instance ids,
    then literals); inverse edges run object → subject.  ``starts`` keeps
    the edges leaving those nodes (instance ids, and literals, which only
    inverse edges leave); ``None`` keeps every edge.  Per property and
    layout, probing each start costs ``_PROBE`` and scanning the run
    ``_SCAN + run * _ROW``; the cheaper wins, and a scan filters against a
    set of the starts.
    """
    object_store = store.object_store
    datatype_store = store.datatype_store
    ids = literals = None
    if starts is not None:
        ids = {node for node in starts if isinstance(node, int)}
        literals = {node for node in starts if isinstance(node, Literal)}
    edges: List[Tuple[Node, Node]] = []
    for property_id in property_ids:
        if inverse:
            _layout_edges(
                edges, object_store, property_id, True, ids,
                lambda node: object_store.subjects_for(property_id, node),
            )
            # A literal probe decodes the whole run anyway: always scan.
            _layout_edges(edges, datatype_store, property_id, True, literals, None)
        else:
            _layout_edges(
                edges, object_store, property_id, False, ids,
                lambda node: object_store.objects_for(node, property_id),
            )
            _layout_edges(
                edges, datatype_store, property_id, False, ids,
                lambda node: datatype_store.literals_for(node, property_id),
            )
    return edges


def _layout_edges(edges, layout, property_id, inverse, starts, probe) -> None:
    """Append one layout's edges of ``property_id`` leaving ``starts`` (``None``: all)."""
    if starts is not None:
        if not starts:
            return
        if probe is not None:
            run = layout.count_triples_with_property(property_id)
            if not run:
                return
            if len(starts) * _PROBE <= _SCAN + run * _ROW:
                edges.extend([(start, end) for start in starts for end in probe(start)])
                return
    pairs = layout.pairs_for_property(property_id)
    if not inverse:
        edges.extend(pairs if starts is None else [pair for pair in pairs if pair[0] in starts])
    elif starts is None:
        edges.extend([(obj, subject) for subject, obj in pairs])
    else:
        edges.extend([(obj, subject) for subject, obj in pairs if obj in starts])


def expand_frontier_local(
    store,
    forward_pids: Sequence[int],
    inverse_pids: Sequence[int],
    frontier_ids: Sequence[int],
    frontier_literals: Sequence[Literal],
) -> Tuple[List[int], List[Literal]]:
    """One BFS round against one store: the sequential frontier expansion.

    Returns the sorted distinct instance identifiers and literals reachable
    in exactly one step — forward over ``forward_pids`` and backward over
    ``inverse_pids`` — through :func:`stored_edges`.

    This is the ``expand`` work unit (:mod:`repro.query.units`) every
    scatter transport runs, one per shard.  It must stay a
    pure function of the store snapshot — the union of sorted distinct
    per-shard results equals the monolithic result.
    """
    frontier = [*frontier_ids, *frontier_literals]
    ends = {end for _, end in stored_edges(store, forward_pids, False, frontier)}
    ends.update(end for _, end in stored_edges(store, inverse_pids, True, frontier))
    ids = sorted(end for end in ends if isinstance(end, int))
    return ids, _sorted_terms(end for end in ends if isinstance(end, Literal))


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
    shape — a closure over it is closed over its inner relation instead.
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
    id-steppable (:func:`compile_link_alternation`); everything else names
    the top-level algebra node.
    """
    if isinstance(path, (PathZeroOrMore, PathOneOrMore)):
        form = "zero-or-more" if isinstance(path, PathZeroOrMore) else "one-or-more"
        steppable = compile_link_alternation(path.path, lambda _: ()) is not None
        return f"{form}/{'interval-bfs' if steppable else 'term-bfs'}"
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

    def evaluate(self, pattern: PropertyPathPattern, binding: Binding) -> Iterator[Binding]:
        """Yield the bindings extending ``binding`` that satisfy ``pattern``."""
        return rows(self.evaluate_many(pattern, [Batch(binding.layout, [binding.row])]))

    def evaluate_many(self, pattern: PropertyPathPattern, upstream: Iterable[Batch]) -> Iterator[Batch]:
        """Bind-propagation join of upstream batches with one path pattern.

        Rows stay id rows: each row, in order, is extended with its path ends
        as nodes, in :func:`path_sort_key` order (a bound subject's targets,
        a bound object's sources, or every pair when neither is bound), or
        kept when both ends are bound and the path holds.  The relation is
        evaluated once per batch, for the start nodes the stream has not
        met before (once in all for the all-pairs relation).
        """
        instances = self.store.instances
        memo: Dict[Tuple[str, Node], object] = {}  # (direction, start) -> its ends
        pairs: Optional[List[Tuple[Node, Node]]] = None
        for batch in upstream:
            layout, found = batch.layout.owned(instances), batch.rows
            if layout is None:  # ids of another dictionary: go by the terms
                decoded = [Binding(binding.as_dict()) for binding in rows([batch])]
                layout, found = decoded[0].layout.owned(instances), [binding.row for binding in decoded]
            subject = self._endpoint(pattern.subject, layout, found)
            obj = self._endpoint(pattern.object, layout, found)
            if subject.__class__ is list and obj.__class__ is list:
                self._ends(pattern.path, "holds", subject, memo)
                kept = [row for row, start, end in zip(found, subject, obj) if end in memo["holds", start]]
                extended = [Batch(layout, kept)] if kept else []
            elif subject.__class__ is list or obj.__class__ is list:
                direction, starts, name = (
                    ("forward", subject, obj) if subject.__class__ is list else ("inverse", obj, subject)
                )
                self._ends(pattern.path, direction, starts, memo)
                extended = _cut(layout.child(name), [
                    row + (end,) for row, start in zip(found, starts) for end in memo[direction, start]
                ])
            else:
                if pairs is None:
                    pairs = self._pairs(pattern.path)
                if subject == obj:
                    diagonal = [(start,) for start, end in pairs if start == end]
                    extended = _cut(layout.child(subject), [row + pair for row in found for pair in diagonal])
                else:
                    extended = _cut(
                        layout.child(subject).child(obj), [row + pair for row in found for pair in pairs]
                    )
            yield from extended

    def _endpoint(self, slot, layout: Layout, found: List[tuple]):
        """An unbound variable's name, else the node of each row's endpoint."""
        if isinstance(slot, Variable):
            column = layout.columns.get(slot.name)
            if column is None:
                return slot.name
            values = [row[column] for row in found]
            return [value if value.__class__ is int else self._node(value) for value in values]
        return [self._node(slot)] * len(found)

    def _ends(self, path: PathExpression, direction: str, starts: List[Node], memo: dict) -> None:
        """Fill ``memo[direction, start]`` for each start not in it yet.

        ``"forward"``: the ends of ``path`` in canonical order (multiset);
        ``"inverse"``: those of the inverse path; ``"holds"``: the set of ends.
        """
        missing = {start for start in starts if (direction, start) not in memo}
        if not missing:
            return
        relation = self._relation(invert_path(path) if direction == "inverse" else path, missing, True)
        ends = _group_pairs(relation)
        if direction == "holds":
            memo.update(((direction, start), set(ends.get(start, ()))) for start in missing)
            return
        ranks = self._ranks({end for _, end in relation})
        for start in missing:
            memo[direction, start] = sorted(ends.get(start, ()), key=ranks.__getitem__)

    def _pairs(self, path: PathExpression) -> List[Tuple[Node, Node]]:
        """All ``(s, o)`` node pairs with ``s path o``, sorted on both terms (multiset)."""
        relation = self._relation(path, None, False)
        ranks = self._ranks(set(chain.from_iterable(relation)))
        width = len(ranks)
        relation.sort(key=lambda pair: ranks[pair[0]] * width + ranks[pair[1]])
        return relation

    def _node(self, term: Term) -> Node:
        """The node of ``term``: its instance identifier, else the term."""
        if isinstance(term, Literal):
            return term
        identifier = self.store.instances.try_locate(term)
        return term if identifier is None else identifier

    def _ranks(self, nodes: Set[Node]) -> Dict[Node, int]:
        """``node -> its position`` among ``nodes`` in :func:`path_sort_key` order."""
        extract = self.store.instances.extract
        nodes = list(nodes)
        keys = [path_sort_key(extract(node) if isinstance(node, int) else node) for node in nodes]
        order = sorted(range(len(nodes)), key=keys.__getitem__)
        return {nodes[index]: rank for rank, index in enumerate(order)}

    # ------------------------------------------------------------------ #
    # the relation of a path
    # ------------------------------------------------------------------ #

    def _relation(
        self, path: PathExpression, starts: Optional[Set[Node]], one_sided: bool
    ) -> List[Tuple[Node, Node]]:
        """The multiset of ``(start, end)`` node pairs of ``path``.

        ``starts`` keeps the pairs leaving those nodes; ``None`` means every
        start.  ``one_sided`` selects the semantics of a bound endpoint over
        that of the all-pairs relation (both documented in
        ``docs/sparql_support.md``): a bound subject's ``rdf:type`` classes
        and a bound class's subjects come once each, where the relation
        keeps one pair per stored typing, and a zero-length path matches
        any start, where the relation's domain is :meth:`_graph_nodes`.
        """
        if isinstance(path, PathLink):
            return self._link(path.predicate, False, starts, one_sided)
        if isinstance(path, PathInverse):
            if isinstance(path.path, PathLink):
                return self._link(path.path.predicate, True, starts, one_sided)
            return self._relation(invert_path(path.path), starts, one_sided)
        if isinstance(path, PathSequence):
            pairs = self._relation(path.steps[0], starts, one_sided)
            for step in path.steps[1:]:
                if not pairs:
                    return []
                mids = {mid for _, mid in pairs}
                following = _group_pairs(self._relation(step, mids, one_sided))
                pairs = [
                    (start, end) for start, mid in pairs for end in following.get(mid, ())
                ]
            return pairs
        if isinstance(path, PathAlternative):
            return [
                pair
                for branch in path.branches
                for pair in self._relation(branch, starts, one_sided)
            ]
        if isinstance(path, PathNegatedSet):
            return self._negated(path, starts, one_sided)
        if isinstance(path, PathZeroOrOne):
            closed = set(self._relation(path.path, starts, one_sided))
        elif isinstance(path, (PathZeroOrMore, PathOneOrMore)):
            closed = self._closure(path.path, starts, one_sided)
            if isinstance(path, PathOneOrMore):
                return list(closed)
        else:
            raise TypeError(f"unknown path node {type(path).__name__}")
        if one_sided:
            closed.update((node, node) for node in starts)
        else:
            nodes = self._graph_nodes()
            closed.update((node, node) for node in (nodes if starts is None else nodes & starts))
        return list(closed)

    def _link(
        self, predicate: URI, inverse: bool, starts: Optional[Set[Node]], one_sided: bool
    ) -> List[Tuple[Node, Node]]:
        """One link step (``inverse``: against the edge direction)."""
        if predicate == RDF_TYPE:
            return self._type_edges(inverse, starts, one_sided, widen=True)
        property_ids = self.inner._candidate_property_ids(predicate)
        return stored_edges(self.store, property_ids, inverse, starts)

    def _type_edges(
        self, inverse: bool, starts: Optional[Set[Node]], one_sided: bool, widen: bool
    ) -> List[Tuple[Node, Node]]:
        """``rdf:type`` edges: subject → class, or class → subject when ``inverse``.

        ``widen`` (a path link) answers each stored typing with its class
        and, under reasoning, the superclasses (``_expand_concept``); a
        negated set matches the explicit class only.  One-sided, a bound
        subject's classes and a bound class's subjects come once each, like
        the ``rdf:type`` triple pattern; the all-pairs relation keeps one
        pair per stored typing.
        """
        store = self.store
        type_store = store.type_store
        if one_sided and inverse:
            pairs = []
            for start in starts:
                concept = store.instances.extract(start) if isinstance(start, int) else start
                concept_id = store.concepts.try_locate(concept) if isinstance(concept, URI) else None
                if concept_id is None:
                    continue
                if widen and self.reasoning:
                    subjects = type_store.subjects_of_interval(*store.concepts.interval(concept))
                else:
                    subjects = type_store.subjects_of(concept_id)
                pairs.extend((start, subject) for subject in subjects)
            return pairs

        classes: Dict[int, List[Node]] = {}

        def classes_of(concept_id: int) -> List[Node]:
            found = classes.get(concept_id)
            if found is None:
                if widen:
                    terms = self.inner._expand_concept(concept_id)
                else:
                    concept = store.concepts.extract(concept_id)
                    terms = [concept] if isinstance(concept, URI) else []
                found = classes[concept_id] = [self._node(term) for term in terms]
            return found

        if starts is None or inverse:
            typings = type_store.iter_triples()
        else:
            typings = (
                (subject, concept_id)
                for subject in starts
                if isinstance(subject, int)
                for concept_id in type_store.concepts_of(subject)
            )
        pairs = [(subject, node) for subject, concept_id in typings for node in classes_of(concept_id)]
        if one_sided:
            return list(dict.fromkeys(pairs))
        if inverse:
            # Inverse typings from given classes: filter the swapped relation
            # (``pairs_in_interval`` is a base type-store primitive only).
            pairs = [(node, subject) for subject, node in pairs]
            if starts is not None:
                pairs = [pair for pair in pairs if pair[0] in starts]
        return pairs

    def _property_ids(self) -> List[int]:
        """Every stored property identifier, ascending."""
        store = self.store
        return sorted(set(store.object_store.properties) | set(store.datatype_store.properties))

    def _negated(
        self, path: PathNegatedSet, starts: Optional[Set[Node]], one_sided: bool
    ) -> List[Tuple[Node, Node]]:
        """NPS semantics: explicit stored predicates only, no expansion.

        Matches the engine's unbound-predicate evaluation: each stored
        predicate stands for itself (no LiteMat interval widening), and
        ``rdf:type`` edges match through their explicit concept.  Per
        §18.2.2.3 a set splits into ``NPS(forward members)`` and
        ``inv(NPS(inverse members))``: the forward direction applies iff a
        forward member exists or the set has no inverse member, so
        ``!(^p)`` matches inverse edges only.
        """
        extract = self.store.properties.extract
        pairs: List[Tuple[Node, Node]] = []
        for inverse, members in ((False, path.forward), (True, path.inverse)):
            if not members and (inverse or path.inverse):
                continue
            excluded = set(members)
            kept = [pid for pid in self._property_ids() if extract(pid) not in excluded]
            pairs.extend(stored_edges(self.store, kept, inverse, starts))
            if RDF_TYPE not in excluded:
                pairs.extend(self._type_edges(inverse, starts, one_sided, widen=False))
        return pairs

    def _graph_nodes(self) -> Set[Node]:
        """Every node of an explicit triple: the all-pairs zero-length domain.

        Inferred terms (hierarchy expansions) are *not* included — the
        zero-length path matches what is stored, a deviation documented in
        ``docs/sparql_support.md``.
        """
        pairs = stored_edges(self.store, self._property_ids(), False, None)
        pairs.extend(self._type_edges(False, None, False, widen=False))
        return {node for pair in pairs for node in pair}

    # ------------------------------------------------------------------ #
    # the closure (ALP)
    # ------------------------------------------------------------------ #

    def _closure(
        self, inner: PathExpression, starts: Optional[Set[Node]], one_sided: bool
    ) -> Set[Tuple[Node, Node]]:
        """Distinct ``(start, end)`` pairs joined by one or more ``inner`` steps.

        From bound starts, a link alternation runs the id-level BFS through
        the backend's ``expand_frontier`` hook per start; any other inner
        path is expanded from the starts, one relation per BFS level, into
        an adjacency map.  The all-pairs relation closes the whole inner
        relation once, whatever ``starts`` it is restricted to.
        """
        if one_sided:
            compiled = compile_link_alternation(inner, self.inner._candidate_property_ids)
            if compiled is not None:
                return {(start, end) for start in starts for end in self._reach(compiled, start)}
            adjacency: Dict[Node, List[Node]] = {}
            frontier = set(starts)
            while frontier:
                adjacency.update((node, []) for node in frontier)
                for start, end in self._relation(inner, frontier, True):
                    adjacency[start].append(end)
                frontier = {end for node in frontier for end in adjacency[node] if end not in adjacency}
        else:
            adjacency = _group_pairs(set(self._relation(inner, None, False)))
            if starts is None:
                starts = list(adjacency)
        closed: Set[Tuple[Node, Node]] = set()
        for start in starts:
            reached: Set[Node] = set()
            stack = list(adjacency.get(start, ()))
            while stack:
                node = stack.pop()
                if node not in reached:
                    reached.add(node)
                    stack.extend(adjacency.get(node, ()))
            closed.update((start, end) for end in reached)
        return closed

    def _reach(self, compiled: Tuple[Tuple[int, ...], Tuple[int, ...]], start: Node) -> Set[Node]:
        """Nodes one or more steps from ``start``: one ``expand_frontier`` round per level."""
        forward_pids, inverse_pids = compiled
        # A term without an instance id (a class, an unknown term) has no edges.
        ids = [start] if isinstance(start, int) else []
        literals = [start] if isinstance(start, Literal) else []
        expanded: Set[Node] = {start}
        reached: Set[Node] = set()
        while ids or literals:
            new_ids, new_literals = self.evaluator.expand_frontier(
                forward_pids, inverse_pids, ids, literals
            )
            reached.update(new_ids, new_literals)
            ids = [node for node in new_ids if node not in expanded]
            literals = [node for node in new_literals if node not in expanded]
            expanded.update(ids, literals)
        return reached
