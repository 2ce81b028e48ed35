"""The original list-materializing SELECT engine, kept as a reference oracle.

This is the seed repository's :class:`QueryEngine` evaluation strategy: every
operator consumes and produces a fully materialized ``List[Binding]``.  The
streaming engine (:mod:`repro.query.engine`) replaced it as the production
path, but the materializing evaluator is retained because

* it is an independent implementation the differential tests compare the
  streaming pipeline against (both must return byte-identical results on the
  paper's query workload), and
* the streaming-vs-materializing benchmark uses it to show the kernel-call
  and latency effect of early termination (``LIMIT``/``ASK``/top-k).

Both engines share the planner
(:class:`~repro.query.optimizer.CostBasedJoinOrderOptimizer`: the same join
orders), the triple-pattern evaluator and the solution-modifier algebra
(:mod:`repro.sparql.algebra`).  The oracle bind-joins every BGP step and
joins UNION branches and VALUES rows with plain nested loops, so
differences can only come from the operator evaluation strategy under test.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple, Union as TypingUnion

from repro.query.optimizer import CostBasedJoinOrderOptimizer
from repro.query.paths import path_sort_key
from repro.query.plan import PhysicalPlan
from repro.query.tp_eval import TriplePatternEvaluator
from repro.rdf.namespaces import RDF_TYPE
from repro.rdf.terms import Term, URI
from repro.sparql.algebra import apply_solution_modifiers, values_bindings
from repro.sparql.ast import (
    AskQuery,
    GroupGraphPattern,
    PathAlternative,
    PathInverse,
    PathLink,
    PathNegatedSet,
    PathOneOrMore,
    PathSequence,
    PathZeroOrMore,
    PathZeroOrOne,
    Query,
    SelectQuery,
    TriplePattern,
)
from repro.sparql.bindings import AskResult, Binding, ResultSet
from repro.sparql.expressions import evaluate_bind, evaluate_filter
from repro.sparql.parser import parse_query
from repro.store.succinct_edge import SuccinctEdge


class NaivePathOracle:
    """Reference property-path evaluation by naive scans over an edge list.

    The differential counterpart to :class:`~repro.query.paths.PathEvaluator`:
    every explicit triple is materialized once into a flat Python list, each
    path form is evaluated by full scans and term-level fixpoints over that
    list — no id frontiers, no probe/scan choice, no batched accessors — and
    results are emitted in the shared canonical order
    (:func:`~repro.query.paths.path_sort_key`, the only code the two
    implementations have in common).  Reasoning is answered structurally:
    a predicate matches every stored property whose identifier falls in its
    LiteMat interval, and explicit concepts expand through
    ``schema.superconcepts`` — independent re-statements of the interval
    probes the production evaluator issues.
    """

    def __init__(self, store: SuccinctEdge, reasoning: bool = True) -> None:
        self.store = store
        self.reasoning = reasoning
        self._edges: Optional[List[Tuple[Term, Optional[int], Term]]] = None
        self._edges_version: Optional[int] = None

    # -- the materialized edge list ------------------------------------- #

    def edges(self) -> List[Tuple[Term, Optional[int], Term]]:
        """Explicit triples as ``(subject, property id | None, object)`` rows.

        ``None`` in the property slot marks an ``rdf:type`` edge (the object
        is the *explicit* stored concept).  Rebuilt whenever the statistics
        version moves, so delta writes are visible.
        """
        statistics = self.store.statistics
        version = None if statistics is None else statistics.version
        if self._edges is not None and version == self._edges_version:
            return self._edges
        store = self.store
        rows: List[Tuple[Term, Optional[int], Term]] = []
        extract = store.instances.extract
        for property_id in store.object_store.properties:
            for subject_id, object_id in store.object_store.pairs_for_property(property_id):
                rows.append((extract(subject_id), property_id, extract(object_id)))
        for property_id in store.datatype_store.properties:
            for subject_id, literal in store.datatype_store.pairs_for_property(property_id):
                rows.append((extract(subject_id), property_id, literal))
        extract_concept = store.concepts.extract
        for subject_id, concept_id in store.type_store.iter_triples():
            concept = extract_concept(concept_id)
            if concept is not None:
                rows.append((extract(subject_id), None, concept))
        self._edges = rows
        self._edges_version = version
        return rows

    def _matching_property_ids(self, predicate: URI) -> Set[int]:
        """Stored property ids ``predicate`` stands for (interval containment)."""
        store = self.store
        stored = {pid for _, pid, _ in self.edges() if pid is not None}
        if not self.reasoning:
            property_id = store.properties.try_locate(predicate)
            return {property_id} & stored if property_id is not None else set()
        if predicate not in store.properties:
            return set()
        low, high = store.properties.interval(predicate)
        return {pid for pid in stored if low <= pid < high}

    def _expand_concept_term(self, concept: URI) -> List[URI]:
        if not self.reasoning:
            return [concept]
        return self.store.schema.superconcepts(concept, include_self=True)

    def _concept_matches(self, stored: URI, queried: URI) -> bool:
        return queried in self._expand_concept_term(stored)

    def graph_terms(self) -> List[Term]:
        """The zero-length-path domain: terms of explicit triples, sorted."""
        terms: Set[Term] = set()
        for subject, _, obj in self.edges():
            terms.add(subject)
            terms.add(obj)
        return sorted(terms, key=path_sort_key)

    # -- the relation of one path (multiset of pairs) -------------------- #

    def relation(self, path) -> List[Tuple[Term, Term]]:
        """All ``(subject, object)`` pairs of ``path``, as a multiset."""
        if isinstance(path, PathLink):
            return self._link_relation(path.predicate)
        if isinstance(path, PathInverse):
            return [(o, s) for s, o in self.relation(path.path)]
        if isinstance(path, PathSequence):
            pairs = self.relation(path.steps[0])
            for step in path.steps[1:]:
                right = self.relation(step)
                pairs = [
                    (s, o2) for s, o1 in pairs for s2, o2 in right if o1 == s2
                ]
            return pairs
        if isinstance(path, PathAlternative):
            pairs = []
            for branch in path.branches:
                pairs.extend(self.relation(branch))
            return pairs
        if isinstance(path, PathZeroOrOne):
            distinct = {(t, t) for t in self.graph_terms()}
            distinct.update(self.relation(path.path))
            return list(distinct)
        if isinstance(path, PathZeroOrMore):
            closed = self._closure(self.relation(path.path))
            closed.update((t, t) for t in self.graph_terms())
            return list(closed)
        if isinstance(path, PathOneOrMore):
            return list(self._closure(self.relation(path.path)))
        if isinstance(path, PathNegatedSet):
            return self._negated_relation(path)
        raise TypeError(f"unknown path node {type(path).__name__}")

    def _link_relation(self, predicate: URI) -> List[Tuple[Term, Term]]:
        if predicate == RDF_TYPE:
            return [
                (subject, expanded)
                for subject, pid, concept in self.edges()
                if pid is None
                for expanded in self._expand_concept_term(concept)
            ]
        matching = self._matching_property_ids(predicate)
        return [
            (subject, obj)
            for subject, pid, obj in self.edges()
            if pid is not None and pid in matching
        ]

    def _negated_relation(self, path: PathNegatedSet) -> List[Tuple[Term, Term]]:
        """NPS over explicit edges: each stored predicate stands for itself."""
        store = self.store
        extract_property = store.properties.extract
        forward_excluded = set(path.forward)
        pairs: List[Tuple[Term, Term]] = []
        # Per §18.2.2.3 the forward direction applies iff the set has a
        # forward member (or no inverse members at all): ``!(^p)`` matches
        # inverse edges only.
        if path.forward or not path.inverse:
            for subject, pid, obj in self.edges():
                predicate = RDF_TYPE if pid is None else extract_property(pid)
                if predicate not in forward_excluded:
                    pairs.append((subject, obj))
        if path.inverse:
            inverse_excluded = set(path.inverse)
            for subject, pid, obj in self.edges():
                predicate = RDF_TYPE if pid is None else extract_property(pid)
                if predicate not in inverse_excluded:
                    pairs.append((obj, subject))
        return pairs

    @staticmethod
    def _closure(relation: List[Tuple[Term, Term]]) -> Set[Tuple[Term, Term]]:
        """Transitive closure by iterating to a fixpoint (naive, not semi-naive).

        Each round joins every closed pair with every closed pair leaving its
        end, found through an index of the round's pairs by start node.
        """
        closed: Set[Tuple[Term, Term]] = set(relation)
        while True:
            leaving: Dict[Term, List[Term]] = {}
            for start, end in closed:
                leaving.setdefault(start, []).append(end)
            additions = {
                (s, o2)
                for s, o1 in closed
                for o2 in leaving.get(o1, ())
                if (s, o2) not in closed
            }
            if not additions:
                return closed
            closed.update(additions)

    # -- one-sided evaluation (zero-length paths hold off-graph too) ------ #

    def targets(self, path, start: Term) -> List[Term]:
        """The multiset of path ends from ``start``.

        Not a filter over :meth:`relation`: the zero-length forms match
        ``start`` to itself even when it occurs in no explicit triple (the
        spec's ALP evaluation starts from the given term), which a
        graph-pair filter would miss.
        """
        if isinstance(path, PathLink):
            matches = [o for s, o in self._link_relation(path.predicate) if s == start]
            if path.predicate == RDF_TYPE:
                # Mirror triple-pattern evaluation: a bound subject's types
                # are deduplicated across its explicit concepts (two stored
                # concepts sharing a superconcept yield it once).
                return list(set(matches))
            return matches
        if isinstance(path, PathInverse):
            return self.sources(path.path, start)
        if isinstance(path, PathSequence):
            frontier: List[Term] = [start]
            for step in path.steps:
                frontier = [o for term in frontier for o in self.targets(step, term)]
            return frontier
        if isinstance(path, PathAlternative):
            return [o for branch in path.branches for o in self.targets(branch, start)]
        if isinstance(path, PathZeroOrOne):
            return list({start} | set(self.targets(path.path, start)))
        if isinstance(path, PathZeroOrMore):
            closed = self._closure(self.relation(path.path))
            return list({o for s, o in closed if s == start} | {start})
        if isinstance(path, PathOneOrMore):
            # The first step is one-sided (``start`` may be off-graph, and a
            # zero-length inner path matches it to itself, §18.4); the
            # graph-pair closure continues from there.
            first = set(self.targets(path.path, start))
            closed = self._closure(self.relation(path.path))
            return list(first | {o for s, o in closed if s in first})
        if isinstance(path, PathNegatedSet):
            return [o for s, o in self._negated_relation(path) if s == start]
        raise TypeError(f"unknown path node {type(path).__name__}")

    def sources(self, path, end: Term) -> List[Term]:
        """The multiset of path starts reaching ``end`` (mirror of :meth:`targets`)."""
        if isinstance(path, PathLink):
            matches = [s for s, o in self._link_relation(path.predicate) if o == end]
            if path.predicate == RDF_TYPE:
                # Mirror triple-pattern evaluation: a bound class's subjects
                # are deduplicated across their explicit concepts (a subject
                # typed with two subclasses of ``end`` yields it once).
                return list(set(matches))
            return matches
        if isinstance(path, PathInverse):
            return self.targets(path.path, end)
        if isinstance(path, PathSequence):
            frontier: List[Term] = [end]
            for step in reversed(path.steps):
                frontier = [s for term in frontier for s in self.sources(step, term)]
            return frontier
        if isinstance(path, PathAlternative):
            return [s for branch in path.branches for s in self.sources(branch, end)]
        if isinstance(path, PathZeroOrOne):
            return list({end} | set(self.sources(path.path, end)))
        if isinstance(path, PathZeroOrMore):
            closed = self._closure(self.relation(path.path))
            return list({s for s, o in closed if o == end} | {end})
        if isinstance(path, PathOneOrMore):
            last = set(self.sources(path.path, end))
            closed = self._closure(self.relation(path.path))
            return list(last | {s for s, o in closed if o in last})
        if isinstance(path, PathNegatedSet):
            return [s for s, o in self._negated_relation(path) if o == end]
        raise TypeError(f"unknown path node {type(path).__name__}")

    # -- binding evaluation (same four endpoint shapes as production) ----- #

    def evaluate(self, pattern, binding: Binding) -> List[Binding]:
        """Extensions of ``binding`` under ``pattern``, in canonical order."""
        subject_term, subject_var = TriplePatternEvaluator._resolve(
            pattern.subject, binding
        )
        object_term, object_var = TriplePatternEvaluator._resolve(
            pattern.object, binding
        )
        if subject_term is not None and object_term is not None:
            held = object_term in set(self.targets(pattern.path, subject_term))
            return [binding] if held else []
        if subject_term is not None:
            targets = sorted(self.targets(pattern.path, subject_term), key=path_sort_key)
            return [binding.extended(object_var, value) for value in targets]
        if object_term is not None:
            sources = sorted(self.sources(pattern.path, object_term), key=path_sort_key)
            return [binding.extended(subject_var, value) for value in sources]
        ordered = sorted(
            self.relation(pattern.path),
            key=lambda pair: (path_sort_key(pair[0]), path_sort_key(pair[1])),
        )
        results: List[Binding] = []
        if subject_var == object_var:
            for source, target in ordered:
                if source == target:
                    results.append(binding.extended(subject_var, source))
            return results
        base = binding.as_dict()
        for source, target in ordered:
            values = dict(base)
            values[subject_var] = source
            values[object_var] = target
            results.append(Binding._adopt(values))
        return results

    def evaluate_many(self, pattern, bindings: List[Binding]) -> List[Binding]:
        """Bind-propagation join of ``bindings`` with one path pattern."""
        results: List[Binding] = []
        for binding in bindings:
            results.extend(self.evaluate(pattern, binding))
        return results


class MaterializingQueryEngine:
    """Evaluates queries with fully materialized intermediate binding lists.

    Accepts the same queries and produces the same results (in the same
    order) as the streaming :class:`~repro.query.engine.QueryEngine`; only
    the evaluation strategy differs.  See the module docstring for why it is
    kept.
    """

    def __init__(self, store: SuccinctEdge, reasoning: bool = True) -> None:
        self.store = store
        self.reasoning = reasoning
        self.evaluator = TriplePatternEvaluator(store, reasoning=reasoning)
        self.optimizer = CostBasedJoinOrderOptimizer(
            statistics=store.statistics,
            runtime_estimator=self.evaluator.estimate_cardinality,
            reasoning=reasoning,
        )
        # Same per-BGP plan cache as the streaming engine: seeded OPTIONAL
        # evaluation would otherwise re-plan the group once per outer row.
        self._plan_cache: Dict[Tuple[TriplePattern, ...], "PhysicalPlan"] = {}
        #: The naive reference implementation of property paths (the
        #: differential counterpart of the id-level path evaluator).
        self.paths_oracle = NaivePathOracle(store, reasoning=reasoning)

    def _plan_bgp(self, patterns: List[TriplePattern]):
        """The (cached) physical plan for one BGP."""
        key = tuple(patterns)
        plan = self._plan_cache.get(key)
        if plan is None:
            plan = self.optimizer.optimize(patterns)
            self._plan_cache[key] = plan
        return plan

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #

    def execute(
        self, query: TypingUnion[str, Query]
    ) -> TypingUnion[ResultSet, AskResult]:
        """Parse (if needed) and execute a SELECT or ASK query."""
        parsed = parse_query(query) if isinstance(query, str) else query
        if isinstance(parsed, AskQuery):
            return AskResult(bool(self._evaluate_group(parsed.where)))
        assert isinstance(parsed, SelectQuery)
        bindings = self._evaluate_group(parsed.where)
        return apply_solution_modifiers(parsed, bindings)

    # ------------------------------------------------------------------ #
    # group evaluation
    # ------------------------------------------------------------------ #

    def _evaluate_group(
        self, group: GroupGraphPattern, seed: Optional[Binding] = None
    ) -> List[Binding]:
        bindings = self._evaluate_bgp(list(group.bgp.patterns), seed or Binding())
        if group.paths:
            # Same placement as the streaming engine (the shared optimizer
            # orders the steps); only the path evaluation itself is naive.
            bound = {
                name
                for pattern in group.bgp.patterns
                for name in pattern.variable_names()
            }
            for step in self.optimizer.plan_paths(list(group.paths), bound):
                bindings = self.paths_oracle.evaluate_many(step.pattern, bindings)
        for union in group.unions:
            union_bindings: List[Binding] = []
            for branch in union.branches:
                union_bindings.extend(self._evaluate_group(branch))
            bindings = self._combine(bindings, union_bindings)
        for optional in group.optionals:
            joined: List[Binding] = []
            for binding in bindings:
                extensions = self._evaluate_group(optional, seed=binding)
                joined.extend(extensions if extensions else [binding])
            bindings = joined
        for block in group.values:
            bindings = self._combine(bindings, values_bindings(block))
        for bind in group.binds:
            extended: List[Binding] = []
            for binding in bindings:
                value = evaluate_bind(bind.expression, binding)
                if value is None:
                    extended.append(binding)
                else:
                    extended.append(binding.extended(bind.variable.name, value))
            bindings = extended
        for constraint in group.filters:
            bindings = [b for b in bindings if evaluate_filter(constraint.expression, b)]
        return bindings

    @staticmethod
    def _combine(left: List[Binding], right: List[Binding]) -> List[Binding]:
        """Join two binding sets on their shared variables (nested loop)."""
        combined: List[Binding] = []
        for left_binding in left:
            for right_binding in right:
                merged = left_binding.merged(right_binding)
                if merged is not None:
                    combined.append(merged)
        return combined

    # ------------------------------------------------------------------ #
    # BGP evaluation (left-deep plan)
    # ------------------------------------------------------------------ #

    def _evaluate_bgp(self, patterns: List[TriplePattern], seed: Binding) -> List[Binding]:
        if not patterns:
            return [seed]
        current: List[Binding] = [seed]
        for step in self._plan_bgp(patterns).steps:
            current = self._bind_propagation_join(current, step.pattern)
        return current

    def _bind_propagation_join(
        self, current: List[Binding], pattern: TriplePattern
    ) -> List[Binding]:
        """Index nested-loop join: propagate each binding into the pattern."""
        results: List[Binding] = []
        for binding in current:
            results.extend(self.evaluator.evaluate(pattern, binding))
        return results
