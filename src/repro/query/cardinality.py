"""Join-aware cardinality estimation for the cost-based planner.

The paper's Algorithm 1 estimates a triple pattern as the *minimum* over the
occurrence counts of its constant slots — an independence bound that says
nothing about how patterns combine.  The cost-based planner estimates with
this module instead:

* **per-pattern estimates** come from the :class:`~repro.dictionary.statistics.PropertyProfile`
  rows collected at build time (triples ``T``, distinct subjects ``DS``,
  distinct objects ``DO``): a bound subject keeps ``T / DS`` rows, a bound
  object ``T / DO``, and reasoning-mode patterns use the profile summed over
  the predicate's LiteMat interval;
* **join estimates** chain selectivities System-R style:
  ``|L ⋈v R| = |L| · |R| / max(V(L, v), V(R, v))`` with per-variable
  distinct-value counts ``V`` tracked through the plan prefix;
* **star refinement** uses the characteristic-set summary: a subject star
  (all patterns sharing one subject variable, each resolving to a single
  stored property/concept) is estimated directly from the signatures real
  subjects exhibit, which captures the correlation the independence
  assumption misses.

Everything degrades gracefully: no profiles → dictionary occurrence counts;
no statistics at all → the runtime estimator (Algorithm-2 SDS counts), and
finally a shape-rank pseudo-cardinality so planning stays deterministic on
empty stores.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.dictionary.statistics import DictionaryStatistics, Marker
from repro.rdf.terms import URI
from repro.sparql.ast import TriplePattern, Variable

#: Pseudo-cardinalities per pattern shape, used only when no statistics and
#: no runtime estimator are available (mirrors the Heuristic-1 ranks so the
#: fallback ordering matches the paper's planner).
_SHAPE_FALLBACK = {
    "s,p,o": 1.0,
    "s,?p,o": 2.0,
    "s,p,?o": 32.0,
    "?s,p,o": 64.0,
    "s,?p,?o": 256.0,
    "?s,p,?o": 256.0,
    "?s,?p,o": 256.0,
    "?s,?p,?o": 1024.0,
}


@dataclass
class PatternEstimate:
    """Base statistics of one triple pattern, before any join context.

    ``rows`` is the expected result size of evaluating the pattern alone;
    ``subject_distinct`` / ``object_distinct`` estimate the distinct values a
    *variable* in that slot would take (meaningless for constant slots);
    ``probe_width`` is the number of candidate property identifiers one
    evaluation probes (> 1 for reasoning-mode predicates with stored
    sub-properties); ``marker`` is the characteristic-set marker when the
    pattern resolves to exactly one stored property/concept.
    """

    rows: float
    subject_distinct: float = 1.0
    object_distinct: float = 1.0
    probe_width: float = 1.0
    marker: Optional[Marker] = None

    def distinct_for(self, name: str, pattern: TriplePattern) -> float:
        """Distinct-value estimate of variable ``name`` within this pattern."""
        values: List[float] = []
        if isinstance(pattern.subject, Variable) and pattern.subject.name == name:
            values.append(self.subject_distinct)
        if isinstance(pattern.object, Variable) and pattern.object.name == name:
            values.append(self.object_distinct)
        if isinstance(pattern.predicate, Variable) and pattern.predicate.name == name:
            values.append(max(1.0, self.probe_width))
        return min(values) if values else 1.0


@dataclass
class JoinState:
    """The estimator's view of a plan prefix: rows plus per-variable distincts."""

    rows: float
    var_distinct: Dict[str, float] = field(default_factory=dict)

    def copy(self) -> "JoinState":
        """An independent copy (DP transitions must not share the dict)."""
        return JoinState(rows=self.rows, var_distinct=dict(self.var_distinct))


class CardinalityEstimator:
    """Join-aware estimates over one store's statistics.

    Parameters
    ----------
    statistics:
        The store's :class:`DictionaryStatistics` (``None`` degrades to the
        runtime estimator / shape fallbacks).
    reasoning:
        Whether predicate/concept constants expand over their LiteMat
        hierarchy intervals (the engine's reasoning mode must match, or the
        estimates describe a different evaluation).
    runtime_estimator:
        Optional Algorithm-2 fallback computing exact pattern counts on the
        SDS rank/select directories.
    """

    def __init__(
        self,
        statistics: Optional[DictionaryStatistics] = None,
        reasoning: bool = True,
        runtime_estimator: Optional[Callable[[TriplePattern], int]] = None,
    ) -> None:
        self.statistics = statistics
        self.reasoning = reasoning
        self.runtime_estimator = runtime_estimator
        #: Per-pattern estimates are pure functions of (pattern, statistics
        #: version); the cache is checked against the version so delta
        #: writes invalidate it.
        self._cache: Dict[TriplePattern, PatternEstimate] = {}
        self._cache_version: Optional[int] = None

    # ------------------------------------------------------------------ #
    # per-pattern estimates
    # ------------------------------------------------------------------ #

    def estimate_pattern(self, pattern: TriplePattern) -> PatternEstimate:
        """The (cached) base estimate of one triple pattern.

        Thread note: engines (and with them this estimator) are shared
        across serving worker threads while writes bump the statistics
        version.  The version is captured before computing and re-checked
        before storing, so an estimate computed under an older version is
        never pinned into the fresh cache generation.
        """
        version = self.statistics.version if self.statistics is not None else None
        if version != self._cache_version:
            self._cache = {}
            self._cache_version = version
        cache = self._cache
        cached = cache.get(pattern)
        if cached is None:
            cached = self._estimate_pattern(pattern)
            if self._cache_version == version and self._cache is cache:
                cache[pattern] = cached
        return cached

    def _estimate_pattern(self, pattern: TriplePattern) -> PatternEstimate:
        stats = self.statistics
        if stats is None:
            return self._fallback_estimate(pattern)
        subject_bound = not isinstance(pattern.subject, Variable)
        object_bound = not isinstance(pattern.object, Variable)
        if isinstance(pattern.predicate, Variable):
            total = float(stats.total_triple_mass() + stats.type_triple_count)
            universe = float(max(1, stats.instance_universe))
            rows = total
            if subject_bound:
                rows = float(stats.instance_cardinality(pattern.subject))
            elif object_bound:
                if isinstance(pattern.object, URI):
                    rows = float(stats.instance_cardinality(pattern.object))
                else:
                    # Literals are not indexed by the instance dictionary, so
                    # a bound-literal object cannot be looked up — assume one
                    # average term's worth of triples instead of zero (a zero
                    # estimate would make the full scan look free and anchor
                    # the plan on the most expensive pattern).
                    rows = max(1.0, total / universe)
            width = float(max(1, len(stats.profiled_property_ids()) + 1))
            return PatternEstimate(
                rows=rows,
                subject_distinct=min(universe, max(1.0, rows)),
                object_distinct=min(universe, max(1.0, rows)),
                probe_width=width,
            )
        if pattern.is_rdf_type:
            return self._estimate_rdf_type(pattern, subject_bound, object_bound)
        return self._estimate_property(pattern, subject_bound, object_bound)

    def _estimate_rdf_type(
        self, pattern: TriplePattern, subject_bound: bool, object_bound: bool
    ) -> PatternEstimate:
        stats = self.statistics
        assert stats is not None
        if object_bound:
            concept = pattern.object
            rows = float(stats.concept_cardinality(concept, with_hierarchy=self.reasoning))
            marker = self._single_concept_marker(concept)
            if subject_bound:
                occurrence = stats.instance_cardinality(pattern.subject)
                bounded = min(1.0, rows) if occurrence else 0.0
                return PatternEstimate(rows=bounded, marker=marker)
            # (s, c) pairs are unique in the type store: distinct subjects
            # equal the triple count.
            return PatternEstimate(
                rows=rows, subject_distinct=max(1.0, rows), marker=marker
            )
        type_triples = float(stats.type_triple_count)
        universe = float(max(1, stats.instance_universe))
        if subject_bound:
            occurrence = stats.instance_cardinality(pattern.subject)
            rows = max(1.0, type_triples / universe) if occurrence else 0.0
            return PatternEstimate(rows=rows, object_distinct=max(1.0, rows))
        return PatternEstimate(
            rows=type_triples,
            subject_distinct=min(universe, max(1.0, type_triples)),
            object_distinct=max(1.0, float(len(stats.concepts))),
        )

    def _estimate_property(
        self, pattern: TriplePattern, subject_bound: bool, object_bound: bool
    ) -> PatternEstimate:
        stats = self.statistics
        assert stats is not None
        predicate = pattern.predicate
        profile = None
        width = 1.0
        marker: Optional[Marker] = None
        if self.reasoning and predicate in stats.properties:
            low, high = stats.properties.interval(predicate)
            profile = stats.interval_profile(low, high)
            stored = [p for p in stats.profiled_property_ids() if low <= p < high]
            width = float(max(1, len(stored)))
            if len(stored) == 1:
                marker = ("p", stored[0])
        else:
            property_id = stats.properties.try_locate(predicate)
            if property_id is not None:
                profile = stats.property_profile(property_id)
                marker = ("p", property_id)
        if profile is None or profile.triples <= 0:
            # No profile: occurrence counts, then the runtime estimator.
            triples = float(
                stats.property_cardinality(predicate, with_hierarchy=self.reasoning)
            )
            if triples <= 0 and self.runtime_estimator is not None:
                triples = float(self.runtime_estimator(pattern))
            distinct_s = distinct_o = max(1.0, triples)
        else:
            triples = float(profile.triples)
            distinct_s = float(max(1, profile.current_distinct_subjects()))
            distinct_o = float(max(1, profile.current_distinct_objects()))
        if triples <= 0:
            return PatternEstimate(rows=0.0, probe_width=width, marker=marker)
        rows = triples
        if subject_bound:
            occurrence = stats.instance_cardinality(pattern.subject)
            rows = rows / distinct_s if occurrence else 0.0
        if object_bound:
            if isinstance(pattern.object, URI) and not stats.instance_cardinality(
                pattern.object
            ):
                rows = 0.0  # unknown URI constants cannot match
            else:
                # Known URIs and literals (which the instance dictionary does
                # not index) keep the T / DO estimate.
                rows = rows / distinct_o
        return PatternEstimate(
            rows=rows,
            subject_distinct=distinct_s,
            object_distinct=distinct_o,
            probe_width=width,
            marker=marker,
        )

    def _single_concept_marker(self, concept) -> Optional[Marker]:
        stats = self.statistics
        assert stats is not None
        concept_id = stats.concepts.try_locate(concept)
        if concept_id is None:
            return None
        if not self.reasoning:
            return ("t", concept_id)
        # A LiteMat leaf's interval still spans its unused suffix space, so
        # the width says nothing — what matters is how many *stored*
        # concepts (ids with recorded rdf:type occurrences, i.e. candidate
        # characteristic-set markers) the interval contains.  Exactly one
        # stored concept means the reasoning probe and the marker agree; a
        # wider hierarchy matches *any* stored sub-concept, which the
        # superset test of the characteristic sets cannot express.
        low, high = stats.concepts.interval(concept)
        stored = [
            identifier
            for identifier in stats.concepts.identifiers()
            if low <= identifier < high and stats.concepts.occurrences(identifier) > 0
        ]
        if len(stored) == 1:
            return ("t", stored[0])
        return None

    def _fallback_estimate(self, pattern: TriplePattern) -> PatternEstimate:
        if self.runtime_estimator is not None:
            rows = float(self.runtime_estimator(pattern))
        else:
            rows = _SHAPE_FALLBACK.get(pattern.shape(), 256.0)
            if pattern.is_rdf_type:
                # Mirror Heuristic 1: the dedicated rdf:type store ranks
                # above the PSO shapes.
                rows = rows / 4.0
        bound = max(1.0, rows)
        return PatternEstimate(rows=rows, subject_distinct=bound, object_distinct=bound)

    # ------------------------------------------------------------------ #
    # property-path estimates
    # ------------------------------------------------------------------ #

    #: Expected BFS expansion of a transitive closure relative to its base
    #: relation (rounds × average fan-out is unknowable without running the
    #: query; 3.0 matches shallow real-world hierarchies and keeps closures
    #: ranked after their base links but before full scans).
    CLOSURE_EXPANSION = 3.0

    def estimate_path(self, pattern) -> float:
        """Expected rows of one :class:`PropertyPathPattern`, evaluated alone.

        Link leaves reuse :meth:`estimate_pattern` through an equivalent
        triple pattern; composite forms combine the leaf figures
        structurally — sequence multiplies per-step fan-out, alternation
        adds, the transitive forms scale by :data:`CLOSURE_EXPANSION`, and a
        negated set degrades to the total triple mass.  Bound endpoints
        divide by the matching distinct counts, mirroring the System-R rule.
        """
        rows = self._path_rows(pattern.path)
        subject_bound = not isinstance(pattern.subject, Variable)
        object_bound = not isinstance(pattern.object, Variable)
        if subject_bound:
            rows = rows / max(1.0, self._path_subject_distinct(pattern.path))
        if object_bound:
            rows = rows / max(1.0, self._path_object_distinct(pattern.path))
        return max(0.0, rows)

    def _path_link_estimate(self, predicate) -> PatternEstimate:
        return self.estimate_pattern(
            TriplePattern(Variable("__path_s"), predicate, Variable("__path_o"))
        )

    def _total_mass(self) -> float:
        stats = self.statistics
        if stats is not None:
            return float(stats.total_triple_mass() + stats.type_triple_count)
        return 1024.0

    def _path_rows(self, path) -> float:
        from repro.sparql.ast import (
            PathAlternative,
            PathInverse,
            PathLink,
            PathNegatedSet,
            PathOneOrMore,
            PathSequence,
            PathZeroOrMore,
            PathZeroOrOne,
        )

        if isinstance(path, PathLink):
            return self._path_link_estimate(path.predicate).rows
        if isinstance(path, PathInverse):
            return self._path_rows(path.path)
        if isinstance(path, PathSequence):
            steps = list(path.steps)
            rows = self._path_rows(steps[0])
            for step in steps[1:]:
                step_rows = self._path_rows(step)
                fanout = step_rows / max(1.0, self._path_subject_distinct(step))
                rows = rows * fanout
            return rows
        if isinstance(path, PathAlternative):
            return sum(self._path_rows(branch) for branch in path.branches)
        if isinstance(path, PathZeroOrOne):
            # One-step pairs plus the zero-length diagonal over the term
            # domain (approximated by the distinct subjects of the graph).
            return self._path_rows(path.path) + self._path_subject_distinct(path.path)
        if isinstance(path, PathZeroOrMore):
            return (
                self._path_rows(path.path) * self.CLOSURE_EXPANSION
                + self._path_subject_distinct(path.path)
            )
        if isinstance(path, PathOneOrMore):
            return self._path_rows(path.path) * self.CLOSURE_EXPANSION
        if isinstance(path, PathNegatedSet):
            return self._total_mass()
        return self._total_mass()

    def _path_subject_distinct(self, path) -> float:
        """Distinct sources of the path's relation (for bound-subject division)."""
        from repro.sparql.ast import (
            PathAlternative,
            PathInverse,
            PathLink,
            PathOneOrMore,
            PathSequence,
            PathZeroOrMore,
            PathZeroOrOne,
        )

        if isinstance(path, PathLink):
            return self._path_link_estimate(path.predicate).subject_distinct
        if isinstance(path, PathInverse):
            return self._path_object_distinct(path.path)
        if isinstance(path, PathSequence):
            return self._path_subject_distinct(path.steps[0])
        if isinstance(path, PathAlternative):
            return sum(self._path_subject_distinct(b) for b in path.branches)
        if isinstance(path, (PathZeroOrOne, PathZeroOrMore, PathOneOrMore)):
            return self._path_subject_distinct(path.path)
        return max(1.0, self._total_mass() ** 0.5)

    def _path_object_distinct(self, path) -> float:
        """Distinct targets of the path's relation (for bound-object division)."""
        from repro.sparql.ast import (
            PathAlternative,
            PathInverse,
            PathLink,
            PathOneOrMore,
            PathSequence,
            PathZeroOrMore,
            PathZeroOrOne,
        )

        if isinstance(path, PathLink):
            return self._path_link_estimate(path.predicate).object_distinct
        if isinstance(path, PathInverse):
            return self._path_subject_distinct(path.path)
        if isinstance(path, PathSequence):
            return self._path_object_distinct(path.steps[-1])
        if isinstance(path, PathAlternative):
            return sum(self._path_object_distinct(b) for b in path.branches)
        if isinstance(path, (PathZeroOrOne, PathZeroOrMore, PathOneOrMore)):
            return self._path_object_distinct(path.path)
        return max(1.0, self._total_mass() ** 0.5)

    # ------------------------------------------------------------------ #
    # join chaining
    # ------------------------------------------------------------------ #

    def initial_state(self, pattern: TriplePattern) -> JoinState:
        """The prefix state after scanning ``pattern`` as the first step."""
        estimate = self.estimate_pattern(pattern)
        state = JoinState(rows=estimate.rows)
        self._absorb_variables(state, pattern, estimate)
        return state

    def join(
        self, state: JoinState, pattern: TriplePattern
    ) -> Tuple[JoinState, List[str]]:
        """Chain ``pattern`` onto a prefix state.

        Returns the new state plus the shared variable names (empty list
        marks a cartesian product).  The System-R rule divides the cross
        product by ``max(V(L, v), V(R, v))`` per shared variable ``v``.
        """
        estimate = self.estimate_pattern(pattern)
        shared = [
            name for name in pattern.variable_names() if name in state.var_distinct
        ]
        rows = state.rows * estimate.rows
        for name in shared:
            left_distinct = max(1.0, state.var_distinct[name])
            right_distinct = max(1.0, estimate.distinct_for(name, pattern))
            rows /= max(left_distinct, right_distinct)
        new_state = state.copy()
        new_state.rows = rows
        # _absorb_variables already re-mins the shared variables' distinct
        # counts against the pattern's side.
        self._absorb_variables(new_state, pattern, estimate)
        self._clamp_distincts(new_state)
        return new_state, shared

    def star_answer(
        self, subject_var: str, patterns: Sequence[TriplePattern]
    ) -> Optional[Tuple[float, float]]:
        """``(subjects, rows)`` for a pure subject star, or ``None``.

        Answers when every pattern shares ``subject_var`` as its subject,
        each resolves to a *distinct* single stored marker (a repeated
        predicate would be deduplicated by the set summary, underestimating
        the cross product of its occurrences), and non-subject variables are
        pairwise distinct — the shape where independence errors compound
        worst.  A bound-concept ``rdf:type`` pattern is the canonical
        anchor: its ``("t", concept)`` marker encodes exactly the bound
        constant, so type-anchored stars are answered directly.  A bound
        object on a *property* pattern, by contrast, adds a filter the
        summary does not model, and disqualifies the star.
        """
        if self.statistics is None or len(patterns) < 2:
            return None
        markers: List[Marker] = []
        seen_vars = {subject_var}
        for pattern in patterns:
            if not isinstance(pattern.subject, Variable):
                return None
            if pattern.subject.name != subject_var:
                return None
            estimate = self.estimate_pattern(pattern)
            if estimate.marker is None:
                return None
            if isinstance(pattern.object, Variable):
                if pattern.object.name in seen_vars:
                    return None
                seen_vars.add(pattern.object.name)
            elif not pattern.is_rdf_type:
                return None
            markers.append(estimate.marker)
        if len(set(markers)) != len(markers):
            return None
        return self.statistics.star_cardinality(markers)

    def apply_star(
        self, state: JoinState, subject_var: str, subjects: float, rows: float
    ) -> JoinState:
        """A copy of ``state`` with the characteristic-set answer applied."""
        refined = state.copy()
        refined.rows = rows
        refined.var_distinct[subject_var] = max(1.0, subjects)
        self._clamp_distincts(refined)
        return refined

    def refine_star(
        self,
        state: JoinState,
        subject_var: str,
        patterns: Sequence[TriplePattern],
    ) -> JoinState:
        """Characteristic-set override for a pure subject star (no-op when
        the summary cannot answer; see :meth:`star_answer`)."""
        answer = self.star_answer(subject_var, patterns)
        if answer is None:
            return state
        subjects, rows = answer
        return self.apply_star(state, subject_var, subjects, rows)

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #

    @staticmethod
    def _absorb_variables(
        state: JoinState, pattern: TriplePattern, estimate: PatternEstimate
    ) -> None:
        for name in pattern.variable_names():
            distinct = estimate.distinct_for(name, pattern)
            if name in state.var_distinct:
                state.var_distinct[name] = min(state.var_distinct[name], distinct)
            else:
                state.var_distinct[name] = distinct

    @staticmethod
    def _clamp_distincts(state: JoinState) -> None:
        # A variable cannot take more distinct values than there are rows.
        ceiling = max(1.0, state.rows)
        for name, value in state.var_distinct.items():
            if value > ceiling:
                state.var_distinct[name] = ceiling
