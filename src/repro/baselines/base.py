"""Common interface and generic query engine for every evaluated system.

The benchmark harness treats SuccinctEdge and the baselines uniformly through
:class:`EdgeRDFStore`: build from a graph, answer triple-pattern ``match``
calls, answer SPARQL SELECT queries, and report storage/cost accounting.

The generic query engine implemented here (BGP with greedy ordering + bind
propagation, FILTER, BIND, UNION, projection) is what the baseline systems
use; SuccinctEdge has its own engine (:mod:`repro.query.engine`) built on SDS
operations and LiteMat intervals.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Union as TypingUnion

from repro.ontology.rewriting import rewrite_query_with_unions
from repro.ontology.schema import OntologySchema
from repro.rdf.graph import Graph
from repro.rdf.terms import Term, Triple, URI
from repro.sparql.algebra import apply_solution_modifiers, values_bindings
from repro.sparql.ast import (
    AskQuery,
    GroupGraphPattern,
    Query,
    SelectQuery,
    TriplePattern,
    Variable,
)
from repro.sparql.bindings import AskResult, Binding, ResultSet
from repro.sparql.expressions import evaluate_bind, evaluate_filter
from repro.sparql.parser import parse_query


class UnsupportedFeatureError(RuntimeError):
    """Raised when a system does not support a query feature (e.g. UNION)."""


class EdgeRDFStore:
    """Base class of every evaluated system.

    Subclasses must implement :meth:`load`, :meth:`match` and the storage
    accounting methods; they inherit a complete SPARQL SELECT engine working
    on top of :meth:`match`.
    """

    #: Human-readable system name (overridden by the registry profiles).
    name: str = "abstract"
    #: Whether the system supports the UNION clause (RDF4Led does not).
    supports_union: bool = True
    #: Whether the system keeps its data in main memory.
    in_memory: bool = True

    def __init__(self) -> None:
        self._schema: Optional[OntologySchema] = None
        #: Simulated environment cost (milliseconds) accumulated by the last operation.
        self.last_simulated_cost_ms: float = 0.0

    # ------------------------------------------------------------------ #
    # loading
    # ------------------------------------------------------------------ #

    def load(self, data: Graph, ontology: Optional[Graph] = None) -> None:
        """Build the system's storage from ``data`` (and remember the ontology)."""
        raise NotImplementedError

    @property
    def schema(self) -> OntologySchema:
        """The ontology schema available for UNION-rewriting reasoning."""
        if self._schema is None:
            return OntologySchema()
        return self._schema

    def _remember_schema(self, data: Graph, ontology: Optional[Graph]) -> None:
        schema = OntologySchema()
        if ontology is not None:
            schema = OntologySchema.from_graph(ontology)
        for triple in data:
            schema._ingest(triple)  # noqa: SLF001 — loading is a friend operation
        self._schema = schema

    # ------------------------------------------------------------------ #
    # matching (to be provided by subclasses)
    # ------------------------------------------------------------------ #

    def match(
        self,
        subject: Optional[Term] = None,
        predicate: Optional[URI] = None,
        obj: Optional[Term] = None,
    ) -> Iterator[Triple]:
        """Yield stored triples matching the pattern (``None`` = wildcard)."""
        raise NotImplementedError

    def triple_count(self) -> int:
        """Number of stored triples."""
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # storage accounting (to be provided by subclasses)
    # ------------------------------------------------------------------ #

    def dictionary_size_in_bytes(self) -> int:
        """Serialised dictionary size (Figure 9)."""
        raise NotImplementedError

    def triple_storage_size_in_bytes(self) -> int:
        """Serialised triple/index size without dictionaries (Figure 10)."""
        raise NotImplementedError

    def memory_footprint_in_bytes(self) -> int:
        """Resident main-memory footprint (Figure 11)."""
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # SPARQL (generic engine over match)
    # ------------------------------------------------------------------ #

    def query(
        self,
        query: TypingUnion[str, Query],
        reasoning: bool = False,
    ) -> TypingUnion[ResultSet, AskResult]:
        """Answer a SELECT or ASK query.

        With ``reasoning`` the query is first rewritten into a UNION of
        inference-free queries against the remembered ontology — the strategy
        the paper applies to every baseline.  Systems that do not support
        UNION raise :class:`UnsupportedFeatureError`.  Solution modifiers
        (GROUP BY + aggregates, ORDER BY, OFFSET, LIMIT) are applied through
        the shared algebra (:mod:`repro.sparql.algebra`), so the baselines
        answer the same query forms as SuccinctEdge — materialized rather
        than streamed.
        """
        parsed = parse_query(query) if isinstance(query, str) else query
        if isinstance(parsed, AskQuery):
            # ASK shares the SELECT path: the reasoning rewrite and the
            # UNION capability check apply to its WHERE clause too.
            probe = SelectQuery(projection=None, where=parsed.where)
            if reasoning:
                probe = rewrite_query_with_unions(probe, self.schema)
            if probe.where.unions and not self.supports_union:
                raise UnsupportedFeatureError(f"{self.name} does not support the UNION clause")
            return AskResult(bool(self._evaluate_group(probe.where)))
        if reasoning:
            parsed = rewrite_query_with_unions(parsed, self.schema)
        if parsed.where.unions and not self.supports_union:
            raise UnsupportedFeatureError(f"{self.name} does not support the UNION clause")
        bindings = self._evaluate_group(parsed.where)
        return apply_solution_modifiers(parsed, bindings)

    # -- group evaluation ------------------------------------------------ #

    def _evaluate_group(
        self, group: GroupGraphPattern, seed: Optional[Binding] = None
    ) -> List[Binding]:
        bindings = self._evaluate_bgp(list(group.bgp.patterns), seed or Binding())
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
            table = values_bindings(block)
            merged_rows: List[Binding] = []
            for binding in bindings:
                for row in table:
                    merged = binding.merged(row)
                    if merged is not None:
                        merged_rows.append(merged)
            bindings = merged_rows
        for bind in group.binds:
            updated: List[Binding] = []
            for binding in bindings:
                value = evaluate_bind(bind.expression, binding)
                updated.append(binding if value is None else binding.extended(bind.variable.name, value))
            bindings = updated
        for constraint in group.filters:
            bindings = [b for b in bindings if evaluate_filter(constraint.expression, b)]
        return bindings

    @staticmethod
    def _combine(left: List[Binding], right: List[Binding]) -> List[Binding]:
        combined: List[Binding] = []
        for left_binding in left:
            for right_binding in right:
                merged = left_binding.merged(right_binding)
                if merged is not None:
                    combined.append(merged)
        return combined

    # -- BGP evaluation --------------------------------------------------- #

    def _evaluate_bgp(self, patterns: List[TriplePattern], seed: Binding) -> List[Binding]:
        if not patterns:
            return [seed]
        ordered = self._order_patterns(patterns)
        bindings = [seed]
        for pattern in ordered:
            next_bindings: List[Binding] = []
            for binding in bindings:
                next_bindings.extend(self._evaluate_pattern(pattern, binding))
            bindings = next_bindings
            if not bindings:
                return []
        return bindings

    def _order_patterns(self, patterns: List[TriplePattern]) -> List[TriplePattern]:
        """Greedy ordering: most-bound pattern first, then connected patterns."""
        remaining = list(patterns)
        ordered: List[TriplePattern] = []
        bound_variables: set = set()

        def rank(pattern: TriplePattern) -> tuple:
            constants = sum(
                0 if isinstance(slot, Variable) and slot.name not in bound_variables else 1
                for slot in (pattern.subject, pattern.predicate, pattern.object)
            )
            connected = any(name in bound_variables for name in pattern.variable_names())
            return (-constants, not connected)

        while remaining:
            remaining.sort(key=rank)
            chosen = remaining.pop(0)
            ordered.append(chosen)
            bound_variables.update(chosen.variable_names())
        return ordered

    def _evaluate_pattern(self, pattern: TriplePattern, binding: Binding) -> Iterator[Binding]:
        def resolve(slot):
            if isinstance(slot, Variable):
                return binding.get(slot.name), slot.name
            return slot, None

        subject, subject_var = resolve(pattern.subject)
        predicate, predicate_var = resolve(pattern.predicate)
        obj, object_var = resolve(pattern.object)
        if predicate is not None and not isinstance(predicate, URI):
            return
        for triple in self.match(subject, predicate, obj):
            current = binding
            consistent = True
            for name, value in (
                (subject_var, triple.subject),
                (predicate_var, triple.predicate),
                (object_var, triple.object),
            ):
                if name is None:
                    continue
                existing = current.get(name)
                if existing is not None:
                    if existing != value:
                        consistent = False
                        break
                    continue
                current = current.extended(name, value)
            if consistent:
                yield current
