"""Streaming SPARQL SELECT/ASK execution over a SuccinctEdge store.

The engine is a thin **interpreter of the plan IR** (:mod:`repro.query.plan`):
a parsed query is compiled — through the cost-based planner by default — into
a :class:`~repro.query.plan.GroupPlan` (BGP join steps plus OPTIONAL / UNION
/ VALUES / BIND / FILTER placement) and a modifier pipeline whose steps carry
typed payloads, and execution walks exactly those steps.  ``explain()``
renders the same IR, so the printed plan *is* the executed plan.

Operators come from :mod:`repro.query.operators`: triple-pattern scans,
bind-propagation joins, FILTER, BIND, projection, DISTINCT and the slice
stream batches of id rows (:class:`~repro.sparql.bindings.Batch`) on top of
the batched SDS kernels.  Because consumers pull and streams start with
batches of about one row that grow ×4, a ``LIMIT 10`` stops every upstream
operator within one batch of its tenth row — the remaining triple-pattern
probes (and their SDS kernel calls) never execute — and ``ASK`` stops after
the first batch.  When only projection sits between the BGP and the slice,
the last step's batches never outgrow the rows the slice still takes.
Property paths, OPTIONAL, the UNION/VALUES join and aggregation take and
yield batches of id rows as well; only ORDER BY still sorts bindings
between :func:`~repro.sparql.bindings.rows` and
:func:`~repro.sparql.bindings.batches`.

Compiled plans are cached per BGP and invalidated on the statistics version
(every delta write bumps it), so live updates re-plan with fresh
cardinalities instead of replaying stale orders.

The previous list-materializing evaluation survives as
:class:`~repro.query.materializing.MaterializingQueryEngine`; the
differential tests check that the two return byte-identical results.  Both
engines plan with :class:`~repro.query.optimizer.CostBasedJoinOrderOptimizer`
and join the same way: every BGP step after the first is a bind-propagation
join, and UNION branches and VALUES rows join in nested-loop order
(:func:`~repro.query.operators.join`).
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, List, Optional, Union as TypingUnion

from repro.caching import LruCache
from repro.query import operators as ops
from repro.query.optimizer import CostBasedJoinOrderOptimizer
from repro.query.plan import (
    GroupPlan,
    ModifierOp,
    PhysicalPlan,
    PipelinePlan,
)
from repro.query.tp_eval import StepProbes, TriplePatternEvaluator
from repro.sparql.algebra import values_bindings
from repro.sparql.ast import (
    AskQuery,
    GroupGraphPattern,
    Query,
    SelectQuery,
    TriplePattern,
)
from repro.sparql.bindings import BATCH_ROWS, AskResult, Batch, Binding, ResultSet, batches
from repro.sparql.parser import parse_query
from repro.store.succinct_edge import SuccinctEdge

#: Bound on the per-engine compiled-BGP plan cache.
_PLAN_CACHE_CAPACITY = 256

#: The layout of the one empty row that seeds a top-level group.
_EMPTY = Binding().layout


class QueryEngine:
    """Executes SELECT/ASK queries (supported subset) against a SuccinctEdge store.

    Parameters
    ----------
    store:
        The SuccinctEdge instance to query.
    reasoning:
        When ``True`` (the paper's native mode), concept and property
        hierarchy inferences are answered through LiteMat identifier
        intervals at query time.
    """

    def __init__(self, store: SuccinctEdge, reasoning: bool = True) -> None:
        self.store = store
        self.reasoning = reasoning
        self.evaluator = TriplePatternEvaluator(store, reasoning=reasoning)
        # Runtime estimates reuse the evaluator's Algorithm-2 counts on the
        # SDS rank/select directories when dictionary statistics draw a blank.
        self.optimizer = CostBasedJoinOrderOptimizer(
            statistics=store.statistics,
            runtime_estimator=self.evaluator.estimate_cardinality,
            reasoning=reasoning,
        )
        # Compiled plans per BGP, keyed on (patterns, statistics version):
        # OPTIONAL groups are re-evaluated seeded once per upstream batch, so
        # without the cache every batch would re-run the planner — and keying
        # on the statistics version re-plans after every applied write
        # instead of replaying orders chosen under stale cardinalities.
        self._plan_cache = LruCache(_PLAN_CACHE_CAPACITY)

    def _path_evaluator(self):
        """The (lazily created) property-path evaluator over this engine's backend.

        Created on first use and re-created if :attr:`evaluator` has been
        replaced since — the parallel / process / cluster engines install
        their executor *after* ``super().__init__``, and the path evaluator
        must drive that executor's ``expand_frontier`` hook, not the plain
        sequential one captured at construction.
        """
        cached = getattr(self, "_paths", None)
        if cached is None or cached.evaluator is not self.evaluator:
            from repro.query.paths import PathEvaluator

            cached = PathEvaluator(self.evaluator)
            self._paths = cached
        return cached

    def _statistics_version(self) -> Optional[int]:
        statistics = self.store.statistics
        return None if statistics is None else statistics.version

    def _plan_bgp(self, patterns: List[TriplePattern]) -> PhysicalPlan:
        """The (cached) physical plan for one BGP."""
        key = (tuple(patterns), self._statistics_version())
        hit, plan = self._plan_cache.get(key)
        if not hit:
            plan = self.optimizer.optimize(patterns)
            self._plan_cache.put(key, plan)
        return plan

    # ------------------------------------------------------------------ #
    # plan compilation (the parser-to-server IR)
    # ------------------------------------------------------------------ #

    def compile_group(self, group: GroupGraphPattern) -> GroupPlan:
        """Compile one WHERE-clause group into its :class:`GroupPlan` IR.

        The same compilation feeds execution and ``explain()`` — there is no
        second code path that could disagree with the rendering.
        """
        bgp_plan = self._plan_bgp(list(group.bgp.patterns))
        bound = {
            name
            for step in bgp_plan.steps
            for name in step.pattern.variable_names()
        }
        return GroupPlan(
            bgp=bgp_plan,
            paths=self.optimizer.plan_paths(list(group.paths), bound),
            unions=[
                [self.compile_group(branch) for branch in union.branches]
                for union in group.unions
            ],
            optionals=[self.compile_group(optional) for optional in group.optionals],
            values=list(group.values),
            binds=list(group.binds),
            filters=list(group.filters),
        )

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #

    def execute(
        self, query: TypingUnion[str, Query]
    ) -> TypingUnion[ResultSet, AskResult]:
        """Parse (if needed) and execute a query.

        Returns a :class:`~repro.sparql.bindings.ResultSet` for SELECT
        queries and an :class:`~repro.sparql.bindings.AskResult` (truthy iff
        the pattern has a solution) for ASK queries.  Execution is lazy
        end-to-end: the result is materialized here, but upstream operators
        only ever produce the rows the solution modifiers actually consume.
        """
        parsed = parse_query(query) if isinstance(query, str) else query
        if isinstance(parsed, AskQuery):
            return self.ask(parsed)
        assert isinstance(parsed, SelectQuery)
        names = parsed.projected_names()
        return ResultSet(names, batches=list(self.stream(parsed)))

    def ask(self, query: TypingUnion[str, AskQuery]) -> AskResult:
        """Execute an ASK query, stopping at the first solution found."""
        parsed = parse_query(query) if isinstance(query, str) else query
        if not isinstance(parsed, AskQuery):
            raise TypeError(f"ask() needs an ASK query, got {type(parsed).__name__}")
        solutions = self._group_stream(parsed.where)
        return AskResult(next(solutions, None) is not None)

    def stream(self, query: TypingUnion[str, SelectQuery]) -> Iterator[Batch]:
        """The streaming entry point: yield the projected solutions in batches.

        The returned iterator drives the whole operator pipeline lazily —
        consuming only a prefix (e.g. ``itertools.islice``) evaluates only
        that prefix, and the first batches hold about one, four, sixteen ...
        rows.  No batch is empty.

        The modifier pipeline is interpreted step by step from the plan IR:
        each :class:`~repro.query.plan.ModifierStep` carries its typed
        payload, so nothing here reaches back into the AST.
        """
        parsed = parse_query(query) if isinstance(query, str) else query
        if not isinstance(parsed, SelectQuery):
            raise TypeError(f"stream() needs a SELECT query, got {type(parsed).__name__}")
        steps = self.optimizer.plan_modifiers(parsed)
        stream: Iterator[Batch] = self._group_stream(parsed.where, _rows_wanted(steps))
        for step in steps:
            if step.op == ModifierOp.AGGREGATE:
                stream = ops.group(stream, step.payload, self.store.instances)
            elif step.op == ModifierOp.EXTEND:
                stream = ops.extend_select(stream, list(step.payload))
            elif step.op == ModifierOp.SORT:
                stream = ops.batches(ops.order(ops.rows(stream), list(step.payload)), BATCH_ROWS)
            elif step.op == ModifierOp.TOP_K:
                conditions, fetch = step.payload
                stream = ops.batches(ops.top_k(ops.rows(stream), list(conditions), fetch), BATCH_ROWS)
            elif step.op == ModifierOp.PROJECT:
                stream = ops.project(stream, list(step.payload))
            elif step.op == ModifierOp.DISTINCT:
                stream = ops.distinct(stream, list(step.payload))
            elif step.op == ModifierOp.SLICE:
                offset, limit = step.payload
                stream = ops.slice_solutions(stream, offset, limit)
        return stream

    def plan(self, query: TypingUnion[str, Query]) -> PhysicalPlan:
        """The physical plan for the query's top-level BGP (EXPLAIN).

        Covers the WHERE clause's basic graph pattern only — the join order,
        access paths and join methods.  Use :meth:`pipeline_plan` for the
        full IR including nested groups and the solution-modifier pipeline.
        """
        parsed = parse_query(query) if isinstance(query, str) else query
        return self._plan_bgp(list(parsed.where.bgp.patterns))

    def pipeline_plan(self, query: TypingUnion[str, Query]) -> PipelinePlan:
        """The full execution plan: the WHERE-clause IR plus modifier steps."""
        parsed = parse_query(query) if isinstance(query, str) else query
        group = self.compile_group(parsed.where)
        if isinstance(parsed, SelectQuery):
            modifiers = self.optimizer.plan_modifiers(parsed)
        else:
            modifiers = []
        return PipelinePlan(where=group.bgp, modifiers=modifiers, group=group)

    def explain(self, query: TypingUnion[str, Query]) -> str:
        """Multi-line EXPLAIN output for the full pipeline."""
        return self.pipeline_plan(query).explain()

    # ------------------------------------------------------------------ #
    # group evaluation (streaming interpretation of the GroupPlan IR)
    # ------------------------------------------------------------------ #

    def _group_stream(self, group: GroupGraphPattern, wanted: Optional[int] = None) -> Iterator[Batch]:
        """Compile ``group`` (cached per BGP) and interpret its plan."""
        return self._execute_group(self.compile_group(group), [Batch(_EMPTY, [()])], {}, wanted)

    def _execute_group(
        self, plan: GroupPlan, upstream: Iterable[Batch], probes: dict, wanted: Optional[int] = None
    ) -> Iterator[Batch]:
        """Interpret one :class:`GroupPlan`: the WHERE-clause pipeline.

        Operators are chained exactly in the IR's order on batches of id
        rows: BGP joins, paths, UNION joins, OPTIONAL left-outer joins,
        VALUES, BINDs, then FILTERs.  ``upstream``'s rows seed the group (an
        OPTIONAL group's outer rows).  ``probes`` holds each BGP step's
        :class:`~repro.query.tp_eval.StepProbes` for the whole query, so an
        OPTIONAL group keeps its buckets across outer batches.  ``wanted``
        is how many solutions a ``LIMIT`` takes from the group.

        This is a generator function, so *nothing* — including UNION branch
        materialization — happens before the first batch is pulled;
        ``ASK``/``LIMIT`` early termination survives pipeline construction.
        """
        if plan.paths or plan.unions or plan.optionals or plan.values or plan.filters:
            wanted = None  # the BGP's rows are not the group's solutions
        stream = self._bgp_stream(plan.bgp, upstream, probes, wanted)
        for step in plan.paths:
            stream = self._path_evaluator().evaluate_many(step.pattern, stream)
        for union in plan.unions:
            branches = (self._execute_group(branch, [Batch(_EMPTY, [()])], probes) for branch in union)
            stream = ops.join(stream, itertools.chain.from_iterable(branches))
        for optional in plan.optionals:
            seeded = lambda batch, plan=optional: self._execute_group(plan, [batch], probes)  # noqa: E731
            stream = ops.optional_join(stream, seeded)
        for block in plan.values:
            stream = ops.join(stream, batches(values_bindings(block)))
        for bind in plan.binds:
            stream = ops.extend(stream, bind)
        for constraint in plan.filters:
            stream = ops.filter_solutions(stream, constraint.expression)
        yield from stream

    # ------------------------------------------------------------------ #
    # BGP evaluation (left-deep streaming pipeline)
    # ------------------------------------------------------------------ #

    def _bgp_stream(
        self, plan: PhysicalPlan, upstream: Iterable[Batch], probes: dict, wanted: Optional[int] = None
    ) -> Iterator[Batch]:
        """Chain the planned BGP steps into a lazy left-deep pipeline of bind joins.

        ``probes`` maps each step to its run-bucket state (see
        :meth:`_execute_group`); ``wanted`` (the rows a ``LIMIT`` takes)
        bounds the last step's batches.
        """
        stream = upstream
        last = len(plan.steps) - 1
        for index, step in enumerate(plan.steps):
            step_probes = probes.get(id(step)) or probes.setdefault(id(step), StepProbes())
            limit = wanted if index == last else None
            stream = ops.bind_join(self.evaluator, stream, step.pattern, limit, step_probes)
        return stream


def _rows_wanted(steps) -> Optional[int]:
    """How many WHERE solutions the slice takes, when every modifier before it
    keeps one row per solution (``None``: no such bound)."""
    for step in steps:
        if step.op == ModifierOp.SLICE:
            offset, limit = step.payload
            return None if limit is None else (offset or 0) + limit
        if step.op not in (ModifierOp.EXTEND, ModifierOp.PROJECT):
            return None
    return None
