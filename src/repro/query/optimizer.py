"""Join-order planning: the cost-based planner and the modifier pipeline.

:class:`CostBasedJoinOrderOptimizer` produces the left-deep
:class:`~repro.query.plan.PhysicalPlan` IR (memory-friendly on edge devices)
for every engine.  A dynamic-programming enumerator over the query graph's
pattern subsets picks the left-deep order minimizing total cost under a
:class:`CostModel` calibrated in **SDS-kernel-call units** (the counters of
:mod:`repro.sds.kernels`), with cardinalities chained through the join
prefix by :class:`~repro.query.cardinality.CardinalityEstimator`
(per-property distinct counts, characteristic-set star refinement).  Cross
products are costed explicitly (re-evaluating the pattern once per prefix
row) and flagged ``CARTESIAN``.

Above :attr:`~CostBasedJoinOrderOptimizer.dp_threshold` patterns the ``2^n``
enumeration is too slow to plan per query, so a multi-start greedy takes
over (``method="cost-greedy"``): from every start pattern it repeatedly
appends the cheapest extension under the same estimator and cost model, and
keeps the cheapest complete order.  The paper's Algorithm 1 (shape ranks,
join-type preference, dictionary-time counts) is not implemented; see the
deviations in ``docs/architecture.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.dictionary.statistics import DictionaryStatistics
from repro.query.cardinality import CardinalityEstimator, JoinState, PatternEstimate
from repro.query.paths import path_access_label
from repro.query.plan import (
    ModifierOp,
    ModifierStep,
    PathStep,
    PhysicalPlan,
    PlanStep,
    classify_access_path,
)
from repro.query.query_graph import QueryGraph, QueryNode
from repro.sparql.ast import SelectQuery, TriplePattern, Variable

#: Join-type preference (lower is better): picks the label EXPLAIN prints
#: for a step joined through several shared variables.
_JOIN_RANK = {"SS": 0, "SO": 1, "OS": 1, "OO": 2, "SP": 3, "PS": 3, "OP": 3, "PO": 3, "PP": 4}


# --------------------------------------------------------------------------- #
# cost model (SDS-kernel-call units)
# --------------------------------------------------------------------------- #


@dataclass
class CostModel:
    """Operator costs in SDS-kernel-call units.

    The batched kernels of PR 1 make every access path a *setup* (a constant
    number of rank/select/scan calls locating the run) plus an amortized
    *per-emitted-row* share of the batched decode.  The defaults below match
    measurements on LUBM-shaped stores; :meth:`calibrated` re-fits them on a
    concrete store by snapshotting the kernel counters around real probes
    (the calibration method documented in ``docs/query_planning.md``).

    ``rdf:type`` paths run on the sorted pair runs of the type store, which
    issue no SDS kernel calls at all — they are priced in *equivalent* units
    (an ``O(log n)`` binary search ≈ one bitmap select) so the planner does
    not treat them as free.
    """

    #: Setup per bound-slot probe on a PSO layout ((s,p,?o) / (?s,p,o)).
    #: Measured ~30-60 calls on LUBM stores: locating a subject inside a
    #: property run costs a cascade of rank/select calls, which is why a
    #: probe is ~two orders of magnitude dearer than one scanned row.
    pso_probe: float = 30.0
    #: Setup per property-run scan ((?s,p,?o)).
    pso_scan: float = 8.0
    #: Amortized cost per emitted PSO row (batched kernels).
    pso_row: float = 0.4
    #: Equivalent cost of one pair-run lookup (rdf:type paths).
    rdftype_probe: float = 1.0
    #: Equivalent cost per emitted rdf:type row.
    rdftype_row: float = 0.05
    #: Per-property-run setup of an unbound-predicate full scan.
    full_scan_property: float = 8.0

    @classmethod
    def calibrated(cls, store, sample_properties: int = 6) -> "CostModel":
        """Fit the constants on ``store`` using the SDS kernel counters.

        Measures real property-run scans of different sizes (a linear fit
        gives the per-row and setup shares) and bound-subject probes.
        Returns the defaults when the store is too small to measure.
        """
        from repro.sds.kernels import total_kernel_calls

        model = cls()
        object_store = getattr(store, "object_store", None)
        if object_store is None:
            return model
        try:
            property_ids = list(object_store.properties)[:sample_properties]
        except Exception:
            return model
        runs: List[Tuple[int, int]] = []
        for property_id in property_ids:
            before = total_kernel_calls()
            rows = sum(1 for _ in object_store.pairs_for_property(property_id))
            runs.append((rows, total_kernel_calls() - before))
        runs.sort()
        if len(runs) >= 2 and runs[-1][0] > runs[0][0]:
            (small_rows, small_calls), (large_rows, large_calls) = runs[0], runs[-1]
            per_row = (large_calls - small_calls) / (large_rows - small_rows)
            model.pso_row = max(0.01, per_row)
            model.pso_scan = max(0.5, small_calls - model.pso_row * small_rows)
        probe_costs: List[float] = []
        for property_id in property_ids:
            sampled = []
            for pair in object_store.pairs_for_property(property_id):
                if not sampled or pair[0] != sampled[-1]:
                    sampled.append(pair[0])
                if len(sampled) >= 3:
                    break
            for subject_id in sampled:
                before = total_kernel_calls()
                emitted = len(object_store.objects_for(subject_id, property_id))
                calls = total_kernel_calls() - before
                probe_costs.append(max(0.1, calls - model.pso_row * emitted))
        if probe_costs:
            model.pso_probe = max(0.5, sum(probe_costs) / len(probe_costs))
        return model

    # ------------------------------------------------------------------ #
    # costing primitives
    # ------------------------------------------------------------------ #

    def scan_cost(self, pattern: TriplePattern, estimate: PatternEstimate) -> float:
        """Cost of evaluating ``pattern`` once with no prefix bindings."""
        rows = max(0.0, estimate.rows)
        if isinstance(pattern.predicate, Variable):
            return estimate.probe_width * self.full_scan_property + rows * self.pso_row
        if pattern.is_rdf_type:
            # One tree descent (bound slot) or one in-order traversal (full
            # scan) — either way a single setup plus the per-row share.
            return self.rdftype_probe + rows * self.rdftype_row
        bound = not isinstance(pattern.subject, Variable) or not isinstance(
            pattern.object, Variable
        )
        setup = self.pso_probe if bound else self.pso_scan
        return estimate.probe_width * setup + rows * self.pso_row

    def join_step_cost(
        self,
        pattern: TriplePattern,
        estimate: PatternEstimate,
        left_rows: float,
        out_rows: float,
        probe_bound: bool,
    ) -> float:
        """Cost of joining ``pattern`` onto a prefix of ``left_rows`` rows.

        ``probe_bound`` says whether the join binds the pattern's subject or
        object (an index probe per prefix row); otherwise every prefix row
        re-scans the pattern — the explicit cross-product cost.
        """
        rows = max(0.0, out_rows)
        if isinstance(pattern.predicate, Variable):
            # A bound slot turns the full scan into one probe per stored
            # property; otherwise every prefix row re-scans every run.
            per_property = self.pso_probe if probe_bound else self.full_scan_property
            per_left = estimate.probe_width * per_property
            return left_rows * per_left + rows * self.pso_row
        if pattern.is_rdf_type:
            per_left = self.rdftype_probe
            return left_rows * per_left + rows * self.rdftype_row
        setup = self.pso_probe if probe_bound else self.pso_scan
        return left_rows * estimate.probe_width * setup + rows * self.pso_row


# --------------------------------------------------------------------------- #
# the cost-based planner
# --------------------------------------------------------------------------- #


@dataclass
class _DpEntry:
    """Best known way to evaluate one pattern subset (a costed order prefix)."""

    cost: float
    cartesians: int
    state: JoinState
    order: Tuple[int, ...]

    def key(self) -> Tuple:
        # Deterministic comparison: cost first (rounded so float noise does
        # not flip plans between runs), then fewer cross products, then the
        # lexicographically smallest order.
        return (round(self.cost, 9), self.cartesians, self.order)


class CostBasedJoinOrderOptimizer:
    """Left-deep join ordering under a kernel-call cost model.

    Also plans what surrounds the BGP: the property-path steps
    (:meth:`plan_paths`) and the solution-modifier pipeline
    (:meth:`plan_modifiers`).

    Parameters
    ----------
    statistics:
        The store's :class:`DictionaryStatistics`; the join profiles it
        carries feed the :class:`CardinalityEstimator`.
    runtime_estimator:
        Algorithm-2 fallback for patterns the statistics cannot estimate.
    cost_model:
        The :class:`CostModel` (defaults match LUBM-shaped stores; see
        :meth:`CostModel.calibrated`).
    reasoning:
        Must match the engine's reasoning mode — it decides whether
        predicate/concept constants expand over LiteMat intervals.
    """

    #: BGPs with more patterns use the multi-start greedy (the DP
    #: enumerates ``2^n`` subsets: 130-160 ms of planning at 11 patterns).
    dp_threshold: int = 10

    def __init__(
        self,
        statistics: Optional[DictionaryStatistics] = None,
        runtime_estimator: Optional[Callable[[TriplePattern], int]] = None,
        cost_model: Optional[CostModel] = None,
        reasoning: bool = True,
    ) -> None:
        self.cost_model = cost_model if cost_model is not None else CostModel()
        self.reasoning = reasoning
        self.estimator = CardinalityEstimator(
            statistics, reasoning=reasoning, runtime_estimator=runtime_estimator
        )

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #

    def optimize(self, patterns: Sequence[TriplePattern]) -> PhysicalPlan:
        """Produce the costed physical plan for ``patterns``."""
        if not patterns:
            return PhysicalPlan(steps=[], method="cost-dp")
        graph = QueryGraph.from_patterns(patterns)
        # The star refinement is a pure function of the pattern subset (and
        # the statistics version, constant within one optimize() call); the
        # memo spares the DP its O(2^n · n) transitions each re-validating
        # the star shape and re-scanning the characteristic sets.
        star_memo: Dict[int, Optional[Tuple[str, float, float]]] = {}
        if len(graph.nodes) > self.dp_threshold:
            order = self._greedy_order(graph, star_memo)
            method = "cost-greedy"
        else:
            order = self._dp_order(graph, star_memo)
            method = "cost-dp"
        return self._steps_for_order(graph, order, method, star_memo)

    # ------------------------------------------------------------------ #
    # solution-modifier pipeline
    # ------------------------------------------------------------------ #

    @staticmethod
    def plan_modifiers(query: SelectQuery) -> List[ModifierStep]:
        """The ordered solution-modifier operators for a SELECT query.

        Each step carries the typed payload the executor interprets, plus a
        rendering for EXPLAIN.  Encodes two pipeline optimizations the
        streaming engine relies on:

        * **LIMIT/OFFSET pushdown** — the slice is a lazy ``islice`` at the
          end of the pipeline, so once ``offset + limit`` rows have passed
          the upstream operators stop being pulled (no further
          triple-pattern probes, hence no further SDS kernel calls);
        * **top-k short circuit** — ``ORDER BY ... LIMIT k`` (without
          DISTINCT, whose duplicate elimination happens after the sort and
          could consume arbitrarily many sorted rows) replaces the full
          sort with a bounded ``heapq.nsmallest(offset + limit)``
          selection.
        """
        steps: List[ModifierStep] = []
        names = tuple(query.projected_names())
        if query.aggregated:
            keys = ", ".join(str(condition) for condition in query.group_by)
            aggregates = ", ".join(str(item.expression) for item in query.select_expressions())
            steps.append(
                ModifierStep(
                    ModifierOp.AGGREGATE,
                    f"keys=[{keys}] {aggregates}".strip(),
                    payload=query,
                )
            )
        elif query.select_expressions():
            detail = ", ".join(
                f"{item.expression} AS ?{item.variable.name}"
                for item in query.select_expressions()
            )
            steps.append(
                ModifierStep(
                    ModifierOp.EXTEND, detail, payload=tuple(query.select_expressions())
                )
            )
        if query.order_by:
            fetch = None
            if query.limit is not None and not query.distinct:
                fetch = (query.offset or 0) + query.limit
            keys = ", ".join(
                ("DESC(%s)" if condition.descending else "%s") % (condition.expression,)
                for condition in query.order_by
            )
            if fetch is not None:
                steps.append(
                    ModifierStep(
                        ModifierOp.TOP_K,
                        f"k={fetch} keys=[{keys}]",
                        payload=(tuple(query.order_by), fetch),
                    )
                )
            else:
                steps.append(
                    ModifierStep(
                        ModifierOp.SORT, f"keys=[{keys}]", payload=tuple(query.order_by)
                    )
                )
        steps.append(ModifierStep(ModifierOp.PROJECT, ", ".join(names), payload=names))
        if query.distinct:
            steps.append(ModifierStep(ModifierOp.DISTINCT, payload=names))
        if query.limit is not None or query.offset is not None:
            detail = []
            if query.offset is not None:
                detail.append(f"offset={query.offset}")
            if query.limit is not None:
                detail.append(f"limit={query.limit}")
            steps.append(
                ModifierStep(
                    ModifierOp.SLICE,
                    " ".join(detail),
                    payload=(query.offset, query.limit),
                )
            )
        return steps

    # ------------------------------------------------------------------ #
    # property-path placement
    # ------------------------------------------------------------------ #

    def plan_paths(self, paths, bound_names: Set[str]) -> List[PathStep]:
        """Order the group's property-path patterns for bind-propagation.

        Paths join after the BGP, so the only planning freedom is their
        order: paths with a bound endpoint — a constant, or a variable the
        BGP already binds — run first (each upstream row prunes the BFS to
        one source), ranked by estimated rows ascending; unbound-unbound
        paths (full relation materializations) run last.
        """
        if not paths:
            return []

        def endpoint_bound(slot) -> bool:
            if isinstance(slot, Variable):
                return slot.name in bound_names
            return True

        ranked = []
        for index, pattern in enumerate(paths):
            bound = endpoint_bound(pattern.subject) or endpoint_bound(pattern.object)
            rows = self.estimator.estimate_path(pattern)
            ranked.append((0 if bound else 1, rows, index, pattern))
            if isinstance(pattern.subject, Variable):
                bound_names = bound_names | {pattern.subject.name}
            if isinstance(pattern.object, Variable):
                bound_names = bound_names | {pattern.object.name}
        ranked.sort(key=lambda entry: (entry[0], entry[1], entry[2]))
        steps: List[PathStep] = []
        for boundedness, rows, index, pattern in ranked:
            steps.append(
                PathStep(
                    pattern_index=index,
                    pattern=pattern,
                    access_label=path_access_label(pattern.path),
                    estimated_cardinality=int(round(rows)),
                    estimated_cost=self.cost_model.pso_scan + rows * self.cost_model.pso_row,
                )
            )
        return steps

    # ------------------------------------------------------------------ #
    # DP enumeration
    # ------------------------------------------------------------------ #

    def _dp_order(
        self,
        graph: QueryGraph,
        star_memo: Dict[int, Optional[Tuple[str, float, float]]],
    ) -> List[int]:
        nodes = graph.nodes
        n = len(nodes)
        best: Dict[int, _DpEntry] = {1 << node.index: self._seed(node) for node in nodes}
        full = (1 << n) - 1
        masks = sorted(range(1, full + 1), key=lambda m: (bin(m).count("1"), m))
        for mask in masks:
            if mask & (mask - 1) == 0:
                continue  # singletons seeded above
            chosen: Optional[_DpEntry] = None
            for node in nodes:
                bit = 1 << node.index
                if not mask & bit:
                    continue
                previous = best.get(mask ^ bit)
                if previous is None:
                    continue
                candidate = self._extend(graph, previous, node, mask, star_memo)
                if chosen is None or candidate.key() < chosen.key():
                    chosen = candidate
            assert chosen is not None
            best[mask] = chosen
        return list(best[full].order)

    # ------------------------------------------------------------------ #
    # greedy fallback (above dp_threshold)
    # ------------------------------------------------------------------ #

    def _greedy_order(
        self,
        graph: QueryGraph,
        star_memo: Dict[int, Optional[Tuple[str, float, float]]],
    ) -> List[int]:
        """Multi-start greedy: ``n`` starts × ``n`` steps × ``n`` candidates.

        Each step appends the cheapest :meth:`_extend`, preferring steps that
        share a variable with the prefix (a cross product only when nothing
        else is left); the cheapest of the ``n`` complete orders wins.
        """
        best: Optional[_DpEntry] = None
        for start in graph.nodes:
            entry = self._seed(start)
            mask = 1 << start.index
            while len(entry.order) < len(graph.nodes):
                entry = min(
                    (
                        self._extend(graph, entry, node, mask | (1 << node.index), star_memo)
                        for node in graph.nodes
                        if not mask & (1 << node.index)
                    ),
                    key=lambda candidate: (candidate.cartesians,) + candidate.key(),
                )
                mask |= 1 << entry.order[-1]
            if best is None or entry.key() < best.key():
                best = entry
        assert best is not None
        return list(best.order)

    # ------------------------------------------------------------------ #
    # costed order prefixes (shared by the DP and the greedy)
    # ------------------------------------------------------------------ #

    def _seed(self, node: QueryNode) -> _DpEntry:
        estimate = self.estimator.estimate_pattern(node.pattern)
        return _DpEntry(
            cost=self.cost_model.scan_cost(node.pattern, estimate),
            cartesians=0,
            state=self.estimator.initial_state(node.pattern),
            order=(node.index,),
        )

    def _extend(
        self,
        graph: QueryGraph,
        previous: _DpEntry,
        node: QueryNode,
        mask: int,
        star_memo: Dict[int, Optional[Tuple[str, float, float]]],
    ) -> _DpEntry:
        estimate = self.estimator.estimate_pattern(node.pattern)
        state, shared = self.estimator.join(previous.state, node.pattern)
        state = self._maybe_refine_star(graph, state, mask, star_memo)
        probe_bound = self._probe_bound(node.pattern, set(previous.state.var_distinct))
        step_cost = self.cost_model.join_step_cost(
            node.pattern,
            estimate,
            left_rows=previous.state.rows,
            out_rows=state.rows,
            probe_bound=probe_bound,
        )
        return _DpEntry(
            cost=previous.cost + step_cost,
            cartesians=previous.cartesians + (0 if shared else 1),
            state=state,
            order=previous.order + (node.index,),
        )

    _STAR_UNSET = object()

    def _maybe_refine_star(
        self,
        graph: QueryGraph,
        state: JoinState,
        mask: int,
        star_memo: Dict[int, Optional[Tuple[str, float, float]]],
    ) -> JoinState:
        answer = star_memo.get(mask, self._STAR_UNSET)
        if answer is self._STAR_UNSET:
            answer = self._star_answer(graph, mask)
            star_memo[mask] = answer
        if answer is None:
            return state
        subject_var, subjects, rows = answer
        return self.estimator.apply_star(state, subject_var, subjects, rows)

    def _star_answer(
        self, graph: QueryGraph, mask: int
    ) -> Optional[Tuple[str, float, float]]:
        patterns = [
            node.pattern for node in graph.nodes if mask & (1 << node.index)
        ]
        roots = set()
        for pattern in patterns:
            if not isinstance(pattern.subject, Variable):
                return None
            roots.add(pattern.subject.name)
            if len(roots) > 1:
                return None
        root = next(iter(roots))
        answer = self.estimator.star_answer(root, patterns)
        if answer is None:
            return None
        return (root, answer[0], answer[1])

    @staticmethod
    def _probe_bound(pattern: TriplePattern, bound: Set[str]) -> bool:
        subject_bound = not isinstance(pattern.subject, Variable) or pattern.subject.name in bound
        object_bound = not isinstance(pattern.object, Variable) or pattern.object.name in bound
        return subject_bound or object_bound

    # ------------------------------------------------------------------ #
    # plan construction (replays the chosen order through the estimator,
    # so the EXPLAIN numbers are exactly the numbers the choice was made on)
    # ------------------------------------------------------------------ #

    def _steps_for_order(
        self,
        graph: QueryGraph,
        order: List[int],
        method: str,
        star_memo: Dict[int, Optional[Tuple[str, float, float]]],
    ) -> PhysicalPlan:
        steps: List[PlanStep] = []
        done: Set[int] = set()
        state: Optional[JoinState] = None
        cumulative_cost = 0.0
        mask = 0
        for position, index in enumerate(order):
            node = graph.nodes[index]
            estimate = self.estimator.estimate_pattern(node.pattern)
            access_path = classify_access_path(node.pattern)
            join_type = ""
            mask |= 1 << index
            if position == 0:
                state = self.estimator.initial_state(node.pattern)
                state = self._maybe_refine_star(graph, state, mask, star_memo)
                cumulative_cost += self.cost_model.scan_cost(node.pattern, estimate)
            else:
                assert state is not None
                edges = graph.edges_between(done, index)
                new_state, shared = self.estimator.join(state, node.pattern)
                new_state = self._maybe_refine_star(graph, new_state, mask, star_memo)
                probe_bound = self._probe_bound(node.pattern, set(state.var_distinct))
                cumulative_cost += self.cost_model.join_step_cost(
                    node.pattern,
                    estimate,
                    left_rows=state.rows,
                    out_rows=new_state.rows,
                    probe_bound=probe_bound,
                )
                state = new_state
                if edges:
                    join_type = min(edges[0].join_types, key=lambda t: _JOIN_RANK.get(t, 9))
                else:
                    join_type = "×"
            steps.append(
                PlanStep(
                    pattern_index=index,
                    pattern=node.pattern,
                    access_path=access_path,
                    join_type=join_type,
                    estimated_cardinality=int(round(estimate.rows)),
                    estimated_rows=int(round(state.rows)),
                    estimated_cost=cumulative_cost,
                )
            )
            done.add(index)
        return PhysicalPlan(steps=steps, method=method)
