"""The unified plan IR: costed join steps, group operators, modifiers.

The optimizer produces a left-deep sequence of plan steps; each step records
the access path the executor will use (which storage layout and which of the
paper's algorithms), the join type linking it to the already-computed
prefix (every step after the first is a bind-propagation join), and the
estimated cardinality, cumulative row count and cumulative cost in
SDS-kernel-call units.  Cross products are flagged explicitly (``CARTESIAN`` in the
rendering) so the hazard is visible in every EXPLAIN.

The IR has three layers, and the engines interpret it directly (one code
path from parser to server — ``explain()`` output and execution cannot
disagree):

* :class:`PhysicalPlan` — the BGP join order (a left-deep tree);
* :class:`GroupPlan` — one WHERE-clause group: its BGP plan plus the
  placement of UNION branches, OPTIONAL subgroups (each a nested
  :class:`GroupPlan`), VALUES blocks, BINDs and FILTERs, in evaluation
  order;
* :class:`PipelinePlan` — the full query: the root group plus the
  *solution-modifier pipeline* (:class:`ModifierStep`) — aggregation,
  ordering (with the top-k short circuit for ``ORDER BY ... LIMIT k``),
  projection, DISTINCT and the lazy OFFSET/LIMIT slice.  Each modifier step
  carries the typed payload the executor consumes, so the engine never
  reaches back into the AST mid-pipeline.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, List, Optional

from repro.sparql.ast import TriplePattern, Variable


class AccessPath(enum.Enum):
    """How a triple pattern is evaluated against the storage layouts."""

    RDFTYPE_OS = "rdftype-os"          # (?s, rdf:type, C) — OS lookup in the type store
    RDFTYPE_SO = "rdftype-so"          # (s, rdf:type, ?o) — SO lookup in the type store
    RDFTYPE_SCAN = "rdftype-scan"      # (?s, rdf:type, ?o) — full scan of the type store
    PSO_SP = "pso-sp"                  # (s, p, ?o) — Algorithm 3
    PSO_PO = "pso-po"                  # (?s, p, o) — Algorithm 4
    PSO_P = "pso-p"                    # (?s, p, ?o) — property run scan
    PSO_FULL = "pso-full"              # unbound predicate — full scan
    LITERAL_SCAN = "literal-scan"      # datatype store scan for literal-bound objects


@dataclass
class PlanStep:
    """One step of the left-deep plan.

    Every step after the first is a bind-propagation join; ``join_type``
    labels its edge to the prefix (``"SS"``, ``"OS"``, ...; ``"×"`` for a
    cross product, ``""`` on the first step).
    ``estimated_cardinality`` is the pattern's stand-alone estimate;
    ``estimated_rows`` / ``estimated_cost``
    are cumulative — the expected intermediate-result size after this join
    and the total SDS-kernel-call budget spent up to and including it.
    """

    pattern_index: int
    pattern: TriplePattern
    access_path: AccessPath
    join_type: str = ""
    estimated_cardinality: Optional[int] = None
    estimated_rows: Optional[int] = None
    estimated_cost: Optional[float] = None

    @property
    def cartesian(self) -> bool:
        """No join edge to the prefix: the executor re-evaluates the pattern
        per prefix row (an explicit, explicitly-costed cross product)."""
        return self.join_type == "×"

    def describe(self) -> str:
        """One-line human-readable description."""
        parts = [f"tp{self.pattern_index + 1} [{self.access_path.value}]"]
        if self.cartesian:
            parts.append("CARTESIAN")
        if self.join_type:
            parts.append(f"join=bind({self.join_type})")
        if self.estimated_cardinality is not None:
            parts.append(f"card~{self.estimated_cardinality}")
        if self.estimated_rows is not None:
            parts.append(f"rows~{self.estimated_rows}")
        if self.estimated_cost is not None:
            parts.append(f"cost~{self.estimated_cost:.1f}")
        parts.append(str(self.pattern))
        return " ".join(parts)


@dataclass
class PhysicalPlan:
    """Ordered sequence of plan steps (a left-deep join tree).

    ``method`` names how the order was found (``"cost-dp"``, or
    ``"cost-greedy"`` for the above-threshold fallback); it is rendered in
    EXPLAIN output so plan regressions in review show *which* search
    changed its mind.
    """

    steps: List[PlanStep] = field(default_factory=list)
    method: str = ""

    def __len__(self) -> int:
        return len(self.steps)

    def __iter__(self):
        return iter(self.steps)

    def order(self) -> List[int]:
        """Pattern indexes in execution order."""
        return [step.pattern_index for step in self.steps]

    @property
    def estimated_total_cost(self) -> Optional[float]:
        """Cumulative cost of the final step (``None`` when not costed)."""
        if not self.steps:
            return None
        return self.steps[-1].estimated_cost

    def explain(self) -> str:
        """Multi-line EXPLAIN-style description of the plan."""
        return "\n".join(step.describe() for step in self.steps)


@dataclass
class PathStep:
    """One property-path pattern, joined by bind propagation after the BGP.

    ``access_label`` names the algebra form and — for the transitive forms —
    whether the closure runs the id-level interval BFS or the term-level
    fallback (see :func:`repro.query.paths.path_access_label`).  The
    cardinality and cost figures come from
    :meth:`~repro.query.cardinality.CardinalityEstimator.estimate_path`;
    like BGP steps, cost is in SDS-kernel-call units.
    """

    pattern_index: int
    pattern: Any  # PropertyPathPattern (typed loosely to keep plan.py AST-light)
    access_label: str
    estimated_cardinality: Optional[int] = None
    estimated_cost: Optional[float] = None

    def describe(self) -> str:
        """One-line human-readable description."""
        parts = [f"path{self.pattern_index + 1} [{self.access_label}]"]
        if self.estimated_cardinality is not None:
            parts.append(f"card~{self.estimated_cardinality}")
        if self.estimated_cost is not None:
            parts.append(f"cost~{self.estimated_cost:.1f}")
        parts.append(str(self.pattern))
        return " ".join(parts)


class ModifierOp(enum.Enum):
    """Solution-modifier operators applied after the WHERE-clause pipeline."""

    AGGREGATE = "aggregate"        # GROUP BY + aggregate projection (blocking)
    EXTEND = "extend"              # non-aggregated (expr AS ?var) projections
    SORT = "sort"                  # full ORDER BY sort (blocking)
    TOP_K = "top-k"                # bounded ORDER BY ... LIMIT k selection
    PROJECT = "project"            # restrict to the projected variables
    DISTINCT = "distinct"          # duplicate-row elimination (streaming)
    SLICE = "slice"                # lazy OFFSET/LIMIT


@dataclass
class ModifierStep:
    """One solution-modifier operator with its parameters.

    ``payload`` carries the typed arguments the executor needs (order
    conditions, projected names, slice bounds, ...) so the engine interprets
    the step without consulting the AST; ``detail`` is its human-readable
    rendering.
    """

    op: ModifierOp
    detail: str = ""
    payload: Any = None

    def describe(self) -> str:
        """One-line human-readable description."""
        return f"{self.op.value}({self.detail})" if self.detail else self.op.value


@dataclass
class GroupPlan:
    """The plan of one WHERE-clause group, in evaluation order.

    The BGP join plan runs first; UNION combinations, OPTIONAL left-outer
    joins (each with its own nested :class:`GroupPlan`), VALUES joins, BINDs
    and FILTERs are applied in the order listed — exactly the order the
    streaming engine chains its operators, so the rendering *is* the
    execution.
    """

    bgp: PhysicalPlan
    #: Property-path steps, bind-joined right after the BGP.
    paths: List[PathStep] = field(default_factory=list)
    #: One entry per UNION: the plans of its branches.
    unions: List[List["GroupPlan"]] = field(default_factory=list)
    #: One nested plan per OPTIONAL group.
    optionals: List["GroupPlan"] = field(default_factory=list)
    #: VALUES blocks (AST references; rendered by their describe strings).
    values: List[Any] = field(default_factory=list)
    #: BIND clauses (AST references).
    binds: List[Any] = field(default_factory=list)
    #: FILTER constraints (AST references).
    filters: List[Any] = field(default_factory=list)

    def explain(self, indent: int = 0) -> str:
        """Indented EXPLAIN rendering of the group and its subgroups."""
        pad = "  " * indent
        lines: List[str] = []
        if self.bgp.steps:
            lines.extend(pad + line for line in self.bgp.explain().splitlines())
        for step in self.paths:
            lines.append(pad + step.describe())
        for union in self.unions:
            lines.append(pad + "union:")
            for branch in union:
                lines.append(pad + "  branch:")
                rendered = branch.explain(indent + 2)
                if rendered:
                    lines.append(rendered)
        for optional in self.optionals:
            lines.append(pad + "optional:")
            rendered = optional.explain(indent + 1)
            if rendered:
                lines.append(rendered)
        for block in self.values:
            names = ", ".join(f"?{v.name}" for v in getattr(block, "variables", []))
            rows = len(getattr(block, "rows", []) or [])
            lines.append(pad + f"values([{names}] rows={rows})")
        for bind in self.binds:
            lines.append(
                pad + f"bind({bind.expression} AS ?{bind.variable.name})"
            )
        for constraint in self.filters:
            lines.append(pad + f"filter({constraint.expression})")
        return "\n".join(lines)


@dataclass
class PipelinePlan:
    """The full query plan: the root group plus the modifier pipeline.

    ``where`` (the root group's BGP plan) is kept as a direct attribute for
    API continuity; ``group``, when present, is the complete WHERE-clause IR
    including OPTIONAL/VALUES/FILTER placement.
    """

    where: "PhysicalPlan"
    modifiers: List[ModifierStep] = field(default_factory=list)
    group: Optional[GroupPlan] = None

    def explain(self) -> str:
        """Multi-line EXPLAIN output covering the whole pipeline."""
        lines: List[str] = []
        if self.where.method:
            header = f"plan [{self.where.method}]"
            cost = self.where.estimated_total_cost
            if cost is not None:
                header += f" est-cost~{cost:.1f}"
            lines.append(header)
        if self.group is not None:
            rendered = self.group.explain()
            if rendered:
                lines.append(rendered)
        elif self.where.steps:
            lines.append(self.where.explain())
        lines.extend(step.describe() for step in self.modifiers)
        return "\n".join(lines)


def classify_access_path(pattern: TriplePattern) -> AccessPath:
    """Access path implied by the shape of a triple pattern."""
    subject_is_variable = isinstance(pattern.subject, Variable)
    object_is_variable = isinstance(pattern.object, Variable)
    predicate_is_variable = isinstance(pattern.predicate, Variable)
    if predicate_is_variable:
        return AccessPath.PSO_FULL
    if pattern.is_rdf_type:
        if not object_is_variable:
            return AccessPath.RDFTYPE_OS
        if not subject_is_variable:
            return AccessPath.RDFTYPE_SO
        return AccessPath.RDFTYPE_SCAN
    if not subject_is_variable and object_is_variable:
        return AccessPath.PSO_SP
    if subject_is_variable and not object_is_variable:
        return AccessPath.PSO_PO
    if subject_is_variable and object_is_variable:
        return AccessPath.PSO_P
    # Fully bound pattern: treated as an existence check through Algorithm 3.
    return AccessPath.PSO_SP
