"""Streaming (pull-based) physical operators for the query pipeline.

Each operator is a generator over :class:`~repro.sparql.bindings.Binding`
streams: it pulls solutions from its upstream operator only when the
downstream consumer asks for the next one.  A ``LIMIT`` therefore stops the
whole pipeline after the requested number of rows — the upstream
triple-pattern probes (and the SDS kernel calls behind them) for the
remaining rows never happen.  The operators sit on top of the batched
:class:`~repro.query.tp_eval.TriplePatternEvaluator` emission: one pulled
binding may expand into a whole batched answer run, which is then streamed
element by element.

Operators that are inherently blocking (sort, grouping, the right-hand side
of a UNION or VALUES join) materialize internally and say so in their
docstring; the ``ORDER BY ... LIMIT k`` case avoids the full sort with a
bounded top-k selection (:func:`top_k`).
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.rdf.terms import Term
from repro.sparql.algebra import order_key_function
from repro.sparql.ast import (
    Bind,
    Expression,
    GroupGraphPattern,
    OrderCondition,
    SelectExpression,
    TriplePattern,
)
from repro.sparql.bindings import Binding
from repro.sparql.expressions import evaluate_bind, evaluate_filter

#: A group evaluator: ``(group, seed_binding) -> stream of solutions``.
#: The ``group`` argument is opaque to the operators — the streaming engine
#: passes compiled :class:`~repro.query.plan.GroupPlan` IR nodes, the
#: materializing oracle passes raw AST groups.
GroupEvaluator = Callable[[object, Binding], Iterator[Binding]]


# --------------------------------------------------------------------- #
# joins
# --------------------------------------------------------------------- #


def bind_join(
    evaluator,
    upstream: Iterable[Binding],
    pattern: TriplePattern,
) -> Iterator[Binding]:
    """Index nested-loop join: propagate each upstream binding into ``pattern``.

    Fully streaming — each upstream binding triggers one batched
    triple-pattern evaluation and its extensions are yielded immediately
    (:meth:`~repro.query.tp_eval.TriplePatternEvaluator.evaluate_many`).
    """
    yield from evaluator.evaluate_many(pattern, upstream)


def join(upstream: Iterable[Binding], right: Iterable[Binding]) -> Iterator[Binding]:
    """Join the stream with a materialized right side (UNION branches, VALUES rows).

    A nested loop: every left row meets every right row, in order.  The
    right side is drawn on the first pull; an empty one never pulls the left.
    """
    rows = list(right)
    if not rows:
        return
    for binding in upstream:
        for row in rows:
            merged = binding.merged(row)
            if merged is not None:
                yield merged


def optional_join(
    upstream: Iterable[Binding],
    group: object,
    evaluate_group: GroupEvaluator,
) -> Iterator[Binding]:
    """Left-outer join with an OPTIONAL group (SPARQL ``LeftJoin``).

    ``group`` may be an AST :class:`GroupGraphPattern` or a compiled
    :class:`~repro.query.plan.GroupPlan` — it is only ever handed back to
    ``evaluate_group``.

    For each upstream solution the optional group is evaluated *seeded* with
    that solution (its bound variables propagate into the group's triple
    patterns, so the evaluation stays index-driven).  Solutions of the group
    extend the upstream row; when the group yields nothing the upstream row
    passes through unchanged with the optional variables left unbound.
    """
    for binding in upstream:
        matched = False
        for extended in evaluate_group(group, binding):
            matched = True
            yield extended
        if not matched:
            yield binding


# --------------------------------------------------------------------- #
# per-row operators
# --------------------------------------------------------------------- #


def filter_solutions(upstream: Iterable[Binding], expression: Expression) -> Iterator[Binding]:
    """FILTER: keep solutions whose effective boolean value is true."""
    for binding in upstream:
        if evaluate_filter(expression, binding):
            yield binding


def extend(upstream: Iterable[Binding], bind: Bind) -> Iterator[Binding]:
    """BIND: extend each solution with one computed variable (errors skip)."""
    for binding in upstream:
        value = evaluate_bind(bind.expression, binding)
        yield binding if value is None else binding.extended(bind.variable.name, value)


def extend_select(
    upstream: Iterable[Binding],
    expressions: Sequence[SelectExpression],
) -> Iterator[Binding]:
    """Evaluate non-aggregated ``(expr AS ?var)`` projection items per row."""
    for binding in upstream:
        current = binding
        for item in expressions:
            value = evaluate_bind(item.expression, current)
            if value is not None:
                current = current.extended(item.variable.name, value)
        yield current


def project(upstream: Iterable[Binding], names: Sequence[str]) -> Iterator[Binding]:
    """Projection: restrict every solution to the projected variable names.

    The rows keep their instance ids: each input layout maps to its cached
    projection layout, so the ids travel on to the response encoder.
    """
    names = tuple(names)
    plans = {}  # input layout -> (pick, projected layout)
    of = Binding.of
    for binding in upstream:
        layout = binding.layout
        plan = plans.get(layout)
        if plan is None:
            plan = plans[layout] = layout.projection(names)
        pick, projected = plan
        yield binding if pick is None else of(projected, pick(binding.row))


def distinct(upstream: Iterable[Binding], names: Sequence[str]) -> Iterator[Binding]:
    """DISTINCT: drop duplicate projected rows, preserving first-seen order."""
    seen: Set[Tuple[Optional[Term], ...]] = set()
    for binding in upstream:
        row = tuple(binding.get(name) for name in names)
        if row not in seen:
            seen.add(row)
            yield binding


def slice_solutions(
    upstream: Iterable[Binding],
    offset: Optional[int],
    limit: Optional[int],
) -> Iterator[Binding]:
    """OFFSET/LIMIT: lazy slice — stops pulling upstream after the last row."""
    start = offset or 0
    stop = None if limit is None else start + limit
    return itertools.islice(upstream, start, stop)


# --------------------------------------------------------------------- #
# blocking operators: ORDER BY
# --------------------------------------------------------------------- #


def order(
    upstream: Iterable[Binding],
    conditions: Sequence[OrderCondition],
) -> List[Binding]:
    """Full ORDER BY sort (blocking; stable, giving a deterministic order)."""
    return sorted(upstream, key=order_key_function(conditions))


def top_k(
    upstream: Iterable[Binding],
    conditions: Sequence[OrderCondition],
    k: int,
) -> List[Binding]:
    """Bounded ``ORDER BY ... LIMIT k`` selection.

    ``heapq.nsmallest`` keeps only ``k`` candidates in memory and performs
    ``O(n log k)`` comparisons instead of the full ``O(n log n)`` sort; the
    result equals ``order(upstream)[:k]`` including stability.
    """
    return heapq.nsmallest(k, upstream, key=order_key_function(conditions))
