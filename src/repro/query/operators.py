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
of a merge join) materialize internally and say so in their docstring; the
``ORDER BY ... LIMIT k`` case avoids the full sort with a bounded top-k
selection (:func:`top_k`).
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.rdf.terms import Term
from repro.sparql.algebra import order_key_function, values_bindings
from repro.sparql.ast import (
    Bind,
    Expression,
    GroupGraphPattern,
    InlineData,
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


def term_join_key(term: Optional[Term]) -> Tuple:
    """The merge-join sort key over one binding slot (unbound sorts last).

    The single source of truth for join-key ordering: both the streaming
    and the materializing engine sort merge-join inputs with this key, so
    their emission orders cannot diverge.
    """
    if term is None:
        return (9, "")
    return (0, term.n3() if hasattr(term, "n3") else str(term))


def merge_join(
    evaluator,
    left: Sequence[Binding],
    pattern: TriplePattern,
    join_name: str,
) -> Iterator[Binding]:
    """Sort-merge join on the single variable shared with the prefix.

    Blocking on both sides: the PSO layout delivers the right-hand side
    ordered by subject inside a property run, the left side is sorted on the
    join key, then both are merged.  Kept byte-compatible with the
    materializing engine's merge join (same key, same emission order).
    """
    right = list(evaluator.evaluate(pattern, Binding()))

    def key(binding: Binding) -> Tuple:
        return term_join_key(binding.get(join_name))

    left_sorted = sorted(left, key=key)
    right_sorted = sorted(right, key=key)
    left_index = 0
    right_index = 0
    while left_index < len(left_sorted) and right_index < len(right_sorted):
        left_key = key(left_sorted[left_index])
        right_key = key(right_sorted[right_index])
        if left_key < right_key:
            left_index += 1
            continue
        if right_key < left_key:
            right_index += 1
            continue
        # Equal keys: emit the cross product of the two equal runs.
        left_end = left_index
        while left_end < len(left_sorted) and key(left_sorted[left_end]) == left_key:
            left_end += 1
        right_end = right_index
        while right_end < len(right_sorted) and key(right_sorted[right_end]) == right_key:
            right_end += 1
        for i in range(left_index, left_end):
            for j in range(right_index, right_end):
                merged = left_sorted[i].merged(right_sorted[j])
                if merged is not None:
                    yield merged
        left_index = left_end
        right_index = right_end


def union_combine(
    upstream: Iterator[Binding],
    branch_solutions: Sequence[Binding],
) -> Iterator[Binding]:
    """Join the upstream stream with the materialized UNION branch solutions.

    Streams the left side; keeps the historical engine behaviour that an
    *empty* left side passes the union solutions through unchanged (the
    usual case: a group whose only content is the UNION).
    """
    if not branch_solutions:
        # Right side empty: only an empty left side produces output (the
        # pass-through above), which here is also empty.
        return
    first = next(upstream, None)
    if first is None:
        yield from branch_solutions
        return
    for left in itertools.chain([first], upstream):
        for right in branch_solutions:
            merged = left.merged(right)
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


def values_join(
    upstream: Iterable[Binding],
    inline: InlineData,
) -> Iterator[Binding]:
    """Join the stream with a VALUES inline-data block (streaming left side)."""
    table = values_bindings(inline)
    for binding in upstream:
        for row in table:
            merged = binding.merged(row)
            if merged is not None:
                yield merged


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
