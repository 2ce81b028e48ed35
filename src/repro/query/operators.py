"""Streaming (pull-based) physical operators for the query pipeline.

The unit of pull is a :class:`~repro.sparql.bindings.Batch`: one layout and
up to :data:`~repro.sparql.bindings.BATCH_ROWS` id rows.  The bind join,
FILTER, BIND, ``(expr AS ?v)``, projection, DISTINCT and the slice each
take a batch stream and loop over a batch's rows inside one frame; they pull
the next batch only when the downstream consumer asks for one.  Streams
start with batches of about one row and grow ×4 per batch
(:func:`~repro.sparql.bindings.grow`), so a ``LIMIT`` still stops the whole
pipeline within one batch of the requested number of rows — the upstream
triple-pattern probes (and the SDS kernel calls behind them) for the
remaining rows never happen.

The left-outer join of OPTIONAL and the UNION/VALUES join work per binding:
the engine feeds them through :func:`~repro.sparql.bindings.rows` and cuts
their output again with :func:`~repro.sparql.bindings.batches`.  Operators
that are inherently blocking (sort, grouping, the right-hand side of a UNION
or VALUES join) materialize internally and say so in their docstring; the
``ORDER BY ... LIMIT k`` case avoids the full sort with a bounded top-k
selection (:func:`top_k`).
"""

from __future__ import annotations

import heapq
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
from repro.sparql.bindings import BATCH_ROWS, Batch, Binding, batches, rows
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
    upstream: Iterable[Batch],
    pattern: TriplePattern,
    wanted: Optional[int] = None,
) -> Iterator[Batch]:
    """Index nested-loop join: propagate each upstream row into ``pattern``.

    Fully streaming — each upstream batch's rows are probed in order and
    their extensions leave in batches as soon as one fills
    (:meth:`~repro.query.tp_eval.TriplePatternEvaluator.evaluate_many`);
    ``wanted`` is how many rows a ``LIMIT`` takes from the join in all.
    """
    yield from evaluator.evaluate_many(pattern, upstream, wanted)


def join(upstream: Iterable[Binding], right: Iterable[Binding]) -> Iterator[Binding]:
    """Join the stream with a materialized right side (UNION branches, VALUES rows).

    A nested loop: every left row meets every right row, in order.  The
    right side is drawn on the first pull; an empty one never pulls the left.
    """
    others = list(right)
    if not others:
        return
    for binding in upstream:
        for other in others:
            merged = binding.merged(other)
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
# batch operators
# --------------------------------------------------------------------- #


def filter_solutions(upstream: Iterable[Batch], expression: Expression) -> Iterator[Batch]:
    """FILTER: keep solutions whose effective boolean value is true."""
    of = Binding.of
    for batch in upstream:
        layout = batch.layout
        kept = [row for row in batch.rows if evaluate_filter(expression, of(layout, row))]
        if kept:
            yield Batch(layout, kept)


def _extended(upstream: Iterable[Batch], extend: Callable[[Binding], Binding]) -> Iterator[Batch]:
    """Each batch's bindings through ``extend``, re-cut where their layouts differ."""
    for batch in upstream:
        yield from batches(map(extend, rows([batch])), BATCH_ROWS)


def extend(upstream: Iterable[Batch], bind: Bind) -> Iterator[Batch]:
    """BIND: extend each solution with one computed variable (errors skip)."""
    expression, name = bind.expression, bind.variable.name

    def one(binding: Binding) -> Binding:
        value = evaluate_bind(expression, binding)
        return binding if value is None else binding.extended(name, value)

    return _extended(upstream, one)


def extend_select(
    upstream: Iterable[Batch],
    expressions: Sequence[SelectExpression],
) -> Iterator[Batch]:
    """Evaluate non-aggregated ``(expr AS ?var)`` projection items per row."""

    def one(binding: Binding) -> Binding:
        for item in expressions:
            value = evaluate_bind(item.expression, binding)
            if value is not None:
                binding = binding.extended(item.variable.name, value)
        return binding

    return _extended(upstream, one)


def project(upstream: Iterable[Batch], names: Sequence[str]) -> Iterator[Batch]:
    """Projection: restrict every solution to the projected variable names.

    The rows keep their instance ids: each input layout maps to its cached
    projection layout, so the ids travel on to the response encoder.
    """
    names = tuple(names)
    plans = {}  # input layout -> (pick, projected layout)
    for batch in upstream:
        layout = batch.layout
        plan = plans.get(layout)
        if plan is None:
            plan = plans[layout] = layout.projection(names)
        pick, projected = plan
        yield batch if pick is None else Batch(projected, list(map(pick, batch.rows)))


def distinct(upstream: Iterable[Batch], names: Sequence[str]) -> Iterator[Batch]:
    """DISTINCT: drop duplicate projected rows, preserving first-seen order.

    Rows compare by their terms, so an id and its term are one value.
    """
    seen: Set[Tuple[Optional[Term], ...]] = set()
    plans = {}  # input layout -> the column of each name (None: unbound)
    for batch in upstream:
        layout = batch.layout
        columns = plans.get(layout)
        if columns is None:
            columns = plans[layout] = [layout.columns.get(name) for name in names]
        decode = layout.decode
        kept = []
        for row in batch.rows:
            key = tuple([None if column is None else decode(row[column]) for column in columns])
            if key not in seen:
                seen.add(key)
                kept.append(row)
        if kept:
            yield Batch(layout, kept)


def slice_solutions(
    upstream: Iterable[Batch],
    offset: Optional[int],
    limit: Optional[int],
) -> Iterator[Batch]:
    """OFFSET/LIMIT: lazy slice — stops pulling upstream after the last row."""
    skip, left = offset or 0, limit
    if left == 0:
        return
    for batch in upstream:
        kept = batch.rows
        if skip:
            if skip >= len(kept):
                skip -= len(kept)
                continue
            kept, skip = kept[skip:], 0
        if left is not None:
            if len(kept) >= left:
                yield Batch(batch.layout, kept[:left])
                return
            left -= len(kept)
        yield batch if kept is batch.rows else Batch(batch.layout, kept)


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
