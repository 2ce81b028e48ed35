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

The UNION/VALUES join, the left-outer join of OPTIONAL and GROUP BY work on
batches too: the join keys its right side on the shared variables' ids, the
OPTIONAL group runs once per upstream batch, and grouping keys on ids and
counts on columns.  Only ORDER BY (and top-k) still sorts bindings between
:func:`~repro.sparql.bindings.rows` and :func:`~repro.sparql.bindings.batches`.
Operators that are inherently blocking (sort, grouping, the right-hand side
of a UNION or VALUES join) materialize internally and say so in their
docstring; the ``ORDER BY ... LIMIT k`` case avoids the full sort with a
bounded top-k selection (:func:`top_k`).
"""

from __future__ import annotations

import functools
import heapq
from itertools import chain, compress, product
from operator import itemgetter
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.query.tp_eval import _group_pairs
from repro.rdf.terms import Literal, Term
from repro.sparql.algebra import (
    evaluate_select_expression,
    group_solution,
    number_to_term,
    order_key_function,
)
from repro.sparql.ast import (
    Aggregate,
    Bind,
    Expression,
    OrderCondition,
    SelectExpression,
    SelectQuery,
    TriplePattern,
    Variable,
)
from repro.sparql.bindings import BATCH_ROWS, Batch, Binding, Layout, batches, rows, same_term
from repro.sparql.expressions import evaluate, evaluate_bind, evaluate_filter, to_term

# --------------------------------------------------------------------- #
# joins
# --------------------------------------------------------------------- #


def bind_join(
    evaluator,
    upstream: Iterable[Batch],
    pattern: TriplePattern,
    wanted: Optional[int] = None,
    probes=None,
) -> Iterator[Batch]:
    """Index nested-loop join: propagate each upstream row into ``pattern``.

    Fully streaming — each upstream batch's rows are probed in order and
    their extensions leave in batches as soon as one fills
    (:meth:`~repro.query.tp_eval.TriplePatternEvaluator.evaluate_many`);
    ``wanted`` is how many rows a ``LIMIT`` takes from the join in all, and
    ``probes`` the step's run-bucket state when it outlives this stream.
    """
    yield from evaluator.evaluate_many(pattern, upstream, wanted, probes)


def join(upstream: Iterable[Batch], right: Iterable[Batch]) -> Iterator[Batch]:
    """Join the stream with a materialized right side (UNION branches, VALUES rows).

    Rows leave in nested-loop order.  Per left layout the right rows are
    keyed once on the shared variables, each value under its id in the left
    layout's dictionary and under its term, so a left row finds its partners
    by one lookup on its own values.  The right side is drawn on the first
    pull; an empty one never pulls the left.
    """
    others = [(batch.layout, row) for batch in right for row in batch.rows]
    if not others:
        return
    indexes = {}  # left layout -> [(left columns, key -> [(position, merged layout, extra values)])]
    for batch in upstream:
        layout = batch.layout
        index = indexes.get(layout)
        if index is None:
            index = indexes[layout] = _keyed(layout, others)
        hits = [
            list(map(keyed.get, map(itemgetter(*columns), batch.rows) if columns else [()] * len(batch.rows)))
            for columns, keyed in index
        ]
        found = hits[0] if len(hits) == 1 else [
            sorted(chain.from_iterable(filter(None, row_hits)), key=itemgetter(0)) for row_hits in zip(*hits)
        ]
        pieces: List[Batch] = []
        for row, entries in zip(compress(batch.rows, found), filter(None, found)):
            for _, merged, extra in entries:
                if not pieces or pieces[-1].layout is not merged:
                    pieces.append(Batch(merged, []))
                pieces[-1].rows.append(row + extra)
        yield from pieces


def _keyed(layout: Layout, others: List[tuple]) -> list:
    """The right rows keyed for one left layout, one index per set of shared columns."""
    indexes: dict = {}
    for position, (other_layout, row) in enumerate(others):
        plan = layout.merge(other_layout)
        if plan is None:  # ids of another dictionary: join on the terms
            terms = Binding(Binding.of(other_layout, row).as_dict())
            other_layout, row = terms.layout, terms.row
            plan = layout.merge(other_layout)
        shared, extra, merged = plan
        keyed = indexes.setdefault(tuple([mine for mine, _ in shared]), {})
        entry = (position, merged, tuple([row[column] for column in extra]))
        forms = [_forms(row[theirs], other_layout, layout.dictionary) for _, theirs in shared]
        for key in product(*forms):
            keyed.setdefault(key[0] if len(key) == 1 else key, []).append(entry)
    return list(indexes.items())


def _forms(value, layout: Layout, dictionary) -> tuple:
    """The values a column holding ``value``'s term may hold: its id in
    ``dictionary`` (when it has one there), then the term."""
    term = layout.decode(value)
    if value.__class__ is int and layout.dictionary is dictionary:
        return value, term
    found = None if dictionary is None or isinstance(term, Literal) else dictionary.try_locate(term)
    return (term,) if found is None else (found, term)


def optional_join(
    upstream: Iterable[Batch],
    evaluate_group: Callable[[Batch], Iterator[Batch]],
) -> Iterator[Batch]:
    """Left-outer join with an OPTIONAL group (SPARQL ``LeftJoin``).

    ``evaluate_group(batch)`` runs the group seeded with a batch of upstream
    rows, whose bound variables propagate into its patterns; its FILTERs see
    the merged rows.  Operators keep input order and extend a row after its
    columns, so a pointer walk finds the upstream row each extension extends
    (a batch is cut before a repeated row, so the walk is unambiguous).
    Each upstream row is followed by its extensions, or passes through in
    place with the optional variables unbound.
    """
    for batch in upstream:
        for outer in _distinct_runs(batch.rows):
            yield from _left_join(batch.layout, outer, evaluate_group(Batch(batch.layout, outer)))


def _distinct_runs(found: List[tuple]) -> Iterator[List[tuple]]:
    """``found`` cut before each row that repeats a row of its run."""
    run: List[tuple] = []
    seen: set = set()
    for row in found:
        if row in seen:
            yield run
            run, seen = [], set()
        run.append(row)
        seen.add(row)
    yield run


def _left_join(layout: Layout, outer: List[tuple], extensions: Iterable[Batch]) -> Iterator[Batch]:
    """The rows of ``outer``, each followed by its ``extensions`` or kept alone."""
    at, matched = 0, False  # the outer row being extended; whether it has an extension
    tests = {}  # extension layout -> whether its row extends an outer row
    for found in extensions:
        test = tests.get(found.layout)
        if test is None:
            test = tests[found.layout] = _extension_test(layout, found.layout)
        first = 0  # found.rows[first:] are not yet yielded
        for index, row in enumerate(found.rows):
            if not test(row, outer[at]):
                owner = next((k for k in range(at + 1, len(outer)) if test(row, outer[k])), None)
                if owner is not None:
                    if index > first:
                        yield Batch(found.layout, found.rows[first:index])
                    if at + matched < owner:
                        yield Batch(layout, outer[at + matched:owner])
                    at, first = owner, index
            matched = True
        yield Batch(found.layout, found.rows[first:] if first else found.rows)
    if at + matched < len(outer):
        yield Batch(layout, outer[at + matched:])


def _extension_test(outer: Layout, layout: Layout) -> Callable[[tuple, tuple], bool]:
    """``test(row, outer_row)``: whether a ``layout`` row binds every variable
    of an ``outer`` row to the same term."""
    columns = [layout.columns[name] for name in outer.names]
    width = len(columns)
    if columns == list(range(width)) and outer.dictionary in (None, layout.dictionary):
        return lambda row, outer_row: row[:width] == outer_row
    return lambda row, outer_row: all(
        same_term(outer, mine, layout, row[column]) for mine, column in zip(outer_row, columns)
    )


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
# blocking operators: GROUP BY, ORDER BY
# --------------------------------------------------------------------- #


def group(upstream: Iterable[Batch], query: SelectQuery, dictionary) -> Iterator[Batch]:
    """GROUP BY and the aggregates: one row per group, in first-seen order.

    Rows group by the id of each condition's value (its term when it has
    none): a variable's is read from its column, an expression's is
    evaluated.  A ``COUNT`` of a variable or of ``*`` reads the group's
    columns; any other ``(expr AS ?var)`` item evaluates its group's
    bindings through :func:`~repro.sparql.algebra.evaluate_select_expression`,
    as :func:`~repro.sparql.algebra.group_solutions` does.
    """
    conditions = query.group_by
    groups: dict = {}  # key -> the group's rows, as batches
    keys = {}  # layout -> rows -> the key of each row's group
    for batch in upstream:
        layout = batch.layout
        keys_of = keys.get(layout)
        if keys_of is None:
            keys_of = keys[layout] = _group_keys(conditions, layout, dictionary)
        for key, found in _group_pairs(zip(keys_of(batch.rows), batch.rows)).items():
            groups.setdefault(key, []).append(Batch(layout, found))
    if not conditions and not groups:
        groups[()] = []  # aggregates over zero solutions form one empty group
    solutions = []
    for key, found in groups.items():
        parts = (key,) if len(conditions) == 1 else key
        terms = tuple([dictionary.extract(part) if part.__class__ is int else part for part in parts])
        aggregate = functools.partial(_aggregate, found=found, dictionary=dictionary)
        solutions.append(group_solution(query, terms, aggregate))
    yield from batches(solutions, BATCH_ROWS)


def _group_keys(conditions: Sequence[Expression], layout: Layout, dictionary) -> Callable[[list], list]:
    """``rows -> keys``: per row, the ids of its values of the GROUP BY
    conditions (one condition's alone, several as a tuple)."""
    variable = conditions[0] if len(conditions) == 1 else None
    if isinstance(variable, Variable) and variable.name in layout.columns:
        pick, same = itemgetter(layout.columns[variable.name]), layout.dictionary is dictionary
        return lambda found: [
            value if value.__class__ is int and same else _forms(value, layout, dictionary)[0]
            for value in map(pick, found)
        ]

    def keys_of(found: List[tuple]) -> list:
        keys = []
        for row in found:
            binding, key = Binding.of(layout, row), []
            for condition in conditions:
                try:
                    value = to_term(evaluate(condition, binding))
                except Exception:
                    value = None
                key.append(None if value is None else _forms(value, layout, dictionary)[0])
            keys.append(key[0] if len(key) == 1 else tuple(key))
        return keys

    return keys_of


def _aggregate(expression: Expression, key_binding: Binding, found: List[Batch], dictionary):
    """One ``(expr AS ?var)`` item over one group's rows (``None``: an error)."""
    if isinstance(expression, Aggregate) and expression.name == "count":
        counted = expression.expression
        if counted is None and not expression.distinct:
            return number_to_term(sum(map(len, found)))
        if isinstance(counted, Variable):
            bound = [batch for batch in found if counted.name in batch.layout.columns]
            if not expression.distinct:
                return number_to_term(sum(map(len, bound)))
            return number_to_term(len({
                value if value.__class__ is int and batch.layout.dictionary is dictionary
                else _forms(value, batch.layout, dictionary)[0]
                for batch in bound
                for value in map(itemgetter(batch.layout.columns[counted.name]), batch.rows)
            }))
    return evaluate_select_expression(expression, list(rows(found)), key_binding)


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
