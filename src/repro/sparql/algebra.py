"""Solution-modifier algebra: aggregates, ordering keys, projection.

This module implements the *logical* semantics of the SPARQL 1.1 solution
modifiers — ``GROUP BY`` with the aggregates ``COUNT`` / ``SUM`` / ``MIN`` /
``MAX`` / ``AVG`` / ``SAMPLE``, ``ORDER BY`` total ordering, projection with
``(expr AS ?var)``, ``DISTINCT``, ``OFFSET`` and ``LIMIT`` — over
materialized binding lists.  It is shared by every materializing evaluator
in the repository (the baseline systems' generic engine and the reference
:class:`~repro.query.materializing.MaterializingQueryEngine`); the streaming
engine (:mod:`repro.query.operators`) reuses the same aggregate computation
and ordering keys inside its lazy operators, so the two evaluation styles
cannot drift apart semantically.

Empty-group semantics follow the W3C recommendation: over an empty group
``COUNT`` is ``0``, ``SUM`` and ``AVG`` are ``0``, and ``MIN`` / ``MAX`` /
``SAMPLE`` are errors (the alias stays unbound).  The deviations from the
recommendation are listed in ``docs/sparql_support.md``.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.rdf.terms import BlankNode, Literal, Term, URI
from repro.rdf.terms import XSD_DOUBLE, XSD_INTEGER
from repro.sparql.ast import (
    Aggregate,
    Arithmetic,
    BooleanExpression,
    Comparison,
    Expression,
    FunctionCall,
    InlineData,
    Negation,
    OrderCondition,
    SelectQuery,
    Variable,
)
from repro.sparql.bindings import Binding, ResultSet
from repro.sparql.expressions import evaluate, evaluate_bind, to_term

__all__ = [
    "apply_solution_modifiers",
    "compute_aggregate",
    "evaluate_select_expression",
    "group_solution",
    "group_solutions",
    "number_to_term",
    "order_key_function",
    "term_order_key",
    "values_bindings",
]


# --------------------------------------------------------------------- #
# ORDER BY: a total order over RDF terms
# --------------------------------------------------------------------- #


def term_order_key(value: Any) -> Tuple:
    """A sort key giving a total order over (possibly unbound) RDF terms.

    Follows SPARQL 15.1: unbound < blank nodes < IRIs < literals; numeric
    literals order numerically among themselves and before the remaining
    literals, which order by lexical form.  Python scalars produced by
    expression evaluation participate as the equivalent literal.
    """
    if value is None:
        return (0,)
    if isinstance(value, BlankNode):
        return (1, value.label)
    if isinstance(value, URI):
        return (2, value.value)
    if isinstance(value, bool):
        return (3, 1, "true" if value else "false")
    if isinstance(value, (int, float)):
        return (3, 0, float(value))
    if isinstance(value, Literal):
        if value.is_numeric:
            try:
                return (3, 0, float(value.lexical))
            except ValueError:
                pass
        return (3, 1, value.lexical)
    return (3, 1, str(value))


class _Descending:
    """Wraps a sort key so comparisons invert (for ``ORDER BY DESC``)."""

    __slots__ = ("key",)

    def __init__(self, key: Tuple) -> None:
        self.key = key

    def __lt__(self, other: "_Descending") -> bool:
        return other.key < self.key

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Descending) and other.key == self.key


def order_key_function(conditions: Sequence[OrderCondition]) -> Callable[[Binding], Tuple]:
    """A ``key=`` callable sorting bindings by the given ORDER BY conditions."""

    def key(binding: Binding) -> Tuple:
        components: List[Any] = []
        for condition in conditions:
            try:
                value = evaluate(condition.expression, binding)
            except Exception:  # SPARQL errors sort lowest (as unbound)
                value = None
            component = term_order_key(value)
            components.append(_Descending(component) if condition.descending else component)
        return tuple(components)

    return key


# --------------------------------------------------------------------- #
# aggregates
# --------------------------------------------------------------------- #


def number_to_term(value: Any) -> Term:
    """A numeric aggregate result as an ``xsd:integer``/``xsd:double`` literal."""
    if isinstance(value, int):
        return Literal(str(value), datatype=XSD_INTEGER)
    if isinstance(value, float) and value.is_integer():
        return Literal(str(int(value)), datatype=XSD_INTEGER)
    return Literal(repr(float(value)), datatype=XSD_DOUBLE)


def _numeric_value(value: Any) -> Optional[Any]:
    """Coerce an evaluated value to ``int``/``float`` (``None`` if non-numeric)."""
    if isinstance(value, bool):
        return None
    if isinstance(value, (int, float)):
        return value
    if isinstance(value, Literal):
        python_value = value.to_python()
        if isinstance(python_value, bool):
            return None
        if isinstance(python_value, (int, float)):
            return python_value
    return None


def compute_aggregate(aggregate: Aggregate, group: Sequence[Binding]) -> Optional[Term]:
    """Evaluate one aggregate over a group of solutions.

    Returns the result as an RDF term, or ``None`` when the aggregate is a
    SPARQL error (e.g. ``MIN`` over an empty group, ``SUM`` over
    non-numeric values) — the result variable then stays unbound.
    """
    name = aggregate.name
    if aggregate.expression is None:  # COUNT(*) / COUNT(DISTINCT *)
        if aggregate.distinct:
            distinct_rows = {
                tuple(sorted(binding.items(), key=lambda item: item[0]))
                for binding in group
            }
            return number_to_term(len(distinct_rows))
        return number_to_term(len(group))

    values: List[Any] = []
    for binding in group:
        try:
            value = evaluate(aggregate.expression, binding)
        except Exception:
            continue
        if value is not None:
            values.append(value)
    if aggregate.distinct:
        seen = set()
        unique: List[Any] = []
        for value in values:
            marker = to_term(value)
            if marker not in seen:
                seen.add(marker)
                unique.append(value)
        values = unique

    if name == "count":
        return number_to_term(len(values))
    if name == "sample":
        return to_term(values[0]) if values else None
    if name in ("sum", "avg"):
        numbers = [_numeric_value(value) for value in values]
        if any(number is None for number in numbers):
            return None  # type error: a non-numeric value in SUM/AVG
        if not numbers:
            return number_to_term(0)
        total = sum(numbers)  # type: ignore[arg-type]
        if name == "sum":
            return number_to_term(total)
        return number_to_term(total / len(numbers))
    if name in ("min", "max"):
        if not values:
            return None
        chooser = min if name == "min" else max
        return to_term(chooser(values, key=term_order_key))
    raise ValueError(f"unknown aggregate {name!r}")


def _substitute_aggregates(
    expression: Expression,
    group: Sequence[Binding],
    extra: Dict[str, Term],
    counter: List[int],
) -> Expression:
    """Replace Aggregate nodes by fresh variables bound to their computed value.

    ``counter`` advances for *every* aggregate, including erroring ones
    (whose alias stays unbound) — reusing an alias would alias an erroring
    aggregate with the next one's value.
    """
    if isinstance(expression, Aggregate):
        alias = f"__agg{counter[0]}"
        counter[0] += 1
        value = compute_aggregate(expression, group)
        if value is not None:
            extra[alias] = value
        return Variable(alias)
    if isinstance(expression, Comparison):
        return Comparison(
            expression.operator,
            _substitute_aggregates(expression.left, group, extra, counter),
            _substitute_aggregates(expression.right, group, extra, counter),
        )
    if isinstance(expression, Arithmetic):
        return Arithmetic(
            expression.operator,
            _substitute_aggregates(expression.left, group, extra, counter),
            _substitute_aggregates(expression.right, group, extra, counter),
        )
    if isinstance(expression, BooleanExpression):
        return BooleanExpression(
            expression.operator,
            tuple(
                _substitute_aggregates(op, group, extra, counter)
                for op in expression.operands
            ),
        )
    if isinstance(expression, Negation):
        return Negation(_substitute_aggregates(expression.operand, group, extra, counter))
    if isinstance(expression, FunctionCall):
        return FunctionCall(
            expression.name,
            tuple(
                _substitute_aggregates(arg, group, extra, counter)
                for arg in expression.arguments
            ),
        )
    return expression


def evaluate_select_expression(
    expression: Expression,
    group: Sequence[Binding],
    key_binding: Binding,
) -> Optional[Term]:
    """Evaluate a ``(expr AS ?var)`` projection over one group.

    Aggregate sub-expressions are computed over ``group``; the remaining
    parts are evaluated against ``key_binding`` (the per-group binding of
    the GROUP BY variables — or the row itself for non-grouped queries).
    An erroring aggregate leaves its alias unbound, so the whole expression
    evaluates to the SPARQL error value (``None``).
    """
    extra: Dict[str, Term] = {}
    substituted = _substitute_aggregates(expression, group, extra, [0])
    binding = key_binding
    for alias, value in extra.items():
        binding = binding.extended(alias, value)
    return evaluate_bind(substituted, binding)


def group_solutions(query: SelectQuery, solutions: Sequence[Binding]) -> List[Binding]:
    """The GROUP BY + aggregation phase: one output binding per group.

    Each output binding carries the GROUP BY variables plus the aliases of
    the SELECT clause's ``(expr AS ?var)`` items.  Without GROUP BY there is
    exactly one (possibly empty) group covering all solutions.
    """
    grouped: Dict[Tuple, List[Binding]] = {}
    order: List[Tuple] = []
    for binding in solutions:
        key_parts: List[Any] = []
        for condition in query.group_by:
            try:
                key_parts.append(to_term(evaluate(condition, binding)))
            except Exception:
                key_parts.append(None)
        key = tuple(key_parts)
        if key not in grouped:
            grouped[key] = []
            order.append(key)
        grouped[key].append(binding)
    if not query.group_by and not grouped:
        grouped[()] = []  # aggregates over zero solutions form one empty group
        order.append(())

    return [
        group_solution(query, key, lambda expression, key_binding, group=grouped[key]: (
            evaluate_select_expression(expression, group, key_binding)
        ))
        for key in order
    ]


def group_solution(
    query: SelectQuery, key: Tuple, aggregate: Callable[[Expression, Binding], Optional[Term]]
) -> Binding:
    """One group's output binding: the GROUP BY variables bound in ``key``
    (one term per condition) and each ``(expr AS ?var)`` item's
    ``aggregate(expression, key_binding)`` that is not an error."""
    values: Dict[str, Term] = {}
    for condition, value in zip(query.group_by, key):
        if isinstance(condition, Variable) and value is not None:
            values[condition.name] = value
    key_binding = Binding(values)
    for item in query.select_expressions():
        value = aggregate(item.expression, key_binding)
        if value is not None:
            values[item.variable.name] = value
    return Binding(values)


# --------------------------------------------------------------------- #
# VALUES inline data
# --------------------------------------------------------------------- #


def values_bindings(inline: InlineData) -> List[Binding]:
    """The VALUES block as a list of bindings (``UNDEF`` entries unbound)."""
    names = inline.variable_names()
    bindings: List[Binding] = []
    for row in inline.rows:
        values = {
            name: term for name, term in zip(names, row) if term is not None
        }
        bindings.append(Binding(values))
    return bindings


# --------------------------------------------------------------------- #
# the full materialized modifier pipeline
# --------------------------------------------------------------------- #


def apply_solution_modifiers(query: SelectQuery, solutions: Iterable[Binding]) -> ResultSet:
    """Apply the SPARQL 1.1 solution modifiers to materialized WHERE solutions.

    Evaluation order (SPARQL 18.2.4-18.2.5): grouping/aggregation, ORDER BY,
    projection (with ``(expr AS ?var)``), DISTINCT, OFFSET, LIMIT.  This is
    the reference path used by the materializing engines; the streaming
    engine implements the same order lazily.
    """
    bindings = list(solutions)
    if query.aggregated:
        bindings = group_solutions(query, bindings)
    elif query.select_expressions():
        extended: List[Binding] = []
        for binding in bindings:
            current = binding
            for item in query.select_expressions():
                value = evaluate_bind(item.expression, current)
                if value is not None:
                    current = current.extended(item.variable.name, value)
            extended.append(current)
        bindings = extended
    if query.order_by:
        bindings = sorted(bindings, key=order_key_function(query.order_by))
    names = query.projected_names()
    result = ResultSet(names, [binding.project(names) for binding in bindings])
    if query.distinct:
        result = result.distinct()
    start = query.offset or 0
    stop = None if query.limit is None else start + query.limit
    if start or stop is not None:
        result = ResultSet(result.variables, result.bindings[start:stop])
    return result
