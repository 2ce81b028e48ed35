"""Solution mappings (variable bindings), batches of them, and result sets.

A :class:`Binding` maps variable names to RDF terms; a :class:`ResultSet`
is an ordered collection of bindings together with the projected variable
names, comparable to the SPARQL JSON results a full engine would emit.

A binding is a row: a tuple under a shared :class:`Layout` that maps each
variable to its column.  A column holds a term or an ``int``, an id of the
store's append-only *instance* dictionary (which the layout carries and
every compacted base shares).  Triple-pattern evaluation extends rows with
ids; an id becomes a term only where something reads the value (``get``,
``items``, equality) or at the HTTP encoder
(:func:`repro.serve.server.encode_result`).  An id and its term are the
same value everywhere.

The streaming engine moves rows in a :class:`Batch`: one layout and a list
of up to :data:`BATCH_ROWS` rows, the unit every operator pulls, from the
triple-pattern steps through OPTIONAL, UNION/VALUES, GROUP BY and property
paths to the response encoder.  :func:`batches` cuts a binding stream into
batches and :func:`rows` turns batches back into bindings, for ORDER BY,
which sorts bindings, and for callers that want bindings.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.rdf.terms import Term

#: Bound on each layout's child / projection / merge caches and on the table
#: of term-only layouts: a server sees arbitrary variable names, and a cleared
#: cache only costs rebuilding layouts (equality never relies on identity).
_CACHE_BOUND = 256

#: The most rows one :class:`Batch` holds.
BATCH_ROWS = 256


def _remember(cache: dict, key, value):
    """Store ``value`` under ``key`` and return it; a full cache starts over."""
    if len(cache) >= _CACHE_BOUND:
        cache.clear()
    cache[key] = value
    return value


class Layout:
    """The column of each variable in a row, shared by every row of one shape.

    Layouts are interned: a term-only layout per tuple of names, below it
    one child per added name, one layout per projection and per merge.
    ``dictionary`` decodes the ``int`` columns (``None``: terms only).  A
    term-only layout remembers only the last dictionary that took it over
    (:meth:`owned`), so the interned layouts keep at most that one alive.
    """

    __slots__ = ("names", "columns", "dictionary", "_children", "_projections", "_merges", "_owned")

    def __init__(self, names: Tuple[str, ...], dictionary=None) -> None:
        self.names = names
        self.columns: Dict[str, int] = {name: column for column, name in enumerate(names)}
        self.dictionary = dictionary
        self._children: Dict[str, "Layout"] = {}
        self._projections: Dict[Tuple[str, ...], tuple] = {}
        self._merges: Dict["Layout", tuple] = {}
        self._owned: Optional["Layout"] = None

    def child(self, name: str) -> Optional["Layout"]:
        """This layout plus a column for ``name`` (``None`` when it has one)."""
        found = self._children.get(name)
        if found is None:
            if name in self.columns:
                return None
            found = _remember(self._children, name, Layout(self.names + (name,), self.dictionary))
        return found

    def owned(self, dictionary) -> Optional["Layout"]:
        """The same columns with ids of ``dictionary`` (``None`` if ids of another)."""
        if self.dictionary is dictionary:
            return self
        if self.dictionary is not None:
            return None
        found = self._owned
        if found is None or found.dictionary is not dictionary:
            found = self._owned = Layout(self.names, dictionary)
        return found

    def projection(self, names: Tuple[str, ...]) -> tuple:
        """``(pick, layout)``: ``pick(row)`` keeps the columns of ``names`` that exist.

        ``pick`` is ``None`` when that is the whole row, in order.
        """
        found = self._projections.get(names)
        if found is None:
            kept = tuple(name for name in names if name in self.columns)
            columns = [self.columns[name] for name in kept]
            if kept == self.names:
                found = (None, self)  # the row as it is
            elif len(columns) > 1:
                found = (itemgetter(*columns), _layout(kept).owned(self.dictionary))
            else:
                found = (lambda row: tuple([row[c] for c in columns]), _layout(kept).owned(self.dictionary))
            _remember(self._projections, names, found)
        return found

    def merge(self, other: "Layout") -> Optional[tuple]:
        """``(shared, extra, layout)``: the column pairs both layouts bind, the
        columns of ``other`` appended after ours, and the merged layout;
        ``None`` when the two carry ids of different dictionaries."""
        try:
            return self._merges[other]
        except KeyError:
            pass
        dictionary = other.dictionary
        if dictionary is not None and dictionary is not self.dictionary:
            if self.dictionary is not None:
                return None
            return self.owned(dictionary).merge(other)
        shared = tuple(
            (self.columns[name], column) for column, name in enumerate(other.names) if name in self.columns
        )
        extra = tuple(column for column, name in enumerate(other.names) if name not in self.columns)
        layout = self
        for column in extra:
            layout = layout.child(other.names[column])
        return _remember(self._merges, other, (shared, extra, layout))

    def decode(self, value):
        """The term a column value stands for."""
        return self.dictionary.extract(value) if value.__class__ is int else value


_TERM_LAYOUTS: Dict[Tuple[str, ...], Layout] = {}


def _layout(names: Tuple[str, ...]) -> Layout:
    """The interned term-only layout of ``names``."""
    found = _TERM_LAYOUTS.get(names)
    return found if found is not None else _remember(_TERM_LAYOUTS, names, Layout(names))


def same_term(layout: Layout, value, other_layout: Layout, other) -> bool:
    """Whether two column values name the same term (an id equals its term)."""
    if value == other:
        return True
    return (value.__class__ is int or other.__class__ is int) and (
        layout.decode(value) == other_layout.decode(other)
    )


class Binding:
    """An immutable mapping from variable names to RDF terms, stored as a row.

    ``layout`` and ``row`` are read-only: the row holds one value per
    layout column, a term or an instance id (see the module docstring).
    """

    __slots__ = ("layout", "row")

    def __init__(self, values: Optional[Dict[str, Term]] = None) -> None:
        values = dict(values or {})
        self.layout = _layout(tuple(values))
        self.row = tuple(values.values())

    @classmethod
    def _adopt(cls, values: Dict[str, Term]) -> "Binding":
        """Wrap ``values`` without a defensive copy (internal fast path)."""
        return cls.of(_layout(tuple(values)), tuple(values.values()))

    @staticmethod
    def of(layout: Layout, row: tuple) -> "Binding":
        """The binding of ``row`` under ``layout`` (one value per column)."""
        binding = _new(Binding)
        binding.layout = layout
        binding.row = row
        return binding

    def get(self, name: str, default: Optional[Term] = None) -> Optional[Term]:
        """Value bound to ``name`` or ``default``."""
        layout = self.layout
        column = layout.columns.get(name)
        if column is None:
            return default
        value = self.row[column]
        return layout.dictionary.extract(value) if value.__class__ is int else value

    def __getitem__(self, name: str) -> Term:
        return self.layout.decode(self.row[self.layout.columns[name]])

    def __contains__(self, name: str) -> bool:
        return name in self.layout.columns

    def __len__(self) -> int:
        return len(self.row)

    def __iter__(self) -> Iterator[str]:
        return iter(self.layout.names)

    def items(self) -> List[Tuple[str, Term]]:
        """The ``(variable, term)`` pairs."""
        decode = self.layout.decode
        return [(name, decode(value)) for name, value in zip(self.layout.names, self.row)]

    def extended(self, name: str, value: Term) -> "Binding":
        """A new binding with ``name`` additionally bound to ``value``."""
        layout = self.layout
        child = layout._children.get(name) or layout.child(name)
        if child is None:  # ``name`` is bound already: the new value replaces it
            values = self.as_dict()
            values[name] = value
            return Binding._adopt(values)
        return Binding.of(child, self.row + (value,))

    def merged(self, other: "Binding") -> Optional["Binding"]:
        """Merge with ``other``; return ``None`` when they conflict."""
        layout, other_layout = self.layout, other.layout
        plan = layout.merge(other_layout)
        if plan is None:  # ids of two dictionaries: merge the terms
            return Binding._adopt(self.as_dict()).merged(Binding._adopt(other.as_dict()))
        shared, extra, merged_layout = plan
        row, other_row = self.row, other.row
        for mine, theirs in shared:
            if not same_term(layout, row[mine], other_layout, other_row[theirs]):
                return None
        return Binding.of(merged_layout, row + tuple([other_row[column] for column in extra]) if extra else row)

    def compatible(self, other: "Binding") -> bool:
        """Whether the two bindings agree on every shared variable."""
        return self.merged(other) is not None

    def project(self, names: Sequence[str]) -> "Binding":
        """Restrict to the given variable names (unbound names are dropped)."""
        pick, layout = self.layout.projection(names if isinstance(names, tuple) else tuple(names))
        return self if pick is None else Binding.of(layout, pick(self.row))

    def as_dict(self) -> Dict[str, Term]:
        """A plain-dict copy of the mapping."""
        return dict(self.items())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Binding):
            return NotImplemented
        same_row = self.layout is other.layout and self.row == other.row
        return same_row or self.as_dict() == other.as_dict()

    def __hash__(self) -> int:
        return hash(frozenset(self.items()))

    def __repr__(self) -> str:
        inner = ", ".join(f"?{k}={v}" for k, v in sorted(self.items()))
        return f"Binding({inner})"


_new = object.__new__


class Batch:
    """Rows under one layout (a list of row tuples, each as in :class:`Binding`)."""

    __slots__ = ("layout", "rows")

    def __init__(self, layout: Layout, rows: List[tuple]) -> None:
        self.layout = layout
        self.rows = rows

    def __len__(self) -> int:
        return len(self.rows)


def grow(size: int) -> int:
    """The size of the batch after one of ``size`` rows: ×4, up to :data:`BATCH_ROWS`."""
    return size * 4 if size * 4 < BATCH_ROWS else BATCH_ROWS


def batches(bindings: Iterable[Binding], size: int = 1) -> Iterator[Batch]:
    """Cut ``bindings`` into batches at every layout change, ``size`` rows first.

    Each full batch is yielded before the next binding is pulled.
    """
    layout, cut = None, []
    for binding in bindings:
        if binding.layout is not layout:
            if cut:
                yield Batch(layout, cut)
                cut, size = [], grow(size)
            layout = binding.layout
        cut.append(binding.row)
        if len(cut) >= size:
            yield Batch(layout, cut)
            cut, size = [], grow(size)
    if cut:
        yield Batch(layout, cut)


def rows(stream: Iterable[Batch]) -> Iterator[Binding]:
    """The bindings of a batch stream, in order."""
    of = Binding.of
    for batch in stream:
        layout = batch.layout
        for row in batch.rows:
            yield of(layout, row)


class AskResult:
    """The boolean outcome of an ASK query.

    Truthiness follows the answer (``bool(result)``), so an :class:`AskResult`
    drops into conditions directly; the underlying value is ``.boolean``.
    """

    __slots__ = ("boolean",)

    def __init__(self, boolean: bool) -> None:
        self.boolean = bool(boolean)

    def __bool__(self) -> bool:
        return self.boolean

    def __eq__(self, other: object) -> bool:
        if isinstance(other, AskResult):
            return self.boolean == other.boolean
        if isinstance(other, bool):
            return self.boolean == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.boolean)

    def __repr__(self) -> str:
        return f"AskResult({self.boolean})"


class ResultSet:
    """An ordered collection of bindings with the projected variable names.

    Built from bindings, or from the :class:`Batch` list of a streamed
    query (``batches=``); each form is derived from the other on first use.
    """

    def __init__(
        self,
        variables: Sequence[str],
        bindings: Iterable[Binding] = (),
        batches: Optional[List[Batch]] = None,
    ) -> None:
        self.variables = list(variables)
        self._bindings: Optional[List[Binding]] = None if batches is not None else list(bindings)
        self._batches = batches

    @property
    def bindings(self) -> List[Binding]:
        """The solutions as bindings."""
        if self._bindings is None:
            self._bindings = list(rows(self._batches))
        return self._bindings

    @property
    def batches(self) -> List[Batch]:
        """The solutions as batches."""
        if self._batches is None:
            self._batches = list(batches(self._bindings, BATCH_ROWS))
        return self._batches

    def __len__(self) -> int:
        if self._bindings is not None:
            return len(self._bindings)
        return sum(map(len, self._batches))

    def __iter__(self) -> Iterator[Binding]:
        return iter(self.bindings)

    def __repr__(self) -> str:
        return f"ResultSet(variables={self.variables}, rows={len(self)})"

    def to_tuples(self) -> List[Tuple[Optional[Term], ...]]:
        """Rows as tuples following the projected variable order."""
        return [tuple(binding.get(name) for name in self.variables) for binding in self.bindings]

    def to_set(self) -> set:
        """Rows as a set of tuples (order-insensitive comparison helper)."""
        return set(self.to_tuples())

    def distinct(self) -> "ResultSet":
        """A new result set with duplicate rows removed (order preserved)."""
        seen = set()
        unique: List[Binding] = []
        for binding in self.bindings:
            row = tuple(binding.get(name) for name in self.variables)
            if row not in seen:
                seen.add(row)
                unique.append(binding)
        return ResultSet(self.variables, unique)
