"""Flat literal store for datatype-property objects.

Sensor measurements produce a potentially unbounded stream of distinct
numerical literals; creating an instance-dictionary entry for each of them
would make dictionary management "complex and costly" (paper Section 4).
SuccinctEdge therefore stores datatype-property objects as-is, possibly with
redundancy, in a flat append-only structure; the datatype triple store keeps
positional pointers into it.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple

from repro.rdf.terms import Literal

#: A literal's ``(datatype, language)`` pair, the unit of the kind table.
LiteralKind = Tuple[Optional[str], Optional[str]]


def _varint(value: int) -> bytes:
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        out.append(byte | 0x80 if value else byte)
        if not value:
            return bytes(out)


def _read_varint(buffer, cursor: int) -> Tuple[int, int]:
    """``(value, cursor past it)`` of the varint at ``buffer[cursor]``."""
    value = 0
    shift = 0
    while True:
        byte = buffer[cursor]
        cursor += 1
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value, cursor
        shift += 7


class LiteralStore:
    """Append-only flat storage of literal values.

    ``append`` returns the position of the stored literal; ``get`` retrieves
    it.  Unlike a dictionary the same literal may be stored several times —
    deduplication is deliberately not attempted.
    """

    def __init__(self) -> None:
        self._values: List[Literal] = []

    def append(self, literal: Literal) -> int:
        """Store ``literal`` and return its position."""
        self._values.append(literal)
        return len(self._values) - 1

    def get(self, position: int) -> Literal:
        """Literal stored at ``position``."""
        if not 0 <= position < len(self._values):
            raise IndexError(f"literal position {position} out of range [0, {len(self._values)})")
        return self._values[position]

    def __len__(self) -> int:
        return len(self._values)

    def __iter__(self) -> Iterator[Literal]:
        return iter(self._values)

    def __repr__(self) -> str:
        return f"LiteralStore({len(self._values)} literals)"

    def size_in_bytes(self) -> int:
        """Approximate serialised size of the stored lexical forms."""
        total = 0
        for literal in self._values:
            total += len(literal.lexical.encode("utf-8"))
            if literal.datatype:
                total += 4  # datatype reference (interned)
        return total


class BufferLiteralStore:
    """Read-only literal store decoding lazily out of a mapped record blob.

    The store-image counterpart of :class:`LiteralStore`: literal records
    live in one contiguous blob (typically a ``memoryview`` aliasing a
    mapped store image) with a flat 64-bit offset directory, and a literal
    is only decoded — once, then cached — when a query actually touches its
    position.  Loading a store therefore costs nothing per literal; serving
    pays exactly for what it reads.

    A record is the varint-length-prefixed UTF-8 lexical form followed by a
    varint index into ``kinds``, the image's table of distinct
    ``(datatype, language)`` pairs: a datatype IRI is stored once per image,
    not once per literal.

    The store is append-free by design: live writes ride the delta overlay,
    and compaction rebuilds a fresh mutable :class:`LiteralStore`.
    """

    def __init__(self, offsets, blob, count: int, kinds: Sequence[LiteralKind]) -> None:
        # ``offsets`` holds ``count + 1`` word entries: record ``i`` spans
        # ``blob[offsets[i]:offsets[i + 1]]``.
        self._offsets = offsets
        self._blob = blob
        self._count = count
        self._kinds = list(kinds)
        self._cache: dict = {}

    @staticmethod
    def encode_record(literal: Literal, kind: int) -> bytes:
        """One literal as a record: its lexical form plus its datatype-table index."""
        payload = literal.lexical.encode("utf-8")
        return _varint(len(payload)) + payload + _varint(kind)

    def _decode(self, start: int, end: int) -> Literal:
        blob = self._blob
        length, cursor = _read_varint(blob, start)
        lexical = bytes(blob[cursor : cursor + length]).decode("utf-8")
        kind, cursor = _read_varint(blob, cursor + length)
        if cursor > end:
            raise IndexError(f"literal record overruns its slot [{start}, {end})")
        if kind >= len(self._kinds):
            from repro.store.persistence import PersistenceError

            raise PersistenceError(
                f"literal record at byte {start} names datatype index {kind}, "
                f"past the {len(self._kinds)}-entry datatype table"
            )
        datatype, language = self._kinds[kind]
        if language:
            return Literal(lexical, language=language)
        return Literal(lexical, datatype=datatype)

    def get(self, position: int) -> Literal:
        """Literal stored at ``position`` (decoded on first access)."""
        cached = self._cache.get(position)
        if cached is not None:
            return cached
        if not 0 <= position < self._count:
            raise IndexError(f"literal position {position} out of range [0, {self._count})")
        literal = self._decode(self._offsets[position], self._offsets[position + 1])
        self._cache[position] = literal
        return literal

    def append(self, literal: Literal) -> int:
        """Buffer-backed stores are read-only; writes ride the delta overlay."""
        raise TypeError(
            "BufferLiteralStore is immutable (it may alias a mapped store image); "
            "route writes through UpdatableSuccinctEdge instead"
        )

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[Literal]:
        for position in range(self._count):
            yield self.get(position)

    def __repr__(self) -> str:
        return f"BufferLiteralStore({self._count} literals, lazy)"

    def size_in_bytes(self) -> int:
        """Exact blob size of the stored records."""
        return len(self._blob)
