"""Persistence of a SuccinctEdge store as an mmap-backed store image.

The paper's storage evaluation (Section 7.3.2) "persisted all the data
structures existing in SuccinctEdge to disk in order to make a fair
comparison" with the disk-based systems, and its deployment model has the
central server broadcast pre-encoded dictionaries to the edge devices.  This
module provides:

* :func:`save_store_image` / :func:`dump_store_image` — write a complete
  :class:`~repro.store.succinct_edge.SuccinctEdge` instance as an image;
* :func:`load_store` / :func:`load_store_from_bytes` — map (or read) an
  image back.

The image (see ``docs/persistence.md`` for the full layout) holds bitvector
words, rank blocks, select directories (including every wavelet-matrix
level), packed int-sequences, the literal records and the sorted rdf:type
pair runs verbatim as aligned sections behind a fixed header plus a table of
contents.
:func:`load_store` maps the file and hands read-only ``memoryview`` slices
straight to the SDS kernels — **no per-triple decode happens**, so
cold-start cost is independent of the triple count.  Only the small decoded
section (dictionaries, schema, statistics, structural manifest) is parsed.
"""

from __future__ import annotations

import io
import mmap as _mmaplib
import os
import struct
import zlib
from array import array
from typing import BinaryIO, Dict, List, Optional, Tuple

from repro.ontology.litemat import EncodedEntity, LiteMatEncoding
from repro.ontology.schema import OntologySchema
from repro.rdf.terms import BlankNode, Literal, Term, URI
from repro.sds.bitvector import BitVector
from repro.sds.int_sequence import IntSequence
from repro.sds.kernels import words_view
from repro.sds.wavelet_matrix import WaveletMatrix
from repro.store.rdftype_store import PairRun, RDFTypeStore

_MAGIC = b"SEDG"
# The version is a little-endian u16 at byte offset 4, right after the magic.
# Version 5 stores wavelet matrices and table-indexed literal datatypes;
# earlier versions (v4's pointer wavelet trees, v3's varint streams) are no
# longer read.
_VERSION = 5
_PAGE = 4096
#: Fixed 64-byte header: magic, version, flags, page size, section count,
#: TOC offset, meta offset, meta length, file length, checksum (CRC-32 of
#: TOC + meta, zero-extended to u64), reserved.
_HEADER = struct.Struct("<4sHHIIQQQQQQ")
_TOC_ENTRY = struct.Struct("<QQ")

_TERM_URI = 0
_TERM_BNODE = 1
_TERM_LITERAL = 2


class PersistenceError(RuntimeError):
    """Raised when a file cannot be parsed as a persisted SuccinctEdge store."""


# --------------------------------------------------------------------------- #
# low-level encoding helpers
# --------------------------------------------------------------------------- #


def _write_varint(buffer: BinaryIO, value: int) -> None:
    if value < 0:
        raise ValueError("varints encode non-negative integers only")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            buffer.write(bytes([byte | 0x80]))
        else:
            buffer.write(bytes([byte]))
            return


def _read_varint(buffer: BinaryIO) -> int:
    shift = 0
    result = 0
    while True:
        raw = buffer.read(1)
        if not raw:
            raise PersistenceError("unexpected end of file while reading a varint")
        byte = raw[0]
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result
        shift += 7


def _write_text(buffer: BinaryIO, text: str) -> None:
    payload = text.encode("utf-8")
    _write_varint(buffer, len(payload))
    buffer.write(payload)


def _read_text(buffer: BinaryIO) -> str:
    length = _read_varint(buffer)
    payload = buffer.read(length)
    if len(payload) != length:
        raise PersistenceError("unexpected end of file while reading a string")
    return payload.decode("utf-8")


def _write_term(buffer: BinaryIO, term: Term) -> None:
    if isinstance(term, URI):
        buffer.write(bytes([_TERM_URI]))
        _write_text(buffer, term.value)
    elif isinstance(term, BlankNode):
        buffer.write(bytes([_TERM_BNODE]))
        _write_text(buffer, term.label)
    elif isinstance(term, Literal):
        buffer.write(bytes([_TERM_LITERAL]))
        _write_text(buffer, term.lexical)
        _write_text(buffer, term.datatype or "")
        _write_text(buffer, term.language or "")
    else:  # pragma: no cover - defensive
        raise PersistenceError(f"cannot serialise term {term!r}")


def _read_term(buffer: BinaryIO) -> Term:
    kind_raw = buffer.read(1)
    if not kind_raw:
        raise PersistenceError("unexpected end of file while reading a term")
    kind = kind_raw[0]
    if kind == _TERM_URI:
        return URI(_read_text(buffer))
    if kind == _TERM_BNODE:
        return BlankNode(_read_text(buffer))
    if kind == _TERM_LITERAL:
        lexical = _read_text(buffer)
        datatype = _read_text(buffer) or None
        language = _read_text(buffer) or None
        if language:
            return Literal(lexical, language=language)
        return Literal(lexical, datatype=datatype)
    raise PersistenceError(f"unknown term tag {kind}")


# --------------------------------------------------------------------------- #
# sections
# --------------------------------------------------------------------------- #


def _write_litemat(buffer: BinaryIO, encoding: LiteMatEncoding) -> None:
    _write_varint(buffer, encoding.total_length)
    _write_varint(buffer, 1 if encoding.root is not None else 0)
    if encoding.root is not None:
        _write_term(buffer, encoding.root)
    terms = encoding.terms()
    _write_varint(buffer, len(terms))
    for term in terms:
        entry = encoding.entry(term)
        _write_term(buffer, term)
        _write_varint(buffer, entry.identifier)
        _write_varint(buffer, entry.local_length)


def _read_litemat(buffer: BinaryIO) -> LiteMatEncoding:
    total_length = _read_varint(buffer)
    has_root = _read_varint(buffer)
    root = _read_term(buffer) if has_root else None
    count = _read_varint(buffer)
    entries: Dict[URI, EncodedEntity] = {}
    for _ in range(count):
        term = _read_term(buffer)
        identifier = _read_varint(buffer)
        local_length = _read_varint(buffer)
        entries[term] = EncodedEntity(  # type: ignore[index]
            identifier=identifier, local_length=local_length, total_length=total_length
        )
    return LiteMatEncoding(entries, total_length, root=root)  # type: ignore[arg-type]


def _write_schema(buffer: BinaryIO, schema: OntologySchema) -> None:
    concept_edges = [(child, schema.concept_parent(child)) for child in schema.concepts]
    property_edges = [(child, schema.property_parent(child)) for child in schema.properties]
    domains = [(prop, schema.domain_of(prop)) for prop in schema.properties if schema.domain_of(prop)]
    ranges = [(prop, schema.range_of(prop)) for prop in schema.properties if schema.range_of(prop)]

    _write_varint(buffer, len(concept_edges))
    for child, parent in concept_edges:
        _write_term(buffer, child)
        _write_varint(buffer, 1 if parent is not None else 0)
        if parent is not None:
            _write_term(buffer, parent)
    _write_varint(buffer, len(property_edges))
    for child, parent in property_edges:
        _write_term(buffer, child)
        _write_varint(buffer, 1 if parent is not None else 0)
        if parent is not None:
            _write_term(buffer, parent)
    _write_varint(buffer, len(domains))
    for prop, concept in domains:
        _write_term(buffer, prop)
        _write_term(buffer, concept)  # type: ignore[arg-type]
    _write_varint(buffer, len(ranges))
    for prop, concept in ranges:
        _write_term(buffer, prop)
        _write_term(buffer, concept)  # type: ignore[arg-type]


def _read_schema(buffer: BinaryIO) -> OntologySchema:
    schema = OntologySchema()
    concept_count = _read_varint(buffer)
    for _ in range(concept_count):
        child = _read_term(buffer)
        has_parent = _read_varint(buffer)
        if has_parent:
            schema.add_subclass(child, _read_term(buffer))  # type: ignore[arg-type]
        else:
            schema.add_concept(child)  # type: ignore[arg-type]
    property_count = _read_varint(buffer)
    for _ in range(property_count):
        child = _read_term(buffer)
        has_parent = _read_varint(buffer)
        if has_parent:
            schema.add_subproperty(child, _read_term(buffer))  # type: ignore[arg-type]
        else:
            schema.add_property(child)  # type: ignore[arg-type]
    domain_count = _read_varint(buffer)
    for _ in range(domain_count):
        schema.add_domain(_read_term(buffer), _read_term(buffer))  # type: ignore[arg-type]
    range_count = _read_varint(buffer)
    for _ in range(range_count):
        schema.add_range(_read_term(buffer), _read_term(buffer))  # type: ignore[arg-type]
    return schema


# --------------------------------------------------------------------------- #
# decoded sections (dictionaries + schema)
# --------------------------------------------------------------------------- #


def _write_dictionary_sections(buffer: BinaryIO, store) -> None:
    """Schema, LiteMat encodings, overflow tables, instances and counters."""
    _write_schema(buffer, store.schema)
    _write_litemat(buffer, store.concepts.encoding)
    _write_litemat(buffer, store.properties.encoding)

    # Overflow tables: terms inserted live after encoding time carry
    # identifiers above the LiteMat space; the persisted triples reference
    # them, so they are saved next to the encodings.
    for dictionary in (store.concepts, store.properties):
        entries = dictionary.overflow_entries()
        _write_varint(buffer, len(entries))
        for term, identifier in sorted(entries.items(), key=lambda item: item[1]):
            _write_term(buffer, term)
            _write_varint(buffer, identifier)

    # Instance dictionary: identifiers are dense and start at 1, but the
    # occurrence counters matter for the optimizer, so both are persisted.
    instance_ids = sorted(store.instances.identifiers())
    _write_varint(buffer, len(instance_ids))
    for identifier in instance_ids:
        _write_term(buffer, store.instances.extract(identifier))
        _write_varint(buffer, identifier)
        _write_varint(buffer, store.instances.occurrences(identifier))

    # Occurrence counters of the concept / property dictionaries.
    for dictionary in (store.concepts, store.properties):
        identifiers = [i for i in dictionary.identifiers() if dictionary.occurrences(i)]
        _write_varint(buffer, len(identifiers))
        for identifier in identifiers:
            _write_varint(buffer, identifier)
            _write_varint(buffer, dictionary.occurrences(identifier))


def _read_dictionary_sections(buffer: BinaryIO):
    """Inverse of :func:`_write_dictionary_sections`."""
    from repro.dictionary.term_dictionary import (
        ConceptDictionary,
        InstanceDictionary,
        PropertyDictionary,
    )

    schema = _read_schema(buffer)
    concepts = ConceptDictionary(_read_litemat(buffer))
    properties = PropertyDictionary(_read_litemat(buffer))

    for dictionary in (concepts, properties):
        overflow_count = _read_varint(buffer)
        for _ in range(overflow_count):
            term = _read_term(buffer)
            identifier = _read_varint(buffer)
            dictionary.restore_overflow(term, identifier)  # type: ignore[arg-type]

    instances = InstanceDictionary()
    instance_count = _read_varint(buffer)
    pending_occurrences: List[Tuple[int, int]] = []
    for _ in range(instance_count):
        term = _read_term(buffer)
        identifier = _read_varint(buffer)
        occurrences = _read_varint(buffer)
        assigned = instances.add(term)
        if assigned != identifier:
            raise PersistenceError(
                f"instance identifier mismatch for {term}: stored {identifier}, assigned {assigned}"
            )
        pending_occurrences.append((identifier, occurrences))
    for identifier, occurrences in pending_occurrences:
        if occurrences:
            instances.record_occurrence(identifier, occurrences)

    for dictionary in (concepts, properties):
        count = _read_varint(buffer)
        for _ in range(count):
            identifier = _read_varint(buffer)
            occurrences = _read_varint(buffer)
            dictionary.record_occurrence(identifier, occurrences)

    return schema, concepts, properties, instances


# --------------------------------------------------------------------------- #
# public API: loading
# --------------------------------------------------------------------------- #


def _check_preamble(payload) -> None:
    """Magic + version check shared by every loader entry point."""
    if len(payload) < 6:
        raise PersistenceError(
            "not a persisted SuccinctEdge store (shorter than the 6-byte preamble)"
        )
    if bytes(payload[:4]) != _MAGIC:
        raise PersistenceError("not a persisted SuccinctEdge store (bad magic)")
    (version,) = struct.unpack("<H", bytes(payload[4:6]))
    if version != _VERSION:
        raise PersistenceError(
            f"unsupported format version {version}: only version {_VERSION} "
            "store images load; re-create the store and save it with save_store_image()"
        )


def load_store_from_bytes(payload: bytes):
    """Assemble a SuccinctEdge store over an in-memory store image.

    Takes the zero-copy path over a ``memoryview`` of ``payload`` (no mmap —
    use :func:`load_store` for the mapped variant).
    """
    _check_preamble(payload)
    view = memoryview(payload).toreadonly() if isinstance(payload, (bytes, bytearray)) else memoryview(payload)
    return _load_image(view, image=StoreImage(view, path=None))


def load_store(path: str, mmap: bool = True):
    """Load a store image.

    The image is **memory-mapped** by default: the SDS structures alias
    read-only ``memoryview`` slices of the mapping, so no per-triple decode
    happens and pages fault in lazily as queries touch them.  Pass
    ``mmap=False`` to read the image fully into memory instead (same
    zero-decode path over a private in-memory buffer; useful when the file
    may be replaced underneath a long-lived process).

    The loaded store carries the mapping handle as ``store.image`` (a
    :class:`StoreImage`) — call ``image.validate()`` to detect a file
    modified behind an existing mapping.
    """
    with open(path, "rb") as handle:
        preamble = handle.read(6)
    try:
        _check_preamble(preamble)
    except PersistenceError as error:
        raise PersistenceError(f"cannot load store image {path!r}: {error}") from None
    if mmap:
        handle = open(path, "rb")
        try:
            mapping = _mmaplib.mmap(handle.fileno(), 0, access=_mmaplib.ACCESS_READ)
        except (ValueError, OSError) as error:
            handle.close()
            raise PersistenceError(f"cannot map store image {path!r}: {error}") from error
        view = memoryview(mapping)
        image = StoreImage(view, path=path, mapping=mapping, handle=handle)
    else:
        with open(path, "rb") as handle:
            payload = handle.read()
        view = memoryview(payload).toreadonly()
        image = StoreImage(view, path=path)
    try:
        return _load_image(view, image=image)
    except Exception:
        image.close(force=True)
        raise


# --------------------------------------------------------------------------- #
# the mmap-backed zero-copy store image
# --------------------------------------------------------------------------- #


def _align_up(value: int, alignment: int) -> int:
    return (value + alignment - 1) // alignment * alignment


def _word_bytes(words) -> bytes:
    """Little-endian byte payload of a 64-bit word buffer (array or view)."""
    import sys

    if sys.byteorder == "little":
        return words.tobytes()
    copied = array("Q", words)
    copied.byteswap()
    return copied.tobytes()


def _bitvector_parts(bits: BitVector) -> tuple:
    """The five word buffers of a bitvector, in image order."""
    return (
        bits._words,
        bits._word_ranks,
        bits._superblock_ranks,
        bits._one_samples,
        bits._zero_samples,
    )


class _ImageWriter:
    """Accumulates aligned sections plus the varint meta stream of an image."""

    def __init__(self) -> None:
        self.sections: List[bytes] = []
        self.meta = io.BytesIO()

    def add_section(self, payload: bytes) -> int:
        """Register a section payload; returns its TOC index."""
        self.sections.append(payload)
        return len(self.sections) - 1

    # -- SDS structures ------------------------------------------------- #

    def write_bitvector(self, bits: BitVector) -> None:
        """One section holding words + rank blocks + select samples, plus meta."""
        parts = _bitvector_parts(bits)
        section = self.add_section(b"".join(_word_bytes(part) for part in parts))
        meta = self.meta
        _write_varint(meta, section)
        _write_varint(meta, len(bits))
        _write_varint(meta, bits.count(1))
        for part in parts:
            _write_varint(meta, len(part))

    def write_wavelet_matrix(self, matrix: WaveletMatrix) -> None:
        """Length, sigma and level count in meta, then one bitvector per level."""
        meta = self.meta
        levels = matrix.levels
        _write_varint(meta, len(matrix))
        _write_varint(meta, matrix.alphabet_size)
        _write_varint(meta, len(levels))
        for bits in levels:
            self.write_bitvector(bits)

    def write_int_sequence(self, sequence: IntSequence) -> None:
        """Packed words as one section; length and width in meta."""
        section = self.add_section(_word_bytes(sequence._words))
        meta = self.meta
        _write_varint(meta, section)
        _write_varint(meta, len(sequence))
        _write_varint(meta, sequence.width)

    def write_pair_run(self, run: PairRun) -> None:
        """The run's interleaved pair words as one section; pair count in meta."""
        section = self.add_section(_word_bytes(run.words))
        meta = self.meta
        _write_varint(meta, section)
        _write_varint(meta, len(run))

    def write_layout(self, layout, write_objects) -> None:
        """The four shared PSO structures around the layout's object layer."""
        _write_varint(self.meta, len(layout))
        self.write_wavelet_matrix(layout.wt_p)
        self.write_wavelet_matrix(layout.wt_s)
        write_objects()
        self.write_bitvector(layout.bm_ps)
        self.write_bitvector(layout.bm_so)

    def write_literals(self, literals) -> None:
        """Offset directory + record blob sections, datatype table in meta."""
        from repro.dictionary.literal_store import BufferLiteralStore, LiteralKind

        blob = bytearray()
        offsets = array("Q", [0])
        kinds: Dict[LiteralKind, int] = {}
        for position in range(len(literals)):
            literal = literals.get(position)
            kind = kinds.setdefault((literal.datatype, literal.language), len(kinds))
            blob += BufferLiteralStore.encode_record(literal, kind)
            offsets.append(len(blob))
        offsets_section = self.add_section(_word_bytes(offsets))
        blob_section = self.add_section(bytes(blob))
        meta = self.meta
        _write_varint(meta, len(literals))
        _write_varint(meta, offsets_section)
        _write_varint(meta, blob_section)
        _write_varint(meta, len(kinds))
        for datatype, language in kinds:
            _write_text(meta, datatype or "")
            _write_text(meta, language or "")

    # -- final assembly -------------------------------------------------- #

    def render(self) -> bytes:
        """Lay out header + TOC + meta + page-aligned section heap."""
        meta_bytes = self.meta.getvalue()
        toc_offset = _HEADER.size
        meta_offset = toc_offset + _TOC_ENTRY.size * len(self.sections)
        heap_start = _align_up(meta_offset + len(meta_bytes), _PAGE)

        offsets: List[int] = []
        cursor = heap_start
        for payload in self.sections:
            offsets.append(cursor)
            cursor = _align_up(cursor + len(payload), 8)
        file_length = cursor

        toc = b"".join(
            _TOC_ENTRY.pack(offset, len(payload))
            for offset, payload in zip(offsets, self.sections)
        )
        checksum = zlib.crc32(toc + meta_bytes) & 0xFFFFFFFF
        header = _HEADER.pack(
            _MAGIC,
            _VERSION,
            0,
            _PAGE,
            len(self.sections),
            toc_offset,
            meta_offset,
            len(meta_bytes),
            file_length,
            checksum,
            0,
        )
        out = bytearray(file_length)
        out[: len(header)] = header
        out[toc_offset:meta_offset] = toc
        out[meta_offset : meta_offset + len(meta_bytes)] = meta_bytes
        for offset, payload in zip(offsets, self.sections):
            out[offset : offset + len(payload)] = payload
        return bytes(out)


def dump_store_image(store) -> bytes:
    """Serialise a SuccinctEdge store as a zero-copy store image."""
    writer = _ImageWriter()
    meta = writer.meta

    # Decoded section: dictionaries, schema, bookkeeping, planner statistics.
    _write_dictionary_sections(meta, store)
    _write_varint(meta, store.skipped_triples)
    _write_statistics(meta, store.statistics)

    object_store = store.object_store
    writer.write_layout(object_store, lambda: writer.write_wavelet_matrix(object_store.wt_o))
    datatype_store = store.datatype_store
    writer.write_layout(
        datatype_store, lambda: writer.write_int_sequence(datatype_store.object_pointers)
    )
    writer.write_literals(datatype_store.literals)

    # rdf:type layout: both sorted pair orders, served by binary search.
    type_store = store.type_store
    _write_varint(meta, len(type_store))
    writer.write_pair_run(type_store._so)
    writer.write_pair_run(type_store._os)

    return writer.render()


def save_store_image(store, path: str, atomic: bool = False) -> int:
    """Write ``store`` as an image at ``path``; return the bytes written.

    With ``atomic=True`` the image is staged as ``<path>.tmp`` and moved into
    place with :func:`os.replace`, so readers only ever observe either the
    old or the complete new image — the compact-and-swap discipline of
    :meth:`repro.store.updatable.UpdatableSuccinctEdge.compact`.
    """
    payload = dump_store_image(store)
    if atomic:
        staging = f"{path}.tmp"
        with open(staging, "wb") as handle:
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(staging, path)
    else:
        with open(path, "wb") as handle:
            handle.write(payload)
    return len(payload)


def _write_statistics(meta: BinaryIO, statistics) -> None:
    """Join-aware planner statistics (PR 5 profiles + characteristic sets).

    Persisting them keeps a mapped store's query *plans* — and therefore its
    result row order — byte-identical to the builder path's.
    """
    _MARKER_TAGS = {"p": 0, "t": 1}
    profile_ids = statistics.profiled_property_ids()
    _write_varint(meta, len(profile_ids))
    for property_id in profile_ids:
        profile = statistics.property_profile(property_id)
        _write_varint(meta, property_id)
        _write_varint(meta, profile.triples)
        _write_varint(meta, profile.distinct_subjects)
        _write_varint(meta, profile.distinct_objects)
        _write_varint(meta, profile.build_triples)
    characteristic_sets = statistics.characteristic_sets
    _write_varint(meta, len(characteristic_sets))
    for signature in sorted(characteristic_sets, key=sorted):
        entry = characteristic_sets[signature]
        markers = sorted(signature)
        _write_varint(meta, len(markers))
        for kind, identifier in markers:
            _write_varint(meta, _MARKER_TAGS[kind])
            _write_varint(meta, identifier)
        _write_varint(meta, entry.count)
        triples = sorted(entry.triples.items())
        _write_varint(meta, len(triples))
        for (kind, identifier), count in triples:
            _write_varint(meta, _MARKER_TAGS[kind])
            _write_varint(meta, identifier)
            _write_varint(meta, count)
    _write_varint(meta, statistics.type_triple_count)


def _read_statistics(meta: BinaryIO, statistics) -> None:
    """Inverse of :func:`_write_statistics`; installs onto ``statistics``."""
    from repro.dictionary.statistics import CharacteristicSet, PropertyProfile

    _MARKER_KINDS = ("p", "t")

    def read_marker() -> Tuple[str, int]:
        tag = _read_varint(meta)
        if tag >= len(_MARKER_KINDS):
            raise PersistenceError(f"unknown characteristic-set marker tag {tag}")
        return _MARKER_KINDS[tag], _read_varint(meta)

    profiles: Dict[int, "PropertyProfile"] = {}
    for _ in range(_read_varint(meta)):
        property_id = _read_varint(meta)
        profiles[property_id] = PropertyProfile(
            triples=_read_varint(meta),
            distinct_subjects=_read_varint(meta),
            distinct_objects=_read_varint(meta),
            build_triples=_read_varint(meta),
        )
    characteristic_sets: Dict = {}
    for _ in range(_read_varint(meta)):
        markers = [read_marker() for _ in range(_read_varint(meta))]
        entry = CharacteristicSet(count=_read_varint(meta))
        for _ in range(_read_varint(meta)):
            marker = read_marker()
            entry.triples[marker] = _read_varint(meta)
        characteristic_sets[frozenset(markers)] = entry
    type_triple_count = _read_varint(meta)
    if profiles or characteristic_sets or type_triple_count:
        statistics.register_profiles(
            profiles, characteristic_sets, type_triple_count=type_triple_count
        )


class StoreImage:
    """Handle on the buffer backing a loaded store image.

    Holds the ``mmap`` (or in-memory buffer) that every zero-copy SDS
    structure of the store aliases, plus enough of the header to re-verify
    it later: :meth:`validate` detects a file that was overwritten behind an
    existing mapping — the one failure mode ``mmap`` cannot prevent — and
    raises :class:`PersistenceError` telling the operator to reload.
    """

    def __init__(self, view: memoryview, path: Optional[str], mapping=None, handle=None) -> None:
        self.view = view
        self.path = path
        self._mapping = mapping
        self._handle = handle
        self._expected_checksum: Optional[int] = None
        self._toc_span: Optional[Tuple[int, int]] = None

    @property
    def mapped(self) -> bool:
        """Whether the image is an OS mapping (vs. an in-memory buffer)."""
        return self._mapping is not None

    def size_in_bytes(self) -> int:
        """Total image size (every section plus header, TOC and meta)."""
        return self.view.nbytes

    def _remember(self, checksum: int, toc_span: Tuple[int, int]) -> None:
        self._expected_checksum = checksum
        self._toc_span = toc_span

    def validate(self) -> None:
        """Re-verify the mapped header against what was loaded.

        Raises :class:`PersistenceError` when the underlying file no longer
        carries the image this store was loaded from (magic, version or
        checksum mismatch) — e.g. a writer rewrote it in place instead of
        using the atomic-replace discipline.  Reload the store to recover.
        """
        where = self.path or "<memory>"
        view = self.view
        if bytes(view[:4]) != _MAGIC:
            raise PersistenceError(
                f"store image {where} was modified underneath the mapping (bad magic); "
                "reload the store — writers must replace images atomically, not rewrite them"
            )
        (version,) = struct.unpack("<H", bytes(view[4:6]))
        if version != _VERSION:
            raise PersistenceError(
                f"store image {where} was modified underneath the mapping "
                f"(version changed to {version}); reload the store"
            )
        if self._expected_checksum is not None and self._toc_span is not None:
            start, end = self._toc_span
            actual = zlib.crc32(bytes(view[start:end])) & 0xFFFFFFFF
            if actual != self._expected_checksum:
                raise PersistenceError(
                    f"store image {where} was modified underneath the mapping "
                    "(TOC/meta checksum mismatch); reload the store — writers must "
                    "replace images atomically, not rewrite them"
                )

    def close(self, force: bool = False) -> None:
        """Release the mapping and file handle.

        Fails with :class:`PersistenceError` while SDS structures still alias
        the buffer, unless ``force`` drops the handle references without
        closing the mapping (the garbage collector reclaims it once the last
        view dies).
        """
        if self._mapping is not None:
            try:
                self.view.release()
                self._mapping.close()
            except BufferError:
                if not force:
                    raise PersistenceError(
                        "store image is still referenced by loaded structures; "
                        "drop the store before closing its image"
                    ) from None
            self._mapping = None
        if self._handle is not None:
            self._handle.close()
            self._handle = None


def _load_image(view: memoryview, image: StoreImage):
    """Assemble a SuccinctEdge store over an image buffer, zero-copy."""
    from repro.dictionary.literal_store import BufferLiteralStore
    from repro.dictionary.statistics import DictionaryStatistics
    from repro.store.datatype_store import DatatypeTripleStore
    from repro.store.succinct_edge import SuccinctEdge
    from repro.store.triple_store import ObjectTripleStore

    where = image.path or "<memory>"
    if view.nbytes < _HEADER.size:
        raise PersistenceError(
            f"store image {where} is truncated: {view.nbytes} bytes is smaller "
            f"than the {_HEADER.size}-byte header"
        )
    (
        magic,
        version,
        _flags,
        page_size,
        section_count,
        toc_offset,
        meta_offset,
        meta_length,
        file_length,
        checksum,
        _reserved,
    ) = _HEADER.unpack(bytes(view[: _HEADER.size]))
    if magic != _MAGIC or version != _VERSION:
        raise PersistenceError(f"store image {where} has a corrupt header")
    if page_size == 0 or page_size % 8:
        raise PersistenceError(f"store image {where} declares invalid page size {page_size}")
    if file_length != view.nbytes:
        raise PersistenceError(
            f"store image {where} is truncated or over-long: header declares "
            f"{file_length} bytes, file has {view.nbytes}"
        )
    toc_end = toc_offset + _TOC_ENTRY.size * section_count
    meta_end = meta_offset + meta_length
    if toc_offset != _HEADER.size or meta_offset != toc_end or meta_end > file_length:
        raise PersistenceError(f"store image {where} has an inconsistent TOC/meta layout")
    if zlib.crc32(bytes(view[toc_offset:meta_end])) & 0xFFFFFFFF != checksum:
        raise PersistenceError(
            f"store image {where} fails its TOC/meta checksum — the file is corrupt "
            "or was modified after writing; re-create it with save_store_image()"
        )
    image._remember(checksum, (toc_offset, meta_end))

    sections: List[Tuple[int, int]] = []
    for index in range(section_count):
        entry_at = toc_offset + index * _TOC_ENTRY.size
        offset, length = _TOC_ENTRY.unpack(
            bytes(view[entry_at : entry_at + _TOC_ENTRY.size])
        )
        if offset % 8:
            raise PersistenceError(
                f"store image {where}: section {index} is misaligned "
                f"(offset {offset} is not 8-byte aligned); the image is corrupt"
            )
        if offset < meta_end or offset + length > file_length:
            raise PersistenceError(
                f"store image {where}: section {index} "
                f"[{offset}, {offset + length}) falls outside the file "
                f"(length {file_length}); the image is truncated or corrupt"
            )
        sections.append((offset, length))

    def section_bytes(index: int) -> memoryview:
        if index >= section_count:
            raise PersistenceError(
                f"store image {where}: meta references section {index}, "
                f"the TOC lists {section_count}"
            )
        offset, length = sections[index]
        return view[offset : offset + length]

    def section_words(index: int):
        return words_view(section_bytes(index))

    meta = io.BytesIO(bytes(view[meta_offset:meta_end]))

    schema, concepts, properties, instances = _read_dictionary_sections(meta)
    skipped = _read_varint(meta)
    statistics = DictionaryStatistics(concepts, properties, instances)
    _read_statistics(meta, statistics)

    def read_bitvector() -> BitVector:
        section = _read_varint(meta)
        length = _read_varint(meta)
        ones = _read_varint(meta)
        counts = [_read_varint(meta) for _ in range(5)]
        words_all = section_words(section)
        if len(words_all) != sum(counts):
            raise PersistenceError(
                f"store image {where}: bitvector section {section} holds "
                f"{len(words_all)} words, directory expects {sum(counts)}"
            )
        parts = []
        cursor = 0
        for count in counts:
            parts.append(words_all[cursor : cursor + count])
            cursor += count
        return BitVector.from_buffers(parts[0], length, ones, parts[1], parts[2], parts[3], parts[4])

    def read_wavelet_matrix() -> WaveletMatrix:
        length = _read_varint(meta)
        sigma = _read_varint(meta)
        level_count = _read_varint(meta)
        expected = (max(1, sigma) - 1).bit_length()
        if level_count != expected:
            raise PersistenceError(
                f"store image {where}: wavelet matrix over sigma={sigma} declares "
                f"{level_count} levels, expected {expected}"
            )
        levels = [read_bitvector() for _ in range(level_count)]
        for depth, bits in enumerate(levels):
            if len(bits) != length:
                raise PersistenceError(
                    f"store image {where}: wavelet-matrix level {depth} holds "
                    f"{len(bits)} bits, the matrix has {length} symbols"
                )
        return WaveletMatrix.from_levels(length, sigma, levels)

    def read_int_sequence() -> IntSequence:
        section = _read_varint(meta)
        length = _read_varint(meta)
        width = _read_varint(meta)
        if not 1 <= width <= 64:
            raise PersistenceError(
                f"store image {where}: int sequence {section} declares width {width}, "
                "expected 1 to 64 bits"
            )
        words = section_words(section)
        expected = (length * width + 63) // 64
        if len(words) != expected:
            raise PersistenceError(
                f"store image {where}: int-sequence section {section} holds "
                f"{len(words)} words, {length} values of {width} bits need {expected}"
            )
        return IntSequence.from_buffers(words, length, width)

    def read_literals() -> BufferLiteralStore:
        count = _read_varint(meta)
        offsets_section = _read_varint(meta)
        offsets = section_words(offsets_section)
        blob = section_bytes(_read_varint(meta))
        kinds = [
            (_read_text(meta) or None, _read_text(meta) or None)
            for _ in range(_read_varint(meta))
        ]
        if len(offsets) != count + 1:
            raise PersistenceError(
                f"store image {where}: literal offset section {offsets_section} holds "
                f"{len(offsets)} words, {count} literals need {count + 1}"
            )
        if offsets[count] > blob.nbytes:
            raise PersistenceError(
                f"store image {where}: literal records end at byte {offsets[count]}, "
                f"past the {blob.nbytes}-byte record blob"
            )
        return BufferLiteralStore(offsets, blob, count, kinds)

    def read_pair_run() -> PairRun:
        section = _read_varint(meta)
        count = _read_varint(meta)
        words = section_words(section)
        if len(words) != 2 * count:
            raise PersistenceError(
                f"store image {where}: pair section {section} holds {len(words)} "
                f"words, expected {2 * count}"
            )
        return PairRun(words, count)

    def read_layout(read_objects) -> dict:
        """The four shared PSO structures around the layout's object layer."""
        triple_count = _read_varint(meta)
        wt_p = read_wavelet_matrix()
        wt_s = read_wavelet_matrix()
        objects = read_objects()
        return dict(
            triple_count=triple_count,
            wt_p=wt_p,
            wt_s=wt_s,
            objects=objects,
            bm_ps=read_bitvector(),
            bm_so=read_bitvector(),
        )

    object_store = ObjectTripleStore._from_components(**read_layout(read_wavelet_matrix))
    datatype_layout = read_layout(read_int_sequence)
    datatype_store = DatatypeTripleStore._from_components(read_literals(), **datatype_layout)

    type_count = _read_varint(meta)
    type_store = RDFTypeStore._from_components(read_pair_run(), read_pair_run())
    if len(type_store) != type_count:
        raise PersistenceError(
            f"store image {where}: rdf:type section holds {len(type_store)} pairs, "
            f"meta declares {type_count}"
        )

    store = SuccinctEdge(
        schema=schema,
        concepts=concepts,
        properties=properties,
        instances=instances,
        object_store=object_store,
        datatype_store=datatype_store,
        type_store=type_store,
        statistics=statistics,
        skipped_triples=skipped,
    )
    store.image = image
    return store
