"""Tests for SuccinctEdge store persistence (v6 store images).

Covers the in-memory bytes path (``dump_store_image`` /
``load_store_from_bytes``), the file path (mapped and unmapped), a golden
image that pins the byte format, a byte budget, the save path of live
stores, and the corruption error paths of each.  (The ``TestV4*`` classes
keep the names they had when the mapped image format was introduced.)
"""

from __future__ import annotations

import hashlib
import io
import struct
import sys
import zlib

import pytest

from repro.rdf.terms import XSD_STRING, Literal, Triple
from repro.store.persistence import (
    PersistenceError,
    _write_varint,
    dump_store_image,
    load_store,
    load_store_from_bytes,
    save_store_image,
)
from repro.store.succinct_edge import SuccinctEdge
from tests.conftest import EX

#: The toy fixture's image.  Any change to the byte format — or to how the
#: builder lays the toy graph out — moves these; update them deliberately.
_TOY_IMAGE_LENGTH = 4368
_TOY_IMAGE_SHA256 = "80187f134bc1f809b67e7d4af263a2033d99d6d333eabef1efcd9e5327c284bd"

#: TOC indexes in the toy image.  Each layout writes its three id arrays
#: and two bitvectors (the object layout 0-4, the datatype layout 5-9, its
#: pointers at 7), then come the literal offset directory and record blob,
#: and the two columns of each rdf:type pair run (SO 12-13, OS 14-15).
_OBJECT_WT_S_SECTION = 1
_POINTER_SECTION = 7
_LITERAL_OFFSETS_SECTION = 10
_LITERAL_BLOB_SECTION = 11

#: Image bytes per triple of ``small_lubm_store`` (26.13 when pinned), with
#: 2 % slack: a change that grows the image past it must say why.
_SMALL_LUBM_BYTES_PER_TRIPLE = 26.13 * 1.02


class TestRoundTrip:
    def test_bytes_round_trip_preserves_triples(self, toy_store, toy_data):
        payload = dump_store_image(toy_store)
        restored = load_store_from_bytes(payload)
        assert restored.triple_count == toy_store.triple_count
        assert set(restored.match(None, None, None)) == set(toy_data)

    def test_file_round_trip(self, toy_store, tmp_path):
        path = tmp_path / "store.sedg"
        written = toy_store.save_image(str(path))
        assert path.stat().st_size == written
        restored = SuccinctEdge.load(str(path), mmap=False)
        assert restored.triple_count == toy_store.triple_count

    def test_queries_agree_after_reload(self, toy_store, toy_data):
        restored = load_store_from_bytes(dump_store_image(toy_store))
        queries = [
            ("SELECT ?x WHERE { ?x a <http://example.org/Person> }", True),
            ("SELECT ?x ?d WHERE { ?x <http://example.org/memberOf> ?d }", True),
            (
                "SELECT ?x ?n WHERE { ?x a <http://example.org/Department> . "
                "?y <http://example.org/memberOf> ?x . ?y <http://example.org/name> ?n }",
                False,
            ),
        ]
        for query, reasoning in queries:
            assert (
                restored.query(query, reasoning=reasoning).to_set()
                == toy_store.query(query, reasoning=reasoning).to_set()
            )

    def test_litemat_intervals_preserved(self, toy_store):
        restored = load_store_from_bytes(dump_store_image(toy_store))
        for concept in (EX.Person, EX.Student, EX.Department):
            assert restored.concepts.interval(concept) == toy_store.concepts.interval(concept)
        for prop in (EX.memberOf, EX.worksFor, EX.headOf):
            assert restored.properties.interval(prop) == toy_store.properties.interval(prop)

    def test_statistics_preserved(self, toy_store):
        restored = load_store_from_bytes(dump_store_image(toy_store))
        assert restored.statistics.concept_cardinality(EX.Person) == toy_store.statistics.concept_cardinality(EX.Person)
        assert restored.statistics.property_cardinality(EX.memberOf) == toy_store.statistics.property_cardinality(EX.memberOf)
        assert restored.statistics.instance_cardinality(EX.alice) == toy_store.statistics.instance_cardinality(EX.alice)

    def test_schema_preserved(self, toy_store):
        restored = load_store_from_bytes(dump_store_image(toy_store))
        assert restored.schema.is_subconcept_of(EX.GraduateStudent, EX.Person)
        assert restored.schema.is_subproperty_of(EX.headOf, EX.memberOf)

    def test_engie_store_round_trip(self, engie_store, engie_graph):
        restored = load_store_from_bytes(dump_store_image(engie_store))
        assert set(restored.match(None, None, None)) == set(engie_graph)

    def test_small_lubm_round_trip_counts(self, small_lubm_store):
        restored = load_store_from_bytes(dump_store_image(small_lubm_store))
        assert restored.lubm_style_summary() == small_lubm_store.lubm_style_summary()


class TestSizeAccounting:
    def test_serialized_size_matches_dump(self, toy_store, tmp_path):
        path = tmp_path / "store.sedg"
        assert save_store_image(toy_store, str(path)) == len(dump_store_image(toy_store))

    def test_serialized_size_grows_with_data(self, toy_store, engie_store):
        assert len(dump_store_image(engie_store)) > len(dump_store_image(toy_store))

    def test_small_lubm_image_stays_within_its_byte_budget(self, small_lubm_store):
        payload = dump_store_image(small_lubm_store)
        assert len(payload) / small_lubm_store.triple_count <= _SMALL_LUBM_BYTES_PER_TRIPLE


class TestGoldenImage:
    def test_toy_image_bytes_are_pinned(self, toy_store):
        payload = dump_store_image(toy_store)
        assert len(payload) == _TOY_IMAGE_LENGTH
        assert hashlib.sha256(payload).hexdigest() == _TOY_IMAGE_SHA256

    def test_loaded_image_serves_the_same_layouts(self, toy_store):
        restored = load_store_from_bytes(dump_store_image(toy_store))
        for name in ("object_store", "datatype_store", "type_store"):
            assert list(getattr(restored, name).iter_triples()) == list(
                getattr(toy_store, name).iter_triples()
            )


class TestErrorHandling:
    def test_bad_magic_rejected(self):
        with pytest.raises(PersistenceError):
            load_store_from_bytes(b"NOPE" + b"\x00" * 16)

    def test_truncated_payload_rejected(self, toy_store):
        payload = dump_store_image(toy_store)
        with pytest.raises(PersistenceError):
            load_store_from_bytes(payload[: len(payload) // 2])

    def test_wrong_version_rejected(self, toy_store):
        payload = bytearray(dump_store_image(toy_store))
        payload[4] = 99  # corrupt the version field
        with pytest.raises(PersistenceError):
            load_store_from_bytes(bytes(payload))

    def test_empty_store_round_trip(self):
        from repro.rdf.graph import Graph

        store = SuccinctEdge.from_graph(Graph())
        restored = load_store_from_bytes(dump_store_image(store))
        assert restored.triple_count == 0


# --------------------------------------------------------------------------- #
# store images on disk
# --------------------------------------------------------------------------- #


def _rewrite_image_checksum(data: bytearray) -> None:
    """Recompute the header checksum after patching an image in a test."""
    toc_offset, meta_offset, meta_length = struct.unpack_from("<QQQ", data, 16)
    checksum = zlib.crc32(bytes(data[toc_offset : meta_offset + meta_length])) & 0xFFFFFFFF
    struct.pack_into("<Q", data, 48, checksum)


def _section_span(data: bytearray, index: int) -> tuple:
    """``(offset, length)`` of one TOC entry."""
    toc_offset = struct.unpack_from("<Q", data, 16)[0]
    return struct.unpack_from("<QQ", data, toc_offset + 16 * index)


def _set_section_length(data: bytearray, index: int, length: int) -> None:
    """Patch one TOC entry's length and re-sign the header."""
    toc_offset = struct.unpack_from("<Q", data, 16)[0]
    struct.pack_into("<Q", data, toc_offset + 16 * index + 8, length)
    _rewrite_image_checksum(data)


def _assert_version_rejected(store, tmp_path, version: int) -> None:
    """A current image relabelled ``version`` is refused by number."""
    image = bytearray(dump_store_image(store))
    image[4:6] = struct.pack("<H", version)
    path = tmp_path / f"v{version}.sedg"
    path.write_bytes(bytes(image))
    with pytest.raises(PersistenceError, match=f"version {version}"):
        load_store(str(path))
    with pytest.raises(PersistenceError, match=f"version {version}"):
        load_store_from_bytes(bytes(image))


def _set_object_layer_itemsize(data: bytearray, store, itemsize: int) -> None:
    """Patch the item size the meta declares for ``wt_o`` and re-sign the header.

    The object layout's meta opens with its triple count and then
    ``(section, count, item size)`` for ``wt_p``, ``wt_s`` and ``wt_o``
    (sections 0, 1 and 2); that run of varints is found verbatim.
    """
    layout = store.object_store
    encoded = io.BytesIO()
    for value in (len(layout), 0, len(layout.wt_p), layout.wt_p.itemsize,
                  1, len(layout.wt_s), layout.wt_s.itemsize,
                  2, len(layout.wt_o), layout.wt_o.itemsize):
        _write_varint(encoded, value)
    pattern = encoded.getvalue()
    meta_offset, meta_length = struct.unpack_from("<QQ", data, 24)
    at = data.find(pattern, meta_offset, meta_offset + meta_length)
    assert at >= 0 and data.find(pattern, at + 1, meta_offset + meta_length) < 0
    data[at + len(pattern) - 1] = itemsize
    _rewrite_image_checksum(data)


class TestV4RoundTrip:
    def test_image_bytes_round_trip(self, toy_store, toy_data):
        # Any buffer works as a payload, not only ``bytes``.
        restored = load_store_from_bytes(memoryview(bytearray(dump_store_image(toy_store))))
        assert restored.triple_count == toy_store.triple_count
        assert set(restored.match(None, None, None)) == set(toy_data)

    def test_image_file_round_trip_mapped(self, toy_store, toy_data, tmp_path):
        path = tmp_path / "store.sedg"
        written = save_store_image(toy_store, str(path))
        assert path.stat().st_size == written
        restored = load_store(str(path), mmap=True)
        assert restored.image is not None
        assert restored.image.mapped
        restored.image.validate()  # pristine file passes
        assert set(restored.match(None, None, None)) == set(toy_data)

    def test_image_file_round_trip_unmapped(self, toy_store, toy_data, tmp_path):
        path = tmp_path / "store.sedg"
        save_store_image(toy_store, str(path))
        restored = load_store(str(path), mmap=False)
        assert restored.image is not None
        assert not restored.image.mapped
        assert set(restored.match(None, None, None)) == set(toy_data)

    @pytest.mark.skipif(sys.byteorder != "little", reason="big-endian hosts copy+byteswap")
    def test_mapped_layouts_alias_the_image(self, toy_store, tmp_path):
        # The zero-copy claim, structurally: the succinct layouts' word
        # buffers are memoryview slices of the mapping, not decoded arrays.
        path = tmp_path / "store.sedg"
        save_store_image(toy_store, str(path))
        restored = load_store(str(path))
        assert isinstance(restored.object_store.bm_ps._words, memoryview)
        columns = [
            restored.object_store.wt_p,
            restored.object_store.wt_s,
            restored.object_store.wt_o,
            restored.datatype_store.object_pointers,
        ]
        for run in (restored.type_store._so, restored.type_store._os):
            columns += [run.first, run.second]
        for column in columns:
            assert isinstance(column._values, memoryview)
            assert column._values.readonly

    def test_version_sniffing_dispatch(self, toy_store, tmp_path):
        # load_store reads the version from the preamble before touching
        # anything else: earlier formats are refused by number.
        v3_path, current_path = tmp_path / "v3.sedg", tmp_path / "current.sedg"
        v3_path.write_bytes(b"SEDG" + struct.pack("<H", 3) + b"\x00" * 64)
        save_store_image(toy_store, str(current_path))
        with pytest.raises(PersistenceError, match="version 3"):
            load_store(str(v3_path))
        with pytest.raises(PersistenceError, match="version 3"):
            load_store_from_bytes(v3_path.read_bytes())
        assert load_store(str(current_path)).image is not None

    def test_v4_preamble_rejected(self, toy_store, tmp_path):
        # v4's pointer wavelet trees are not read any more: re-save instead.
        _assert_version_rejected(toy_store, tmp_path, 4)

    def test_v5_preamble_rejected(self, toy_store, tmp_path):
        # Nor are v5's wavelet matrices.
        _assert_version_rejected(toy_store, tmp_path, 5)

    def test_literal_kinds_round_trip(self):
        from repro.rdf.graph import Graph

        graph = Graph()
        literals = [
            Literal("plain"),
            Literal(42),
            Literal("2021-03-23", datatype="http://www.w3.org/2001/XMLSchema#date"),
            Literal("bonjour", language="fr"),
            Literal("hello", language="en"),
            Literal("also plain"),
        ]
        for index, literal in enumerate(literals):
            graph.add(Triple(EX[f"s{index}"], EX.name, literal))
        store = SuccinctEdge.from_graph(graph)
        payload = dump_store_image(store)
        # The datatype IRI is written once, in the table, not per record.
        assert payload.count(XSD_STRING.encode()) == 1
        restored = load_store_from_bytes(payload)
        assert set(restored.match(None, None, None)) == set(graph)
        assert sorted(map(repr, restored.datatype_store.literals)) == sorted(map(repr, literals))

    def test_queries_agree_after_mapped_reload(self, toy_store, tmp_path):
        path = tmp_path / "store.sedg"
        save_store_image(toy_store, str(path))
        restored = load_store(str(path))
        queries = [
            ("SELECT ?x WHERE { ?x a <http://example.org/Person> }", True),
            ("SELECT ?x ?d WHERE { ?x <http://example.org/memberOf> ?d }", True),
            (
                "SELECT ?x ?n WHERE { ?x a <http://example.org/Department> . "
                "?y <http://example.org/memberOf> ?x . ?y <http://example.org/name> ?n }",
                False,
            ),
        ]
        for query, reasoning in queries:
            assert (
                restored.query(query, reasoning=reasoning).to_set()
                == toy_store.query(query, reasoning=reasoning).to_set()
            )

    def test_join_profiles_survive_v4(self, toy_store):
        # The image persists the cost-based planner's statistics, so a
        # mapped store plans — and therefore orders rows — identically to
        # the builder output.
        restored = load_store_from_bytes(dump_store_image(toy_store))
        assert restored.statistics.has_profiles == toy_store.statistics.has_profiles
        assert (
            restored.statistics.profiled_property_ids()
            == toy_store.statistics.profiled_property_ids()
        )

    def test_atomic_save_leaves_no_staging_file(self, toy_store, tmp_path):
        path = tmp_path / "store.sedg"
        save_store_image(toy_store, str(path), atomic=True)
        assert [entry.name for entry in tmp_path.iterdir()] == ["store.sedg"]
        assert load_store(str(path)).triple_count == toy_store.triple_count

    def test_facade_convenience_methods(self, toy_store, tmp_path):
        path = tmp_path / "store.sedg"
        toy_store.save_image(str(path), atomic=True)
        restored = SuccinctEdge.load(str(path))
        assert restored.image is not None
        assert restored.triple_count == toy_store.triple_count

    def test_empty_store_image_round_trip(self, tmp_path):
        from repro.rdf.graph import Graph

        store = SuccinctEdge.from_graph(Graph())
        path = tmp_path / "empty.sedg"
        save_store_image(store, str(path))
        restored = load_store(str(path))
        assert restored.triple_count == 0

    def test_engie_store_image_round_trip(self, engie_store, engie_graph, tmp_path):
        path = tmp_path / "engie.sedg"
        save_store_image(engie_store, str(path))
        restored = load_store(str(path))
        assert set(restored.match(None, None, None)) == set(engie_graph)

    def test_mapped_store_rejects_writes(self, toy_store, tmp_path):
        from repro.rdf.terms import Triple, URI

        path = tmp_path / "store.sedg"
        save_store_image(toy_store, str(path))
        restored = load_store(str(path))
        with pytest.raises(TypeError):
            restored.insert(Triple(URI("http://x/s"), URI("http://x/p"), URI("http://x/o")))
        # ...but the delta overlay gives it a write path like any other store.
        live = restored.updatable()
        assert live.insert(Triple(URI("http://x/s"), URI("http://x/p"), URI("http://x/o")))


class TestLiveStoreImages:
    # Live writes grow the dictionaries, so each test builds its own store
    # instead of touching the session-wide ``toy_store``.

    def test_updatable_store_saves_its_visible_state(self, toy_data, toy_ontology, tmp_path):
        from repro.rdf.namespaces import RDF
        from repro.rdf.terms import Literal, Triple

        live = SuccinctEdge.from_graph(toy_data, ontology=toy_ontology).updatable()
        live.insert(Triple(EX.zed, RDF.type, EX.Student))
        live.insert(Triple(EX.zed, EX.memberOf, EX.dept1))
        live.insert(Triple(EX.zed, EX.name, Literal("Zed")))
        live.delete(Triple(EX.alice, EX.memberOf, EX.dept1))
        pending = live.delta_operation_count
        path = tmp_path / "live.sedg"
        live.save_image(str(path), atomic=True)
        assert live.delta_operation_count == pending  # the delta stays pending
        restored = SuccinctEdge.load(str(path))
        assert set(restored.match(None, None, None)) == set(live.match(None, None, None))
        query = "SELECT ?x WHERE { ?x a <http://example.org/Person> }"
        assert restored.query(query).to_set() == live.query(query).to_set()

    def test_updatable_store_saves_after_compaction(self, toy_data, toy_ontology, tmp_path):
        live = SuccinctEdge.from_graph(toy_data, ontology=toy_ontology).updatable()
        live.compact()
        path = tmp_path / "compacted.sedg"
        live.save_image(str(path))
        assert set(SuccinctEdge.load(str(path)).match(None, None, None)) == set(toy_data)

    def test_sharded_store_points_to_image_directories(self, toy_store, tmp_path):
        from repro.store.sharding import ShardedStore

        sharded = ShardedStore.from_store(toy_store, shards=2)
        with pytest.raises(TypeError, match="save_image_directory"):
            sharded.save_image(str(tmp_path / "sharded.sedg"))


class TestV4ErrorHandling:
    @pytest.fixture()
    def image(self, toy_store):
        return bytearray(dump_store_image(toy_store))

    def test_truncated_header_rejected(self, image, tmp_path):
        path = tmp_path / "short.sedg"
        path.write_bytes(bytes(image[:40]))
        with pytest.raises(PersistenceError, match="truncated"):
            load_store(str(path))

    def test_truncated_heap_rejected(self, image, tmp_path):
        path = tmp_path / "cut.sedg"
        path.write_bytes(bytes(image[: len(image) - 64]))
        with pytest.raises(PersistenceError, match="truncated"):
            load_store(str(path))

    def test_bad_magic_rejected(self, image, tmp_path):
        image[:4] = b"NOPE"
        path = tmp_path / "magic.sedg"
        path.write_bytes(bytes(image))
        with pytest.raises(PersistenceError, match="bad magic"):
            load_store(str(path))

    def test_unknown_version_rejected(self, image, tmp_path):
        image[4] = 99  # version field, right after the magic
        path = tmp_path / "future.sedg"
        path.write_bytes(bytes(image))
        with pytest.raises(PersistenceError, match="version 99"):
            load_store(str(path))

    def test_checksum_mismatch_rejected(self, image, tmp_path):
        toc_offset = struct.unpack_from("<Q", image, 16)[0]
        image[toc_offset] ^= 0xFF  # corrupt the TOC without fixing the checksum
        path = tmp_path / "bitrot.sedg"
        path.write_bytes(bytes(image))
        with pytest.raises(PersistenceError, match="checksum"):
            load_store(str(path))

    def test_misaligned_section_rejected(self, image, tmp_path):
        # Bump the first section's offset off 8-byte alignment and re-sign
        # the header so the corruption reaches the alignment check.
        toc_offset = struct.unpack_from("<Q", image, 16)[0]
        offset = struct.unpack_from("<Q", image, toc_offset)[0]
        struct.pack_into("<Q", image, toc_offset, offset + 1)
        _rewrite_image_checksum(image)
        path = tmp_path / "skewed.sedg"
        path.write_bytes(bytes(image))
        with pytest.raises(PersistenceError, match="misaligned"):
            load_store(str(path))

    def test_out_of_bounds_section_rejected(self, image, tmp_path):
        toc_offset = struct.unpack_from("<Q", image, 16)[0]
        file_length = struct.unpack_from("<Q", image, 40)[0]
        struct.pack_into("<Q", image, toc_offset, file_length + 8)
        _rewrite_image_checksum(image)
        path = tmp_path / "oob.sedg"
        path.write_bytes(bytes(image))
        with pytest.raises(PersistenceError, match="outside the file"):
            load_store(str(path))

    def test_short_pointer_section_rejected(self, image):
        _set_section_length(image, _POINTER_SECTION, 0)
        with pytest.raises(PersistenceError, match="id-array section 7 holds 0 bytes"):
            load_store_from_bytes(bytes(image))

    def test_short_matrix_level_rejected(self, image):
        # An id layer whose section is one byte short of count × item size.
        length = _section_span(image, _OBJECT_WT_S_SECTION)[1]
        _set_section_length(image, _OBJECT_WT_S_SECTION, length - 1)
        with pytest.raises(PersistenceError, match=f"holds {length - 1} bytes"):
            load_store_from_bytes(bytes(image))

    def test_matrix_level_count_must_match_sigma(self, toy_store):
        # An id layer's declared item size must be 1, 2, 4 or 8 bytes.
        for itemsize in (0, 3, 16):
            image = bytearray(dump_store_image(toy_store))
            _set_object_layer_itemsize(image, toy_store, itemsize)
            with pytest.raises(PersistenceError, match=f"declares item size {itemsize},"):
                load_store_from_bytes(bytes(image))

    def test_datatype_index_past_the_table_rejected(self, image):
        # The first record's last byte is its datatype-table index; the
        # record blob is not checksummed, so the patch needs no re-signing.
        offsets_at = _section_span(image, _LITERAL_OFFSETS_SECTION)[0]
        first_record_end = struct.unpack_from("<Q", image, offsets_at + 8)[0]
        blob_at = _section_span(image, _LITERAL_BLOB_SECTION)[0]
        image[blob_at + first_record_end - 1] = 0x7F
        restored = load_store_from_bytes(bytes(image))
        with pytest.raises(PersistenceError, match="datatype table"):
            restored.datatype_store.literals.get(0)

    def test_short_literal_offsets_rejected(self, image):
        # Without the check this image loads and the first datatype query
        # fails with a bare IndexError.
        _set_section_length(image, _LITERAL_OFFSETS_SECTION, 8)
        with pytest.raises(PersistenceError, match="literal offset section"):
            load_store_from_bytes(bytes(image))

    def test_modification_underneath_detected(self, toy_store, tmp_path):
        # A writer rewriting the image in place (instead of atomically
        # replacing it) flips bytes under the live mapping; validate()
        # catches it through the remembered TOC/meta checksum.
        path = tmp_path / "live.sedg"
        save_store_image(toy_store, str(path))
        restored = load_store(str(path))
        restored.image.validate()
        toc_offset = 64
        with open(path, "r+b") as handle:
            handle.seek(toc_offset)
            original = handle.read(1)
            handle.seek(toc_offset)
            handle.write(bytes([original[0] ^ 0xFF]))
            handle.flush()
        with pytest.raises(PersistenceError, match="modified"):
            restored.image.validate()

    def test_load_failure_does_not_leak_the_mapping(self, image, tmp_path):
        # A rejected image must release its file handle/mapping so the
        # caller can delete or repair the file immediately (Windows-style
        # semantics; on Linux this pins the error-path cleanup).
        image[4] = 99
        path = tmp_path / "reject.sedg"
        path.write_bytes(bytes(image))
        with pytest.raises(PersistenceError):
            load_store(str(path))
        path.unlink()  # would fail on platforms with mandatory locks if leaked
