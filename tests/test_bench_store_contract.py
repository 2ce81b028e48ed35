"""The end-to-end benchmark's store and tracing contracts, pinned in tier-1.

``benchmarks/e2e/layers.py`` is the ``--trace 1`` pass of the benchmark
driver.  Its ``probe_sds`` reads the object store's own structures:
``bm_so.rank`` and ``bm_so.select``, and ``len()``, ``access`` and
``range_search`` on ``wt_o``.  Its ``Tracer`` patches the layers' entry
points by name (``TriplePatternEvaluator.evaluate_many``,
``QueryEngine.stream``, ``QueryService.execute(..., deliver=)``, every
module-level copy of ``parse_query`` ...).  The benchmark's files are not
edited by engine or store changes, so these tests import them as they are
and run them on a small mapped LUBM store: a refactor that breaks either
contract fails here, not only in the slow e2e smoke.
"""

from __future__ import annotations

import math
import pathlib
import random
import sys

import pytest

from repro.store.succinct_edge import SuccinctEdge
from repro.workloads.queries import QueryCatalog

_E2E = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "e2e"


@pytest.fixture(scope="module")
def layers():
    sys.path.insert(0, str(_E2E))
    try:
        import layers as module
    finally:
        sys.path.remove(str(_E2E))
    return module


def test_probe_sds_on_a_mapped_lubm_store(layers, small_lubm_store, tmp_path):
    path = tmp_path / "lubm.sedg"
    small_lubm_store.save_image(str(path))
    store = SuccinctEdge.load(str(path), mmap=True)
    assert store.image.mapped
    metrics = layers.probe_sds(store, random.Random(7))
    assert set(metrics) == {"sds.rank_ns", "sds.select_ns", "sds.wt_range_search_us"}
    for name, value in metrics.items():
        assert math.isfinite(value) and value > 0, name


#: Catalog queries replayed through the traced pass: point lookups, scans,
#: joins, reasoning and an aggregate.
_TRACED_QUERIES = ("S1", "S4", "S10", "S13", "M1", "M3", "R2", "A2")


def test_traced_replay_on_a_mapped_lubm_store(layers, small_lubm, small_lubm_store, tmp_path):
    path = tmp_path / "lubm.sedg"
    small_lubm_store.save_image(str(path))
    catalog = QueryCatalog(small_lubm).by_identifier()
    ops = [
        layers.Op(kind="query", text=catalog[name].sparql, reasoning=catalog[name].requires_reasoning)
        for name in _TRACED_QUERIES
    ]

    tracer = layers.Tracer()
    tracer.install()
    try:
        patched = list(tracer._patched)
        assert len(patched) > 16  # the methods plus every copy of parse_query
        for owner, attribute, original in patched:
            assert getattr(owner, attribute) is not original, attribute
    finally:
        tracer.uninstall()
    for owner, attribute, original in patched:
        assert getattr(owner, attribute) is original, attribute

    tracer = layers.Tracer()
    # ``replay`` raises unless every reply is a 200.
    result = layers.replay("analytic_full", ops, str(path), tracer)
    assert result.rows > 0
    tp_eval = tracer.of("tp_eval")
    assert tracer.counts["TriplePatternEvaluator.evaluate_many"] > 0
    assert sum(span.rows for span in tp_eval) > 0
    assert tracer.of("server") and tracer.of("engine") and tracer.of("sparql")
