"""The end-to-end benchmark's store contract, pinned in tier-1.

``benchmarks/e2e/layers.py::probe_sds`` — the ``--trace 1`` pass of the
benchmark driver — reads the object store's own structures: ``bm_so.rank``
and ``bm_so.select``, and ``len()``, ``access`` and ``range_search`` on
``wt_o``.  The benchmark's files are not edited by store changes, so this
test imports them as they are and runs the probe on a small mapped LUBM
store: a store refactor that breaks the contract fails here, not only in
the slow e2e smoke.
"""

from __future__ import annotations

import math
import pathlib
import random
import sys

import pytest

from repro.store.succinct_edge import SuccinctEdge

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
