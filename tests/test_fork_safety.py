"""Fork safety: module-level state must not leak into worker processes.

The process backend defaults to ``fork`` workers, so every piece of
module-level mutable state in the coordinator is silently duplicated into
each worker.  Two of them would corrupt results if left alone:

* the **kernel-call counters** (:data:`repro.sds.kernels.KERNEL_COUNTS`) —
  a forked worker inherits the parent's mid-benchmark counts, and since
  workers report per-task *deltas* that the coordinator folds back in, an
  inherited baseline would double-count the parent's own work;
* the **LRU caches** (:class:`repro.caching.LruCache`) — a fork can catch
  a cache mid-``put`` in another thread, leaving the child a permanently
  held lock (the classic fork deadlock) and a half-mutated entry map.

Both register ``os.register_at_fork`` hooks; these tests pin that the
hooks actually run and actually reset.
"""

from __future__ import annotations

import multiprocessing
import os

import pytest

from repro.caching import LruCache
from repro.sds.kernels import KERNEL_COUNTS, kernel_counters, merge_kernel_counters

pytestmark = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="fork-based workers need os.fork"
)


def _child_counter_snapshot(queue):
    queue.put(kernel_counters())


def _child_cache_probe(cache, queue):
    # The parent seeded this cache; after the at-fork reset the child must
    # see an empty, *usable* cache (a held inherited lock would hang here).
    hit, _ = cache.get("seeded")
    cache.put("child", 1)
    queue.put((hit, len(cache)))


def _prime_parent_counters(store) -> None:
    """Run one real query so the parent's counters are decidedly non-zero."""
    store.query(
        """
        SELECT ?x ?n WHERE {
          ?x a <http://swat.cse.lehigh.edu/onto/univ-bench.owl#FullProfessor> .
          ?x <http://swat.cse.lehigh.edu/onto/univ-bench.owl#name> ?n .
        }
        """
    )


def test_forked_worker_kernel_counters_start_at_zero(small_lubm_store):
    _prime_parent_counters(small_lubm_store)
    parent = kernel_counters()
    assert sum(parent.values()) > 0
    context = multiprocessing.get_context("fork")
    queue = context.Queue()
    child = context.Process(target=_child_counter_snapshot, args=(queue,))
    child.start()
    snapshot = queue.get(timeout=30)
    child.join(timeout=30)
    assert sum(snapshot.values()) == 0, f"forked child inherited counts: {snapshot}"
    # The parent keeps its own counts untouched.
    assert kernel_counters() == parent


def test_forked_worker_via_pool_reports_zero_counters(small_lubm_store, tmp_path):
    # End to end through the real worker pool: the "counters" op returns
    # the worker's counters, which must start from the initializer's reset
    # state, not the coordinator's live totals.
    from repro.query.multiproc import ProcessPoolQueryEngine

    _prime_parent_counters(small_lubm_store)
    assert sum(kernel_counters().values()) > 0
    engine = ProcessPoolQueryEngine(
        small_lubm_store, max_workers=1, workspace=str(tmp_path / "spill")
    )
    try:
        spec = engine.evaluator._session()
        snapshot = engine.pool.result(engine.pool.submit(spec, "counters", ()))
        assert sum(snapshot.values()) == 0, f"worker booted with counts: {snapshot}"
    finally:
        engine.close()


def test_forked_child_gets_fresh_caches():
    cache = LruCache(capacity=8)
    cache.put("seeded", "value")
    assert len(cache) == 1
    context = multiprocessing.get_context("fork")
    queue = context.Queue()
    child = context.Process(target=_child_cache_probe, args=(cache, queue))
    child.start()
    hit, size = queue.get(timeout=30)
    child.join(timeout=30)
    assert hit is False, "forked child served a stale pre-fork cache entry"
    assert size == 1  # only the child's own put
    # The parent cache is untouched by the child's reset.
    hit, value = cache.get("seeded")
    assert hit and value == "value"


def test_merge_kernel_counters_folds_deltas():
    before = kernel_counters().get("rank", 0)
    merge_kernel_counters({"rank": 3, "made_up_kernel": 2})
    try:
        assert kernel_counters()["rank"] == before + 3
        assert kernel_counters()["made_up_kernel"] == 2
    finally:
        KERNEL_COUNTS["made_up_kernel"] = 0
        KERNEL_COUNTS["rank"] = before
