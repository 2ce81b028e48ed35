"""Cold start — instant startup from a memory-mapped store image.

The acceptance benchmark of persistence (``docs/persistence.md``): an edge
node restarting with a warm store on disk should *not* pay a per-triple
build pass.  Without an image the node rebuilds the store from its graph
(``SuccinctEdge.from_graph``: dictionaries, LiteMat encoding, every succinct
structure); mapping an image hands the kernels ``memoryview`` slices of
the page cache, so the load cost is bounded by header + TOC + dictionary
parsing and is independent of the triple count.

Measured here, per LUBM dataset at the active scale: rebuild time,
mapped load time, the resulting speedup, and a first-query probe over the
mapped store to show the page-cache path serves immediately.  The mapped
store's query results are additionally asserted byte-identical to the
builder output (the differential suite pins all 32 queries; this smoke
keeps the bar visible next to the numbers).
"""

from __future__ import annotations

import time

from repro.bench.harness import format_table, record_table
from repro.store.persistence import load_store, save_store_image
from repro.store.succinct_edge import SuccinctEdge

#: The mapped-load-vs-rebuild speedup floor asserted per scale.  The gap
#: widens with triple count (a rebuild pays per triple, a mapped load does
#: not), so the small smoke profile gets a conservative floor while
#: medium/full hold the paper-style 10x bar.
_SPEEDUP_FLOOR = {"small": 3.0, "medium": 10.0, "full": 10.0}


def _best_of(callable_, repeats: int = 3) -> float:
    """Best wall-clock milliseconds over ``repeats`` runs (cache-warm)."""
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        callable_()
        best = min(best, (time.perf_counter() - started) * 1000.0)
    return best


def test_cold_start(benchmark, context, results_dir, tmp_path):
    """Regenerate the cold-start table and assert the mapped-load speedup floor."""
    from repro.bench.harness import bench_scale

    datasets = sorted(
        (name for name in context.datasets if name.endswith("K")),
        key=lambda name: len(context.datasets[name]),
    )
    if not datasets:
        datasets = ["full"]
    rows = {"rebuild (from_graph)": [], "mapped load (mmap)": [], "speedup": [], "first query": []}
    largest_speedup = None
    probe = "SELECT ?x WHERE { ?x a <http://swat.cse.lehigh.edu/onto/univ-bench.owl#Professor> }"

    for name in datasets:
        graph = context.datasets.get(name, context.full_graph)
        built = SuccinctEdge.from_graph(graph, ontology=context.lubm.ontology)
        image_path = tmp_path / f"{name}.sedg"
        save_store_image(built, str(image_path), atomic=True)

        rebuild_ms = _best_of(
            lambda: SuccinctEdge.from_graph(graph, ontology=context.lubm.ontology)
        )
        load_ms = _best_of(lambda: load_store(str(image_path), mmap=True))
        mapped = load_store(str(image_path), mmap=True)
        first_query_ms = _best_of(lambda: mapped.query(probe), repeats=1)

        # Byte-identical serving off the mapping (the differential suite
        # pins the full query matrix; keep the bar visible here too).
        left, right = mapped.query(probe), built.query(probe)
        assert left.variables == right.variables
        assert left.to_tuples() == right.to_tuples()

        speedup = rebuild_ms / load_ms if load_ms else float("inf")
        rows["rebuild (from_graph)"].append(rebuild_ms)
        rows["mapped load (mmap)"].append(load_ms)
        rows["speedup"].append(f"{speedup:.1f}x")
        rows["first query"].append(first_query_ms)
        largest_speedup = speedup  # datasets are size-ordered; keep the last

    table = format_table(
        "Cold start: store start time, rebuild from graph vs mapped image",
        datasets,
        rows,
        unit="ms, best of 3",
    )
    record_table(results_dir, "cold_start", table)

    floor = _SPEEDUP_FLOOR[bench_scale()]
    assert largest_speedup is not None and largest_speedup >= floor, (
        f"mapped load is only {largest_speedup:.1f}x faster than a rebuild "
        f"from the graph on {datasets[-1]} (floor at {bench_scale()} scale: {floor}x)"
    )

    # The benchmarked operation: one mapped cold start on the largest image.
    largest_image = tmp_path / f"{datasets[-1]}.sedg"
    benchmark.pedantic(
        lambda: load_store(str(largest_image), mmap=True), rounds=3, iterations=1
    )
