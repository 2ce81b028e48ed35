"""Property-path workloads: kernel-call budgets on adversarial graph shapes.

Runs the :mod:`repro.workloads.adversarial` query set — long chains closed
into rings, two-tier high-fanout hubs, deep ``partOf`` hierarchies — against
the streaming engine and records, per query, the result cardinality and the
SDS kernel-call count of one cold execution.  Two invariants are asserted:

* every query's rows are multiset-identical to the naive materializing
  oracle (the adversarial shapes are exactly where a broken fixpoint would
  diverge first), and
* the frontier BFS stays linear on the ring walk: doubling the
  chain length may at most ~double the bounded-source closure's kernel
  calls (a visited-set regression re-walks the ring per depth level and
  goes quadratic).

Results land in ``benchmarks/results/property_paths.txt``; the CI
benchmark-smoke job refreshes the table at small scale.
"""

from __future__ import annotations

from collections import Counter

from repro.bench.harness import bench_scale, record_table
from repro.query.engine import QueryEngine
from repro.query.materializing import MaterializingQueryEngine
from repro.sds.kernels import total_kernel_calls
from repro.store.succinct_edge import SuccinctEdge
from repro.workloads.adversarial import scaled_workload


def _multiset(result):
    return Counter(result.to_tuples())


def test_adversarial_path_kernel_budgets(results_dir):
    workload = scaled_workload(bench_scale())
    store = SuccinctEdge.from_graph(workload.graph(), ontology=workload.ontology())
    engine = QueryEngine(store, reasoning=False)
    oracle = MaterializingQueryEngine(store, reasoning=False)

    lines = [
        f"Property-path workloads: SDS kernel calls per adversarial query "
        f"(scale={bench_scale()}, chain={workload.chain_length}, "
        f"fanout={workload.hub_fanout}, depth={workload.hierarchy_depth})",
        "",
        f"{'query':>24} {'rows':>8} {'kernel calls':>14}  scenario",
        "-" * 96,
    ]
    calls_by_id = {}
    for query in workload.queries():
        before = total_kernel_calls()
        result = engine.execute(query.sparql)
        rows = _multiset(result)
        calls = total_kernel_calls() - before
        calls_by_id[query.identifier] = calls
        assert rows, f"{query.identifier} returned no rows"
        assert rows == _multiset(oracle.execute(query.sparql)), query.identifier
        lines.append(
            f"{query.identifier:>24} {sum(rows.values()):>8} {calls:>14}  {query.description}"
        )
    lines.append("-" * 96)
    lines.append(f"{'total':>24} {'':>8} {sum(calls_by_id.values()):>14}")

    # Linearity of the semi-naive frontier: on a ring of twice the length
    # the single-source closure may spend at most ~2x the kernel calls
    # (plus slack for probe-vs-scan flips).  A frontier that forgets its
    # visited set re-walks the ring per depth level and goes quadratic.
    def _ring_walk_calls(chain_length: int) -> int:
        from repro.workloads.adversarial import AdversarialPathWorkload

        ring = AdversarialPathWorkload(
            chain_length=chain_length,
            hub_fanout=workload.hub_fanout,
            hierarchy_depth=workload.hierarchy_depth,
            hierarchy_branching=workload.hierarchy_branching,
        )
        ring_store = SuccinctEdge.from_graph(ring.graph(), ontology=ring.ontology())
        ring_engine = QueryEngine(ring_store, reasoning=False)
        sparql = next(
            query.sparql
            for query in ring.queries()
            if query.identifier == "chain-closure-bound"
        )
        before = total_kernel_calls()
        ring_engine.execute(sparql).to_tuples()
        return total_kernel_calls() - before

    single = _ring_walk_calls(workload.chain_length)
    double = _ring_walk_calls(workload.chain_length * 2)
    assert double <= single * 3, (single, double)
    lines.append(
        f"ring-walk linearity: {single} calls at chain={workload.chain_length} vs "
        f"{double} at chain={workload.chain_length * 2} ({double / max(1, single):.2f}x)"
    )

    record_table(results_dir, "property_paths", "\n".join(lines))
