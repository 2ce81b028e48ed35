"""Plan-regression smoke: kernel-call budget vs a checked-in baseline.

Runs the fig12 scan queries (S11-S15) plus the BGP and reasoning workloads
(M1-M5, R1-R6) through the default (cost-based) planner with the SDS kernel
counters on, and fails when the total regresses more than 10% against
``benchmarks/baselines/plan_kernel_calls_<scale>.json``.  CI runs this at
small scale on every push, so a planner or estimator change that silently
worsens plans is caught before merge.

Regenerate after an intentional change with::

    REPRO_UPDATE_PLAN_BASELINE=1 python -m pytest benchmarks/test_plan_regression.py -m slow -q -s
"""

from __future__ import annotations

import json
import os
import pathlib

import pytest

from repro.bench.harness import bench_scale
from repro.query.engine import QueryEngine
from repro.sds.kernels import total_kernel_calls
from repro.store.succinct_edge import SuccinctEdge

BASELINE_DIR = pathlib.Path(__file__).parent / "baselines"
_UPDATE = os.environ.get("REPRO_UPDATE_PLAN_BASELINE", "") not in ("", "0")
_TOLERANCE = 1.10  # fail when total kernel calls regress by more than 10%

#: The measured workload: the paper's scan, BGP and reasoning queries.
_QUERY_IDS = [f"S{i}" for i in range(11, 16)] + [f"M{i}" for i in range(1, 6)] + [
    f"R{i}" for i in range(1, 7)
]


def _baseline_path() -> pathlib.Path:
    return BASELINE_DIR / f"plan_kernel_calls_{bench_scale()}.json"


def test_kernel_calls_do_not_regress(context):
    store = SuccinctEdge.from_graph(context.full_graph, ontology=context.lubm.ontology)
    engine = QueryEngine(store, reasoning=True)
    by_identifier = context.catalog.by_identifier()
    measured = {}
    for identifier in _QUERY_IDS:
        query = by_identifier[identifier]
        engine.execute(query.sparql)  # warm the plan cache
        before = total_kernel_calls()
        result = engine.execute(query.sparql)
        len(result)  # materialize
        measured[identifier] = total_kernel_calls() - before
    total = sum(measured.values())

    path = _baseline_path()
    if _UPDATE or not path.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps({"scale": bench_scale(), "queries": measured, "total": total}, indent=2)
            + "\n"
        )
        if not _UPDATE:
            pytest.skip(f"baseline {path.name} was just created")
        return

    baseline = json.loads(path.read_text())
    budget = baseline["total"] * _TOLERANCE
    per_query = "\n".join(
        f"  {identifier}: {measured[identifier]} (baseline {baseline['queries'].get(identifier)})"
        for identifier in _QUERY_IDS
    )
    print(
        f"\nplan regression check ({bench_scale()} scale): "
        f"total {total} vs baseline {baseline['total']} (budget {budget:.0f})\n{per_query}"
    )
    assert total <= budget, (
        f"total kernel calls regressed: {total} > {budget:.0f} "
        f"(baseline {baseline['total']} + 10%).\n{per_query}\n"
        "If the plan change is intentional, regenerate with "
        "REPRO_UPDATE_PLAN_BASELINE=1."
    )


# --------------------------------------------------------------------------- #
# property-path kernel budgets (adversarial workload, own baseline file)
# --------------------------------------------------------------------------- #


def _path_baseline_path() -> pathlib.Path:
    return BASELINE_DIR / f"path_kernel_calls_{bench_scale()}.json"


def test_path_kernel_calls_do_not_regress():
    """The adversarial path queries must stay inside their pinned budget.

    Same contract as the BGP check above, over the closure-heavy workload of
    :mod:`repro.workloads.adversarial`: a change to the frontier BFS, the
    probe-vs-scan constants or the path cost model that silently inflates
    kernel calls fails here instead of shipping.
    """
    from repro.workloads.adversarial import scaled_workload

    workload = scaled_workload(bench_scale())
    store = SuccinctEdge.from_graph(workload.graph(), ontology=workload.ontology())
    engine = QueryEngine(store, reasoning=False)
    measured = {}
    for query in workload.queries():
        engine.execute(query.sparql)  # warm the plan cache
        before = total_kernel_calls()
        result = engine.execute(query.sparql)
        len(result)  # materialize
        measured[query.identifier] = total_kernel_calls() - before
    total = sum(measured.values())

    path = _path_baseline_path()
    if _UPDATE or not path.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps({"scale": bench_scale(), "queries": measured, "total": total}, indent=2)
            + "\n"
        )
        if not _UPDATE:
            pytest.skip(f"baseline {path.name} was just created")
        return

    baseline = json.loads(path.read_text())
    budget = baseline["total"] * _TOLERANCE
    per_query = "\n".join(
        f"  {identifier}: {calls} (baseline {baseline['queries'].get(identifier)})"
        for identifier, calls in measured.items()
    )
    print(
        f"\npath plan regression check ({bench_scale()} scale): "
        f"total {total} vs baseline {baseline['total']} (budget {budget:.0f})\n{per_query}"
    )
    assert total <= budget, (
        f"path kernel calls regressed: {total} > {budget:.0f} "
        f"(baseline {baseline['total']} + 10%).\n{per_query}\n"
        "If the plan change is intentional, regenerate with "
        "REPRO_UPDATE_PLAN_BASELINE=1."
    )
