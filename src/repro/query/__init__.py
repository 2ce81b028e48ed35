"""Query optimization and processing (paper Section 5).

* :mod:`repro.query.query_graph` — the query graph (TP nodes, SS/SO join edges);
* :mod:`repro.query.cardinality` — join-aware cardinality estimation
  (per-property distinct counts, characteristic sets, chained selectivities);
* :mod:`repro.query.optimizer` — the cost-based planner (kernel-call cost
  model, DP with a greedy fallback for large BGPs), plus the
  solution-modifier pipeline planner;
* :mod:`repro.query.plan` — the unified plan IR: costed left-deep steps,
  group operators (OPTIONAL/VALUES/FILTER placement), modifier pipeline;
* :mod:`repro.query.tp_eval` — triple-pattern evaluation as SDS operations
  (Algorithms 3 and 4) with LiteMat interval reasoning;
* :mod:`repro.query.operators` — the streaming (generator-based) physical
  operators: joins, OPTIONAL/VALUES, FILTER/BIND, sort/top-k, slice;
* :mod:`repro.query.engine` — the streaming SELECT/ASK pipeline;
* :mod:`repro.query.materializing` — the seed list-materializing engine,
  kept as the differential-testing oracle;
* :mod:`repro.query.rewriter` — the "high-level concept" query helper of the
  paper's contribution (iv).
"""

from repro.query.cardinality import CardinalityEstimator
from repro.query.engine import QueryEngine
from repro.query.materializing import MaterializingQueryEngine
from repro.query.optimizer import (
    CostBasedJoinOrderOptimizer,
    CostModel,
)
from repro.query.parallel import ParallelExecutor, ParallelQueryEngine
from repro.query.plan import (
    AccessPath,
    GroupPlan,
    ModifierOp,
    ModifierStep,
    PhysicalPlan,
    PipelinePlan,
    PlanStep,
)
from repro.query.query_graph import JoinEdge, QueryGraph, QueryNode

__all__ = [
    "AccessPath",
    "CardinalityEstimator",
    "CostBasedJoinOrderOptimizer",
    "CostModel",
    "GroupPlan",
    "JoinEdge",
    "MaterializingQueryEngine",
    "ModifierOp",
    "ModifierStep",
    "ParallelExecutor",
    "ParallelQueryEngine",
    "PhysicalPlan",
    "PipelinePlan",
    "PlanStep",
    "QueryEngine",
    "QueryGraph",
    "QueryNode",
]
