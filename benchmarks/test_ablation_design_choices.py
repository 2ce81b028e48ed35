"""Ablation benchmarks for the design choices DESIGN.md calls out.

Not part of the paper's evaluation, but each experiment isolates one of the
paper's design decisions:

* LiteMat interval reasoning vs UNION-of-subqueries rewriting on the same
  engine-independent workload (reasoning queries R1/R3/R5);
* the dedicated RDFType store vs answering ``rdf:type`` patterns as if they
  were regular object properties (approximated by the multi-index baseline).
"""

from __future__ import annotations

from repro.bench.harness import record_table

from repro.bench.harness import format_table
from repro.bench.measure import measure_best_of
from repro.ontology.rewriting import count_union_branches
from repro.sparql.parser import parse_query


def test_ablation_litemat_vs_union_rewriting(benchmark, context, loaded_systems, results_dir):
    """LiteMat intervals vs UNION rewriting, both executed by SuccinctEdge."""
    succinct = loaded_systems["SuccinctEdge"].store
    schema = succinct.schema
    queries = [context.catalog.by_identifier()[name] for name in ("R1", "R3", "R5")]
    columns = []
    rows = {"LiteMat-intervals": [], "UNION-rewriting": [], "UNION-branches": []}
    from repro.ontology.rewriting import rewrite_query_with_unions

    for query in queries:
        parsed = parse_query(query.sparql)
        litemat = measure_best_of(lambda: succinct.query(parsed, reasoning=True), repetitions=1)
        rewritten = rewrite_query_with_unions(parsed, schema)
        union = measure_best_of(lambda: succinct.query(rewritten, reasoning=False), repetitions=1)
        assert litemat.result.to_set() == union.result.to_set()
        columns.append(f"{query.identifier}({len(litemat.result)})")
        rows["LiteMat-intervals"].append(litemat.total_ms)
        rows["UNION-rewriting"].append(union.total_ms)
        rows["UNION-branches"].append(count_union_branches(parsed, schema))
    table = format_table(
        "Ablation: LiteMat interval reasoning vs UNION rewriting (same store)",
        columns,
        rows,
        unit="ms / branch count",
    )
    record_table(results_dir, "ablation_litemat_vs_union", table)
    benchmark.pedantic(lambda: succinct.query(queries[0].sparql, reasoning=True), rounds=1, iterations=1)


def test_ablation_rdftype_store(benchmark, context, loaded_systems, results_dir):
    """The dedicated RDFType store vs a generic index scan for rdf:type patterns."""
    succinct = loaded_systems["SuccinctEdge"].store
    baseline = loaded_systems["RDF4J"]
    query = (
        "PREFIX lubm: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>\n"
        "SELECT ?x WHERE { ?x a lubm:GraduateStudent }"
    )
    dedicated = measure_best_of(lambda: succinct.query(query, reasoning=False), repetitions=3)
    generic = measure_best_of(lambda: baseline.query(query, reasoning=False), repetitions=3)
    assert dedicated.result.to_set() == generic.result.to_set()
    table = format_table(
        "Ablation: rdf:type access path",
        ["rdf:type lookup"],
        {
            "SuccinctEdge RDFType store": [dedicated.total_ms],
            "Generic multi-index scan": [generic.total_ms],
        },
        unit="ms",
    )
    record_table(results_dir, "ablation_rdftype_store", table)
    benchmark.pedantic(lambda: succinct.query(query, reasoning=False), rounds=3, iterations=1)
