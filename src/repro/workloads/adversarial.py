"""Adversarial property-path workloads: the shapes that break closure engines.

The differential suites prove path correctness on small graphs; this module
generates the *performance* counterexamples — graph shapes chosen so that a
naive closure evaluator does asymptotically more work than the id-level
semi-naive BFS of :mod:`repro.query.paths`:

* **long chains** — ``chain0 →next→ chain1 → …`` closed into one giant
  cycle: the fixpoint needs exactly one pass per depth level, and a
  frontier that forgets the visited set re-walks the whole ring forever;
* **high-fanout hubs** — two hub tiers with full fanout between them:
  ``link+`` from a hub reaches everything in two steps, but every frontier
  holds hundreds of ids, so probe-vs-scan selection is what keeps the
  kernel-call count flat;
* **deep hierarchies** — a complete concept tree plus a ``partOf`` edge
  forest following it: ``partOf+`` roll-ups traverse depth-proportional
  frontiers over LiteMat-clustered ids.

Everything is deterministic (no RNG), so the benchmark tables and the CI
smoke run measure the same workload every time.  Scale knobs are plain
constructor arguments; :func:`scaled_workload` maps the benchmark harness's
``REPRO_BENCH_SCALE`` profiles onto them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.rdf.graph import Graph
from repro.rdf.namespaces import RDF, RDFS, Namespace
from repro.rdf.terms import Literal, Triple

#: Namespace of every generated term.
ADV = Namespace("http://adversarial.succinct-edge.example/")

PREFIX = (
    f"PREFIX adv: <{ADV.prefix}>\n"
    "PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>\n"
)


@dataclass(frozen=True)
class PathQuery:
    """One adversarial path query: identifier, scenario and SPARQL text."""

    identifier: str
    description: str
    sparql: str


class AdversarialPathWorkload:
    """Deterministic generator of chain / hub / hierarchy path stress graphs."""

    def __init__(
        self,
        chain_length: int = 200,
        hub_fanout: int = 64,
        hierarchy_depth: int = 5,
        hierarchy_branching: int = 2,
    ) -> None:
        self.chain_length = max(4, chain_length)
        self.hub_fanout = max(4, hub_fanout)
        self.hierarchy_depth = max(2, hierarchy_depth)
        self.hierarchy_branching = max(2, hierarchy_branching)
        self._graph: Optional[Graph] = None  # built lazily with the ontology
        self._ontology: Optional[Graph] = None
        self._concept_levels: List[List] = []

    # -- generation ------------------------------------------------------ #

    def graph(self) -> Graph:
        """The data graph (built once, then cached)."""
        if self._graph is None:
            self._build()
        return self._graph

    def ontology(self) -> Graph:
        """The concept/property hierarchy axioms (built with the graph)."""
        if self._ontology is None:
            self._build()
        return self._ontology

    def _build(self) -> None:
        data = Graph()
        ontology = Graph()

        # Long chain, closed into a ring; every 10th node carries a label so
        # closure-into-literal sequences have work at every depth.
        n = self.chain_length
        for index in range(n):
            data.add(Triple(ADV[f"chain{index}"], ADV.next, ADV[f"chain{(index + 1) % n}"]))
            if index % 10 == 0:
                data.add(Triple(ADV[f"chain{index}"], ADV.label, Literal(f"chain{index}")))
        # A sparse skip-link every 7th node gives alternations real choices.
        for index in range(0, n, 7):
            data.add(Triple(ADV[f"chain{index}"], ADV.skip, ADV[f"chain{(index + 13) % n}"]))

        # Two hub tiers with full fanout: tier1 → spokes → tier2 → tier1
        # (a dense 3-partite cycle; ``link+`` from any hub reaches all).
        fanout = self.hub_fanout
        for index in range(fanout):
            data.add(Triple(ADV.hubA, ADV.link, ADV[f"spoke{index}"]))
            data.add(Triple(ADV[f"spoke{index}"], ADV.link, ADV.hubB))
        data.add(Triple(ADV.hubB, ADV.link, ADV.hubA))

        # Complete concept tree + a partOf forest of instances shadowing it.
        levels = [[ADV["node0"]]]
        data.add(Triple(ADV["node0"], RDF.type, ADV["Level0"]))
        counter = 1
        concept_levels = [[ADV["Level0"]]]
        for depth in range(1, self.hierarchy_depth):
            concept = ADV[f"Level{depth}"]
            ontology.add(Triple(concept, RDFS.subClassOf, ADV[f"Level{depth - 1}"]))
            concept_levels.append([concept])
            level = []
            for parent in levels[-1]:
                for _ in range(self.hierarchy_branching):
                    node = ADV[f"node{counter}"]
                    counter += 1
                    data.add(Triple(node, ADV.partOf, parent))
                    data.add(Triple(node, RDF.type, concept))
                    level.append(node)
            levels.append(level)
        ontology.add(Triple(ADV.skip, RDFS.subPropertyOf, ADV.next))

        self._graph = data
        self._ontology = ontology
        self._concept_levels = concept_levels

    # -- the query set --------------------------------------------------- #

    def queries(self) -> List[PathQuery]:
        """The adversarial query set, worst shapes first."""
        deepest = f"Level{self.hierarchy_depth - 1}"
        return [
            PathQuery(
                "chain-closure-bound",
                f"ring walk: one source, {self.chain_length}-cycle of next+",
                PREFIX + "SELECT ?o WHERE { adv:chain0 adv:next+ ?o }",
            ),
            PathQuery(
                "chain-closure-unbound",
                "all-pairs next+ over the ring (quadratic result, linear frontier)",
                PREFIX + "SELECT ?s ?o WHERE { ?s adv:next+ ?o }",
            ),
            PathQuery(
                "chain-star-diagonal",
                "?x next* ?x — every chain node matches itself",
                PREFIX + "SELECT ?x WHERE { ?x adv:next* ?x }",
            ),
            PathQuery(
                "chain-alt-closure",
                "closure over an alternation (next|skip)+ — id-steppable union",
                PREFIX + "SELECT ?o WHERE { adv:chain0 (adv:next|adv:skip)+ ?o }",
            ),
            PathQuery(
                "chain-closure-literal",
                "next+/label — closure frontier draining into the datatype layout",
                PREFIX + "SELECT ?l WHERE { adv:chain0 adv:next+/adv:label ?l }",
            ),
            PathQuery(
                "hub-fanout-closure",
                f"link+ from hubA across {self.hub_fanout}-wide frontiers",
                PREFIX + "SELECT ?o WHERE { adv:hubA adv:link+ ?o }",
            ),
            PathQuery(
                "hub-inverse-closure",
                "(^link)+ into hubB — inverse frontiers at full fanout",
                PREFIX + "SELECT ?s WHERE { ?s (^adv:link)+ adv:hubB }",
            ),
            PathQuery(
                "hierarchy-rollup",
                f"partOf+ roll-up from the depth-{self.hierarchy_depth} leaves",
                PREFIX + "SELECT ?part WHERE { ?part adv:partOf+ adv:node0 }",
            ),
            PathQuery(
                "hierarchy-typed-rollup",
                "typed leaves to their ancestors: rdf:type join + partOf+",
                PREFIX
                + "SELECT ?part ?whole WHERE { "
                + f"?part rdf:type adv:{deepest} . ?part adv:partOf+ ?whole }}",
            ),
            PathQuery(
                "nps-sweep",
                "negated set over the whole graph (full stored-predicate scan)",
                PREFIX + "SELECT ?s ?o WHERE { ?s !(adv:label|rdf:type) ?o }",
            ),
        ]


def scaled_workload(scale: str = "medium") -> AdversarialPathWorkload:
    """The workload at a benchmark-harness scale profile (small/medium/full)."""
    profiles = {
        "small": dict(chain_length=60, hub_fanout=24, hierarchy_depth=4, hierarchy_branching=2),
        "medium": dict(chain_length=200, hub_fanout=64, hierarchy_depth=5, hierarchy_branching=2),
        "full": dict(chain_length=500, hub_fanout=128, hierarchy_depth=6, hierarchy_branching=2),
    }
    return AdversarialPathWorkload(**profiles.get(scale, profiles["medium"]))
