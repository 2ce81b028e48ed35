"""Query graph construction (paper Section 5.1, Figure 6).

Each triple pattern of the basic graph pattern becomes a node; two nodes are
connected when they share a variable, and the edge is labelled with the join
type derived from the positions of the shared variable (SS, SO/OS, OO, plus
the rarer SP/OP/PP combinations).  The planner reads the edges to flag
cross products and to label each join step in EXPLAIN.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Set, Tuple

from repro.sparql.ast import TriplePattern, Variable


@dataclass
class QueryNode:
    """One triple pattern of the query graph."""

    index: int
    pattern: TriplePattern

    @property
    def is_rdf_type(self) -> bool:
        """Whether the node's predicate is ``rdf:type``."""
        return self.pattern.is_rdf_type

    def variable_positions(self) -> Dict[str, List[str]]:
        """Map variable name -> positions (``s``/``p``/``o``) where it occurs."""
        positions: Dict[str, List[str]] = {}
        for slot_name, slot in (
            ("s", self.pattern.subject),
            ("p", self.pattern.predicate),
            ("o", self.pattern.object),
        ):
            if isinstance(slot, Variable):
                positions.setdefault(slot.name, []).append(slot_name)
        return positions

    def __repr__(self) -> str:
        return f"QueryNode(tp{self.index + 1}: {self.pattern})"


@dataclass(frozen=True)
class JoinEdge:
    """An edge of the query graph: two nodes joined through shared variables.

    ``join_types`` holds one label per shared variable, e.g. ``"SS"`` when the
    variable is the subject of both patterns, ``"SO"`` when it is the subject
    of ``left`` and the object of ``right``.
    """

    left: int
    right: int
    variables: Tuple[str, ...]
    join_types: Tuple[str, ...]

    def involves(self, node_index: int) -> bool:
        """Whether the edge touches ``node_index``."""
        return node_index in (self.left, self.right)

    def other(self, node_index: int) -> int:
        """The endpoint opposite to ``node_index``."""
        if node_index == self.left:
            return self.right
        if node_index == self.right:
            return self.left
        raise ValueError(f"edge {self} does not involve node {node_index}")


@dataclass
class QueryGraph:
    """The query graph of a basic graph pattern."""

    nodes: List[QueryNode] = field(default_factory=list)
    edges: List[JoinEdge] = field(default_factory=list)

    @classmethod
    def from_patterns(cls, patterns: Sequence[TriplePattern]) -> "QueryGraph":
        """Build the graph from the triple patterns of a BGP."""
        nodes = [QueryNode(index=i, pattern=pattern) for i, pattern in enumerate(patterns)]
        edges: List[JoinEdge] = []
        for i in range(len(nodes)):
            positions_i = nodes[i].variable_positions()
            for j in range(i + 1, len(nodes)):
                positions_j = nodes[j].variable_positions()
                shared = sorted(set(positions_i) & set(positions_j))
                if not shared:
                    continue
                labels: List[str] = []
                for name in shared:
                    for pos_i in positions_i[name]:
                        for pos_j in positions_j[name]:
                            labels.append(f"{pos_i.upper()}{pos_j.upper()}")
                edges.append(
                    JoinEdge(
                        left=i,
                        right=j,
                        variables=tuple(shared),
                        join_types=tuple(labels),
                    )
                )
        return cls(nodes=nodes, edges=edges)

    def __len__(self) -> int:
        return len(self.nodes)

    def edges_between(self, done: Set[int], candidate: int) -> List[JoinEdge]:
        """Edges linking ``candidate`` to any node already in ``done``."""
        return [
            edge
            for edge in self.edges
            if edge.involves(candidate) and edge.other(candidate) in done
        ]
