"""Reference closeness by one breadth-first search per source.

This is the all-pairs kernel that ``closegraph.graph.graph_closeness``
used before the multi-source bitset BFS: ``vertex_closeness`` (one BFS)
for every vertex, summed as Dyadics. The fast kernel must reproduce its
per-vertex values and total exactly.
"""

from __future__ import annotations

from closegraph.dyadic import Dyadic
from closegraph.graph import ClosenessReport, Graph, vertex_closeness


def graph_closeness(g: Graph) -> ClosenessReport:
    per = [vertex_closeness(g, i) for i in range(g.order)]
    total = Dyadic(0)
    for c in per:
        total = total + c
    return ClosenessReport(per_vertex=per, total=total)
