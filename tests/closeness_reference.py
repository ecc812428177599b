"""Reference closeness by one breadth-first search per source.

This is the all-pairs kernel that ``closegraph.graph.graph_closeness``
used before the multi-source bitset BFS: ``vertex_closeness`` (one BFS)
for every vertex, summed as Dyadics. The fast kernel must reproduce its
per-vertex values and total exactly. ``line_closeness`` is the same BFS
on the built line graph, which ``closegraph.graph._line_closeness``
reads off the root graph instead.
"""

from __future__ import annotations

from closegraph.dyadic import Dyadic
from closegraph.graph import ClosenessReport, Graph, vertex_closeness
from closegraph.transforms import line_graph


def graph_closeness(g: Graph) -> ClosenessReport:
    per = [vertex_closeness(g, i) for i in range(g.order)]
    total = Dyadic(0)
    for c in per:
        total = total + c
    return ClosenessReport(per_vertex=per, total=total)


def line_closeness(g: Graph, picks=()) -> tuple[Dyadic, list[Dyadic]]:
    """graph._line_closeness(g, picks): the total closeness of line_graph(g)
    and the closeness of the line vertex of each edge in picks."""
    lg, origins = line_graph(g)
    report = graph_closeness(lg)
    index = {o.source: k for k, o in enumerate(origins)}
    return report.total, [report.per_vertex[index[f]] for f in picks]
