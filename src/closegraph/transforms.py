"""Graph operations: shadow graph, line graph, bridge join, coalescence,
and single edge/vertex edits.

The structural transforms also return an origin table: one record per
result vertex saying where it came from, so formula cross-checks can
locate, say, the vertex of a line graph that corresponds to a pendant
bridge edge.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul

from .graph import Graph

__all__ = [
    "Origin",
    "shadow",
    "line_graph",
    "bridge_join",
    "coalesce_join",
    "delete_edge",
    "delete_vertex",
    "add_edge",
]

# Most edges line_graph builds, about 17 B each. The line graph of a
# star is complete, so L(S_100000) would take about 85 GB; the sweep
# builds no line graph, so this bounds `closegraph transform line`.
MAX_LINE_EDGES = 1 << 20


@dataclass(frozen=True)
class Origin:
    """Provenance of one vertex of a transformed graph.

    kind is one of "copy0"/"copy1" (shadow), "edge" (line graph, source
    is the endpoint pair of the original edge), "left"/"right" (joins),
    or "merged" (coalescence, source is the merged (p, q) pair).
    """

    kind: str
    source: int | tuple[int, int]

    def to_json(self):
        src = list(self.source) if isinstance(self.source, tuple) else self.source
        return [self.kind, src]


def shadow(g: Graph) -> tuple[Graph, list[Origin]]:
    """Two copies of g; each original edge (u, v) induces the four edges
    (u', v'), (u', v"), (u", v'), (u", v"). Corresponding copies of a
    vertex are never adjacent. Order doubles.
    """
    n = g.order
    # both copies of u share one list: N(u), then the copies of N(u)
    adj = [nbrs + [n + w for w in nbrs] for nbrs in g.adj]
    adj += adj
    labels = [lab + "'" for lab in g.labels] + [lab + '"' for lab in g.labels]
    origins = [Origin("copy0", i) for i in range(n)] + [
        Origin("copy1", i) for i in range(n)
    ]
    return Graph(2 * n, adj, labels), origins


def line_graph(g: Graph) -> tuple[Graph, list[Origin]]:
    """Edge-to-vertex dual: one vertex per edge of g, adjacent iff the
    edges share an endpoint. Vertices are ordered by their (u, v)
    endpoint pair, u < v, lexicographically. The sweep reads line graphs'
    closeness off g (graph._line_closeness) and builds none.

    Raises ValueError, before building anything, when the line graph
    would have more than MAX_LINE_EDGES edges.
    """
    degrees = list(map(len, g.adj))
    size = (sum(map(mul, degrees, degrees)) - sum(degrees)) // 2  # Σ deg (deg - 1) / 2
    if size > MAX_LINE_EDGES:
        raise ValueError(
            f"line graph would have {size} edges, more than the limit of {MAX_LINE_EDGES}"
        )
    edge_list = list(g.edges())
    inc = [[] for _ in range(g.order)]  # the edges at each vertex, sorted
    for k, (u, v) in enumerate(edge_list):
        inc[u].append(k)
        inc[v].append(k)
    # edge (u, v) meets the edges at u and v; two edges of a simple graph
    # share at most one vertex, so only the edge itself is listed twice
    ladj = [sorted(inc[u] + inc[v]) for u, v in edge_list]
    for k, nbrs in enumerate(ladj):
        i = nbrs.index(k)
        del nbrs[i : i + 2]
    labels = [f"({g.labels[u]},{g.labels[v]})" for u, v in edge_list]
    origins = [Origin("edge", e) for e in edge_list]
    return Graph(len(edge_list), ladj, labels), origins


def _check_join_vertices(g1: Graph, p: int, g2: Graph, q: int) -> None:
    for side, g, v in (("left", g1, p), ("right", g2, q)):
        if not 0 <= v < g.order:
            raise IndexError(f"vertex {v} out of range for {side} graph of order {g.order}")


def bridge_join(g1: Graph, p: int, g2: Graph, q: int) -> tuple[Graph, list[Origin]]:
    """Disjoint union of g1 and g2 plus the single edge (p, q').

    g1 keeps its indices; g2's vertex j becomes |g1| + j.
    """
    _check_join_vertices(g1, p, g2, q)
    n1 = g1.order
    # g1's lists but p's are shared; g1's indices are below g2's
    adj = [*g1.adj, *([n1 + w for w in nbrs] for nbrs in g2.adj)]
    adj[p] = [*g1.adj[p], n1 + q]
    adj[n1 + q].insert(0, p)
    labels = list(g1.labels) + list(g2.labels)
    origins = [Origin("left", i) for i in range(n1)] + [
        Origin("right", j) for j in range(g2.order)
    ]
    return Graph(n1 + g2.order, adj, labels), origins


def coalesce_join(g1: Graph, p: int, g2: Graph, q: int) -> tuple[Graph, list[Origin]]:
    """Disjoint union with p and q merged into one vertex adjacent to
    N(p) union N(q). The merged vertex keeps p's index; g2's remaining
    vertices follow g1's in their original order.
    """
    _check_join_vertices(g1, p, g2, q)
    n1 = g1.order
    # g2's vertices after q move down one place, into the gap q leaves
    remap = [n1 + j - (j > q) for j in range(g2.order)]
    remap[q] = p
    # g1's lists but p's are shared; N(q) maps above N(p)
    adj = [*g1.adj, *(sorted(map(remap.__getitem__, nbrs)) for nbrs in g2.adj)]
    adj[p] = [*g1.adj[p], *adj.pop(n1 + q)]
    labels = list(g1.labels) + [g2.labels[j] for j in range(g2.order) if j != q]
    labels[p] = f"{g1.labels[p]}+{g2.labels[q]}"
    origins = [
        Origin("merged", (p, q)) if i == p else Origin("left", i) for i in range(n1)
    ]
    origins.extend(Origin("right", j) for j in range(g2.order) if j != q)
    return Graph(n1 + g2.order - 1, adj, labels), origins


def delete_edge(g: Graph, u: int, v: int) -> Graph:
    """Remove the edge (u, v); it must be present."""
    if not g.has_edge(u, v):
        raise ValueError(f"edge ({u}, {v}) not present")
    key = (min(u, v), max(u, v))
    edges = [e for e in g.edges() if e != key]
    return Graph.from_edges(g.order, edges, g.labels)


def add_edge(g: Graph, u: int, v: int) -> Graph:
    """Add the edge (u, v); endpoints must be distinct and non-adjacent."""
    if g.has_edge(u, v):
        raise ValueError(f"edge ({u}, {v}) already present")
    edges = list(g.edges())
    edges.append((u, v))
    return Graph.from_edges(g.order, edges, g.labels)


def delete_vertex(g: Graph, v: int) -> tuple[Graph, list[int]]:
    """Remove v and its incident edges, re-densifying indices.

    Returns the new graph and a mapping new index -> old index.
    """
    if not (0 <= v < g.order):
        raise ValueError(f"vertex {v} out of range for order {g.order}")
    keep = [i for i in range(g.order) if i != v]
    new_index = {old: new for new, old in enumerate(keep)}
    edges = [
        (new_index[a], new_index[b]) for a, b in g.edges() if a != v and b != v
    ]
    labels = [g.labels[i] for i in keep]
    return Graph.from_edges(g.order - 1, edges, labels), keep
