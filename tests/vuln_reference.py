"""Reference vulnerability measures by exhaustive single-edit search.

Each candidate edit builds the edited graph through the transforms and
reruns the all-pairs closeness, one BFS per source
(``closeness_reference``), so no bitset traversal of the engine's
``graph._levels`` runs on this side. This is the definition, written as
plainly as possible, that the incremental engine in
``closegraph.vulnerability`` must reproduce report for report.

``additional_by_sorted_bounds`` is the reference for the order of the
engine's addition search rather than for its result: the per-source
bound of every candidate, sorted.

``edge_rest``, ``vertex_rest`` and ``bound_with_edge`` are per-edit
rules written on distance rows from one BFS per source, which the engine
reads off bitsets instead: the hit sources of a deletion that are rerun,
and a per-source bound of an addition that the engine's tighter one must
not exceed.
"""

from __future__ import annotations

from closegraph.dyadic import Dyadic
from closegraph.graph import Graph, bfs_distances
from closegraph.transforms import add_edge, delete_edge, delete_vertex
from closegraph.vulnerability import VulnerabilityReport, _Balls, _optimum

from closeness_reference import graph_closeness


def link_residual(g: Graph) -> VulnerabilityReport:
    edges = list(g.edges())
    if not edges:
        raise ValueError("link residual closeness needs at least one edge")
    baseline = graph_closeness(g).total
    best: Dyadic | None = None
    witnesses: list[tuple[int, int]] = []
    for u, v in edges:
        total = graph_closeness(delete_edge(g, u, v)).total
        if best is None or total < best:
            best, witnesses = total, [(u, v)]
        elif total == best:
            witnesses.append((u, v))
    return VulnerabilityReport("link_residual", baseline, best, sorted(witnesses))


def vertex_residual(g: Graph) -> VulnerabilityReport:
    if g.order < 1:
        raise ValueError("vertex residual closeness needs at least one vertex")
    baseline = graph_closeness(g).total
    best: Dyadic | None = None
    witnesses: list[int] = []
    for v in range(g.order):
        reduced, _ = delete_vertex(g, v)
        total = graph_closeness(reduced).total
        if best is None or total < best:
            best, witnesses = total, [v]
        elif total == best:
            witnesses.append(v)
    return VulnerabilityReport("vertex_residual", baseline, best, witnesses)


def additional_closeness(g: Graph) -> VulnerabilityReport:
    candidates = [
        (u, v)
        for u in range(g.order)
        for v in range(u + 1, g.order)
        if not g.has_edge(u, v)
    ]
    if not candidates:
        raise ValueError("no non-edge exists: graph is complete")
    baseline = graph_closeness(g).total
    best: Dyadic | None = None
    witnesses: list[tuple[int, int]] = []
    for u, v in candidates:
        total = graph_closeness(add_edge(g, u, v)).total
        if best is None or total > best:
            best, witnesses = total, [(u, v)]
        elif total == best:
            witnesses.append((u, v))
    return VulnerabilityReport("additional", baseline, best, witnesses)


def additional_by_sorted_bounds(g: Graph) -> VulnerabilityReport:
    """Additional closeness by bound and prune without the product bound:
    the per-source bound of every non-edge, sorted descending (a stable
    sort, so ties keep pair order), and exact totals in that order until
    the first bound strictly below the best total."""
    n = g.order
    if g.edge_count == n * (n - 1) // 2:
        raise ValueError("no non-edge exists: graph is complete")
    b = _Balls(g)
    candidates = [(u, v) for u in range(n) for v in range(u + 1, n) if not g.has_edge(u, v)]
    bounds = [b.bound_with_edge(u, v) for u, v in candidates]
    best, totals = -1, {}
    for i in sorted(range(len(candidates)), key=bounds.__getitem__, reverse=True):
        if bounds[i] < best:
            break  # so is every later bound
        totals[candidates[i]] = t = b.total_with_edge(*candidates[i])
        best = max(best, t)
    report = _optimum("additional", b, dict(sorted(totals.items())), max, len(candidates))
    report.bounded = len(candidates)
    return report


def distances(g: Graph) -> list[list[int]]:
    """d(s, t) for every pair, with ``order + 1`` for an unreachable t, so
    that exactly one unreachable endpoint always differs from the other
    by at least 2."""
    far = g.order + 1
    return [[d if d >= 0 else far for d in bfs_distances(g, s)] for s in range(g.order)]


def _only_parent(g: Graph, row: list[int], near: int, far: int) -> bool:
    """Whether near is far's only neighbour one level nearer to the
    source whose distances are row."""
    return [w for w in g.adj[far] if row[w] < row[far]] == [near]


def edge_rest(g: Graph, dist, u: int, v: int) -> list[int]:
    """The hit sources of deleting the edge (u, v) that are rerun: those
    for which one endpoint is the other's only parent, on the smaller of
    the two sides (u's on a tie)."""
    sides: tuple[list[int], list[int]] = ([], [])
    for s, row in enumerate(dist):
        a, b = row[u], row[v]
        if a != b:
            near, far = (u, v) if a < b else (v, u)
            if _only_parent(g, row, near, far):
                sides[a > b].append(s)
    return min(sides, key=len)


def vertex_rest(g: Graph, dist, x: int) -> tuple[list[int], bool]:
    """The hit sources of deleting the vertex x that are rerun, and whether
    they are all of them. A source other than x is hit when x is the only
    parent of some neighbour of x. The entry groups, one per neighbour w
    of x, hold the hit sources for which w is one level nearer than x.
    The rest is every hit source outside the largest group (the first on
    ties) when it is empty or one group holds it, and every hit source
    otherwise."""
    hit = [
        s for s, row in enumerate(dist)
        if s != x and row[x] <= g.order
        and any(row[w] == row[x] + 1 and _only_parent(g, row, x, w) for w in g.adj[x])
    ]
    groups = [{s for s in hit if dist[s][w] < dist[s][x]} for w in g.adj[x]]
    largest = max(groups, key=len, default=set())
    rest = [s for s in hit if s not in largest]
    if not rest or any(set(rest) <= group for group in groups):
        return rest, False
    return hit, True


def bound_with_edge(g: Graph, dist, u: int, v: int) -> int:
    """The per-source bound on the closeness numerator, over
    ``2**(order - 1)``, after adding the edge (u, v): a source s at a from
    near and past a + 1 from far gains at most ``reach_far >> (a + 1)``,
    where ``reach_far`` is 1 plus the closeness of far over the same
    power of two."""
    top = max(g.order - 1, 0)
    nums = [sum(1 << (top - d) for d in row if 0 < d <= top) for row in dist]
    reach_u, reach_v = (1 << top) + nums[u], (1 << top) + nums[v]
    bound = sum(nums)
    for row in dist:
        a, b = row[u], row[v]
        if a + 1 < b:
            bound += reach_v >> (a + 1)
        elif b + 1 < a:
            bound += reach_u >> (b + 1)
    return bound
