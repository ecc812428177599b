"""Reference vulnerability measures by exhaustive single-edit search.

Each candidate edit builds the edited graph through the transforms and
reruns the all-pairs closeness. This is the definition, written as
plainly as possible, that the incremental engine in
``closegraph.vulnerability`` must reproduce report for report.

``additional_by_sorted_bounds`` is the reference for the order of the
engine's addition search rather than for its result: the per-source
bound of every candidate, sorted.
"""

from __future__ import annotations

from closegraph.dyadic import Dyadic
from closegraph.graph import Graph, graph_closeness
from closegraph.transforms import add_edge, delete_edge, delete_vertex
from closegraph.vulnerability import VulnerabilityReport, _Balls, _optimum


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
