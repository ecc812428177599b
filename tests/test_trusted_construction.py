"""The transforms and generators build their adjacency lists themselves,
without Graph.from_edges. Each graph they build must be exactly the one
from_edges builds from its edges and labels, with sorted, symmetric,
loop-free adjacency, and no graph they are given may change. The clique
cover that line_graph attaches must reproduce the line graph's adjacency,
and no other builder may attach one.
"""

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from closegraph import verify
from closegraph.formulas import BRIDGED_CASES
from closegraph.generators import (
    FAMILIES,
    MINIMA,
    FamilySpec,
    gen_random_connected,
    generate,
)
from closegraph.graph import Graph, format_edgelist, parse_edgelist
from closegraph.transforms import (
    add_edge,
    bridge_join,
    coalesce_join,
    delete_edge,
    delete_vertex,
    line_graph,
    shadow,
)

from strategies import (
    any_graph,
    complete,
    complete_minus_edge,
    cycle,
    even_cycle_with_chord,
    shuffled,
    spider,
    theta,
    tree,
)


def assert_built_as_from_edges(g):
    for v, nbrs in enumerate(g.adj):
        assert nbrs == sorted(set(nbrs)), f"vertex {v}: {nbrs} not sorted and distinct"
        assert v not in nbrs, f"self-loop at {v}"
        assert all(v in g.adj[w] for w in nbrs), f"vertex {v}: {nbrs} not symmetric"
    rebuilt = Graph.from_edges(g.order, list(g.edges()), g.labels)
    assert rebuilt == g
    assert rebuilt.labels == g.labels


def assert_cover_reproduces_adjacency(g, lg):
    """lg = line_graph(g): its cliques are the stars of g of four edges or
    more, in vertex order, each pairwise adjacent, and v's scan list is
    its other neighbours, sorted, then its cliques' hub slots. So v's
    adjacency is its scanned neighbours plus its cliques' members, less
    v."""
    n, edges = lg.order, list(g.edges())
    stars = [[k for k, e in enumerate(edges) if x in e] for x in range(g.order)]
    stars = [star for star in stars if len(star) >= 4]
    if not stars:
        assert lg._cover is None
        return
    cliques, scan = lg._cover
    assert cliques == stars
    for members in cliques:
        for i, v in enumerate(members):
            assert all(w in lg.adj[v] for w in members[i + 1 :])
    for v in range(n):
        hubs = [n + c for c, members in enumerate(cliques) if v in members]
        direct = [w for w in scan[v] if w < n]
        assert scan[v] == direct + hubs and direct == sorted(direct)
        through = [w for h in hubs for w in cliques[h - n] if w != v]
        assert sorted(direct + through) == lg.adj[v], f"vertex {v}"


def snapshot(*graphs):
    return copy.deepcopy([(g.order, g.adj, g.labels) for g in graphs])


@st.composite
def random_connected(draw):
    order = draw(st.integers(min_value=1, max_value=12))
    budget = draw(st.integers(min_value=order - 1, max_value=order * (order - 1) // 2))
    return gen_random_connected(order, budget, draw(st.integers(min_value=0, max_value=2**32 - 1)))


@st.composite
def family_graph(draw):
    fam = draw(st.sampled_from(FAMILIES))
    lo1, lo2 = MINIMA[fam]
    p1 = draw(st.integers(min_value=lo1, max_value=lo1 + 5))
    p2 = None if lo2 is None else draw(st.integers(min_value=lo2, max_value=lo2 + 5))
    return generate(FamilySpec(fam, p1, p2))


SHAPES = shuffled(
    st.one_of(
        any_graph(), tree(), cycle(), complete_minus_edge(), spider(), theta(),
        even_cycle_with_chord(), complete(),
    )
)
GRAPHS = st.one_of(SHAPES, family_graph(), random_connected())


@pytest.mark.parametrize("fam", FAMILIES)
def test_every_family_builds_what_from_edges_builds(fam):
    lo1, lo2 = MINIMA[fam]
    for p1 in range(lo1, lo1 + 8):
        for p2 in [None] if lo2 is None else range(lo2, lo2 + 6):
            assert_built_as_from_edges(generate(FamilySpec(fam, p1, p2)))


@settings(max_examples=100, deadline=None)
@given(random_connected())
def test_random_connected_builds_what_from_edges_builds(g):
    assert_built_as_from_edges(g)


@settings(max_examples=200, deadline=None)
@given(g1=GRAPHS, g2=GRAPHS, data=st.data())
def test_transforms_build_what_from_edges_builds(g1, g2, data):
    before = snapshot(g1, g2)
    built = [shadow(g1)[0], line_graph(g1)[0]]
    if g1.order and g2.order:
        p = data.draw(st.integers(min_value=0, max_value=g1.order - 1))
        q = data.draw(st.integers(min_value=0, max_value=g2.order - 1))
        for join in (bridge_join, coalesce_join):
            built += [join(g1, p, g2, q)[0], join(g1, p, g1, p)[0]]
    for g in built:
        assert_built_as_from_edges(g)
    assert snapshot(g1, g2) == before


def test_transforms_of_built_graphs_leave_them_unchanged():
    g = generate(FamilySpec("lollipop", 4, 3))
    built = [g, *(t(g)[0] for t in (shadow, line_graph))]
    built += [join(h, 0, h, h.order - 1)[0] for h in built for join in (bridge_join, coalesce_join)]
    before = snapshot(*built)
    for h in built:
        for t in (shadow, line_graph):
            assert_built_as_from_edges(t(h)[0])
        for join in (bridge_join, coalesce_join):
            assert_built_as_from_edges(join(h, h.order - 1, g, 0)[0])
    assert snapshot(*built) == before


def _capture(monkeypatch, name, built):
    """Wrap the transform verify imported as name so that every graph it
    takes or builds lands in built."""
    transform = getattr(verify, name)

    def capturing(g):
        result = transform(g)
        built.extend((g, result[0]))
        return result

    monkeypatch.setattr(verify, name, capturing)


@pytest.mark.parametrize(
    "task",
    [(verify._bridged, case, n) for case, (*_, lo) in BRIDGED_CASES.items() for n in (lo, lo + 3)]
    + [(verify._shadow_mindeg, i, verify.DEFAULT_SEED, 12) for i in range(6)],
    ids=lambda task: "-".join([task[0].__name__, *map(str, task[1:])]),
)
def test_sweep_checks_build_what_from_edges_builds(monkeypatch, task):
    built = []
    _capture(monkeypatch, "line_graph", built)
    _capture(monkeypatch, "shadow", built)
    records = verify._eval_task(task)
    assert built and records and all(r.passed for r in records)
    for g in built:
        assert_built_as_from_edges(g)


@settings(max_examples=200, deadline=None)
@given(GRAPHS)
def test_line_graph_cover_reproduces_its_adjacency(g):
    assert_cover_reproduces_adjacency(g, line_graph(g)[0])


@pytest.mark.parametrize("leaves", [3, 4])
def test_only_stars_of_four_edges_or_more_are_cliques(leaves):
    """A star of 3 edges stays in the scanned lists; one of 4 is a clique."""
    g = generate(FamilySpec("star", leaves + 1))
    lg = line_graph(g)[0]
    assert (lg._cover is None) == (leaves == 3)
    assert_cover_reproduces_adjacency(g, lg)


@settings(max_examples=100, deadline=None)
@given(g=GRAPHS, data=st.data())
def test_no_other_builder_attaches_a_cover(g, data):
    """Generators, from_edges, the edge-list reader, and shadow, joins and
    edits applied to a line graph that carries a cover."""
    lg = line_graph(generate(FamilySpec("lollipop", 5, 2)))[0]
    assert lg._cover is not None and g._cover is None
    built = [
        shadow(lg)[0],
        parse_edgelist(format_edgelist(lg)),
        Graph.from_edges(lg.order, list(lg.edges())),
        delete_vertex(lg, data.draw(st.integers(min_value=0, max_value=lg.order - 1)))[0],
    ]
    u, v = data.draw(st.sampled_from(list(lg.edges())))
    built += [delete_edge(lg, u, v), add_edge(delete_edge(lg, u, v), u, v)]
    if g.order:
        q = data.draw(st.integers(min_value=0, max_value=g.order - 1))
        p = data.draw(st.integers(min_value=0, max_value=lg.order - 1))
        for join in (bridge_join, coalesce_join):
            built += [join(lg, p, g, q)[0], join(g, q, lg, p)[0], join(lg, p, lg, p)[0]]
    assert all(h._cover is None for h in built)
