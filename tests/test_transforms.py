"""Graph operations: shadow, line graph, joins, edits, origin tables."""

import re

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from closegraph import transforms
from closegraph.dyadic import Dyadic
from closegraph.generators import FamilySpec, gen_random_connected, generate
from closegraph.graph import bfs_distances, graph_closeness
from closegraph.transforms import (
    add_edge,
    bridge_join,
    coalesce_join,
    delete_edge,
    delete_vertex,
    line_graph,
    shadow,
)
from closegraph.verify import parse_window

from conftest import build, to_networkx
from strategies import any_graph, complete_minus_edge, cycle, shuffled, tree


def degree_sequence(g):
    return sorted((g.degree(v) for v in range(g.order)), reverse=True)


def is_connected(g):
    return g.order == 0 or all(d >= 0 for d in bfs_distances(g, 0))


# --- shadow ---------------------------------------------------------------

def test_shadow_single_edge_is_4_cycle():
    g = generate(FamilySpec("path", 2))
    s, origins = shadow(g)
    assert s.order == 4 and s.edge_count == 4
    assert degree_sequence(s) == [2, 2, 2, 2]
    assert is_connected(s)
    assert [o.kind for o in origins] == ["copy0", "copy0", "copy1", "copy1"]


def test_shadow_p5_matches_figure():
    s, _ = shadow(generate(FamilySpec("path", 5)))
    assert s.order == 10 and s.edge_count == 16
    assert graph_closeness(s).total == Dyadic(27)


def test_shadow_edgeless():
    s, _ = shadow(build(3, []))
    assert s.order == 6 and s.edge_count == 0


def test_shadow_copies_never_adjacent():
    g = gen_random_connected(8, 15, seed=2)
    s, _ = shadow(g)
    for v in range(g.order):
        assert not s.has_edge(v, g.order + v)


def test_shadow_copy_distance_two_when_degree_positive():
    g = gen_random_connected(9, 12, seed=6)
    s, _ = shadow(g)
    for v in range(g.order):
        assert bfs_distances(s, v)[g.order + v] == 2


def test_shadow_closeness_rule_on_connected_graphs():
    for seed in range(6):
        g = gen_random_connected(2 + seed, 1 + seed + seed // 2, seed=seed)
        s, _ = shadow(g)
        expected = Dyadic(4) * graph_closeness(g).total + Dyadic(g.order, 1)
        assert graph_closeness(s).total == expected


def test_shadow_labels_mark_copies():
    s, _ = shadow(generate(FamilySpec("path", 2)))
    assert s.labels == ["P:0'", "P:1'", 'P:0"', 'P:1"']


# --- line graph -----------------------------------------------------------

def test_line_of_cycle_is_same_cycle():
    c5 = generate(FamilySpec("cycle", 5))
    l, _ = line_graph(c5)
    assert l.order == 5 and degree_sequence(l) == [2] * 5 and is_connected(l)
    assert graph_closeness(l).total == graph_closeness(c5).total


def test_line_of_star_is_complete():
    l, _ = line_graph(generate(FamilySpec("star", 5)))
    assert l.order == 4 and l.edge_count == 6
    assert degree_sequence(l) == [3, 3, 3, 3]


def test_line_of_triangle_with_pendant_is_diamond():
    g = add_edge(build(4, [(0, 1), (0, 2), (1, 2)]), 2, 3)
    l, origins = line_graph(g)
    assert l.order == 4 and l.edge_count == 5
    assert degree_sequence(l) == [3, 3, 2, 2]
    assert [o.source for o in origins] == [(0, 1), (0, 2), (1, 2), (2, 3)]
    # the pendant edge's vertex meets exactly the two edges at vertex 2
    assert l.adj[3] == [1, 2]


def test_line_of_path_is_shorter_path():
    l, _ = line_graph(generate(FamilySpec("path", 6)))
    assert l.order == 5
    assert graph_closeness(l).total == graph_closeness(generate(FamilySpec("path", 5))).total


def test_line_of_edgeless_is_empty():
    l, origins = line_graph(build(4, []))
    assert l.order == 0 and origins == []
    assert graph_closeness(l).total == Dyadic(0)


def test_line_edge_count_identity():
    for seed in range(8):
        g = gen_random_connected(8, 10 + seed, seed=seed)
        l, _ = line_graph(g)
        expected = sum(g.degree(v) * (g.degree(v) - 1) // 2 for v in range(g.order))
        assert l.edge_count == expected


def test_line_graph_size_limit(monkeypatch):
    """line_graph builds up to MAX_LINE_EDGES edges and raises above it.
    L(S_5) is K_4, with 6 edges."""
    star = generate(FamilySpec("star", 5))
    monkeypatch.setattr(transforms, "MAX_LINE_EDGES", 6)
    assert line_graph(star)[0].edge_count == 6
    monkeypatch.setattr(transforms, "MAX_LINE_EDGES", 5)
    with pytest.raises(ValueError, match="^line graph would have 6 edges, more than the limit of 5$"):
        line_graph(star)


def test_line_graph_limit_admits_the_largest_sweep_case():
    """`verify --window bridged=128` (the window cap) checks L(K_128 plus a
    pendant edge), with 1,024,255 edges, under the limit. Its size is
    counted here, not built: the build takes about 150 MiB."""
    window = parse_window("bridged=128")
    k = generate(FamilySpec("complete", window.bridged_max))
    g, _ = bridge_join(k, 0, build(1, []), 0)
    size = sum(g.degree(v) * (g.degree(v) - 1) // 2 for v in range(g.order))
    assert size == 1_024_255 <= transforms.MAX_LINE_EDGES


# --- joins ----------------------------------------------------------------

def test_bridge_join_two_singletons():
    k1 = build(1, [])
    joined, origins = bridge_join(k1, 0, k1, 0)
    assert joined.order == 2 and list(joined.edges()) == [(0, 1)]
    assert [(o.kind, o.source) for o in origins] == [("left", 0), ("right", 0)]


def test_bridge_join_builds_lollipop():
    joined, _ = bridge_join(
        generate(FamilySpec("complete", 3)), 0, generate(FamilySpec("path", 2)), 0
    )
    assert joined == generate(FamilySpec("lollipop", 3, 2))


def test_bridge_join_builds_bistar():
    joined, _ = bridge_join(
        generate(FamilySpec("star", 4)), 0, generate(FamilySpec("star", 3)), 0
    )
    assert joined == generate(FamilySpec("bistar", 4, 3))


def test_bridge_join_index_errors():
    g = build(2, [(0, 1)])
    with pytest.raises(IndexError):
        bridge_join(g, 2, g, 0)
    with pytest.raises(IndexError):
        bridge_join(g, 0, g, -1)


@pytest.mark.parametrize("join", [bridge_join, coalesce_join])
@pytest.mark.parametrize(
    "p, q, message",
    [
        (2, 0, "vertex 2 out of range for left graph of order 2"),
        (-1, 0, "vertex -1 out of range for left graph of order 2"),
        (0, 3, "vertex 3 out of range for right graph of order 3"),
        (0, -1, "vertex -1 out of range for right graph of order 3"),
        (5, 5, "vertex 5 out of range for left graph of order 2"),
    ],
)
def test_join_index_error_messages(join, p, q, message):
    with pytest.raises(IndexError, match=f"^{re.escape(message)}$"):
        join(build(2, [(0, 1)]), p, build(3, [(0, 1), (1, 2)]), q)


def test_coalesce_two_edges_makes_path3():
    p2 = generate(FamilySpec("path", 2))
    merged, origins = coalesce_join(p2, 0, p2, 0)
    assert merged.order == 3
    assert degree_sequence(merged) == [2, 1, 1]
    assert graph_closeness(merged).total == Dyadic(5, 1)
    assert origins[0].kind == "merged" and origins[0].source == (0, 0)


def test_coalesce_paths_at_leaves():
    pn, pm = generate(FamilySpec("path", 4)), generate(FamilySpec("path", 3))
    merged, _ = coalesce_join(pn, 0, pm, 0)
    assert merged.order == 6
    assert graph_closeness(merged).total == graph_closeness(generate(FamilySpec("path", 6))).total


def test_coalesce_star_centers():
    s3 = generate(FamilySpec("star", 3))
    merged, _ = coalesce_join(s3, 0, s3, 0)
    assert merged.order == 5
    assert degree_sequence(merged) == [4, 1, 1, 1, 1]


def test_coalesce_composition_rule():
    g1 = gen_random_connected(6, 9, seed=4)
    g2 = gen_random_connected(5, 6, seed=8)
    p, q = 2, 3
    merged, _ = coalesce_join(g1, p, g2, q)
    r1, r2 = graph_closeness(g1), graph_closeness(g2)
    expected = r1.total + r2.total + Dyadic(2) * r1.per_vertex[p] * r2.per_vertex[q]
    assert graph_closeness(merged).total == expected


# --- edits ----------------------------------------------------------------

def test_delete_edge_from_cycle():
    g = delete_edge(generate(FamilySpec("cycle", 4)), 3, 0)
    assert degree_sequence(g) == [2, 2, 1, 1] and is_connected(g)


def test_add_edge_closes_path():
    g = add_edge(generate(FamilySpec("path", 3)), 0, 2)
    assert g == generate(FamilySpec("cycle", 3))
    # endpoints given high first still give sorted adjacency lists
    assert add_edge(generate(FamilySpec("path", 4)), 3, 0) == generate(FamilySpec("cycle", 4))


def test_delete_vertex_star_center():
    g, mapping = delete_vertex(generate(FamilySpec("star", 4)), 0)
    assert g.order == 3 and g.edge_count == 0
    assert mapping == [1, 2, 3]
    assert g.labels == ["S:1", "S:2", "S:3"]


def test_delete_vertex_remaps_edges():
    g = build(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    reduced, mapping = delete_vertex(g, 1)
    assert reduced.order == 3
    assert list(reduced.edges()) == [(0, 2), (1, 2)]
    assert mapping == [0, 2, 3]


def test_edit_precondition_errors():
    g = generate(FamilySpec("path", 3))
    with pytest.raises(ValueError):
        delete_edge(g, 0, 2)
    with pytest.raises(ValueError):
        add_edge(g, 0, 1)
    with pytest.raises(ValueError):
        add_edge(g, 1, 1)
    with pytest.raises(ValueError):
        delete_vertex(g, 3)


@pytest.mark.parametrize(
    "u, v, message",
    [
        (0, 1, "edge (0, 1) already present"),
        (1, 0, "edge (1, 0) already present"),
        (1, 1, "self-loop at vertex 1"),
        (3, 3, "edge (3, 3) out of range for order 3"),
        (5, 1, "edge (5, 1) out of range for order 3"),
        (1, 5, "edge (1, 5) out of range for order 3"),
        (-1, 0, "edge (-1, 0) out of range for order 3"),
    ],
)
def test_add_edge_error_messages(u, v, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        add_edge(generate(FamilySpec("path", 3)), u, v)


# --- differential tests against networkx ------------------------------------

SMALL_GRAPH = shuffled(st.one_of(any_graph(), tree(), cycle(), complete_minus_edge()))
NONEMPTY_GRAPH = SMALL_GRAPH.filter(lambda g: g.order > 0)


def _edge_set(edges):
    return {frozenset(e) for e in edges}


def _join_key(origin):
    """The vertex a join result's vertex stands for, as named in the
    networkx union below; the merged vertex keeps its left name."""
    if origin.kind == "merged":
        return ("left", origin.source[0])
    return (origin.kind, origin.source)


def _nx_union(g1, g2):
    G = nx.relabel_nodes(to_networkx(g1), lambda i: ("left", i))
    G.update(nx.relabel_nodes(to_networkx(g2), lambda j: ("right", j)))
    return G


@settings(max_examples=100, deadline=None)
@given(SMALL_GRAPH)
def test_line_graph_matches_networkx(g):
    lg, origins = line_graph(g)
    assert all(o.kind == "edge" for o in origins)
    ends = [o.source for o in origins]
    want = nx.line_graph(to_networkx(g))
    assert sorted(ends) == sorted(tuple(sorted(e)) for e in want.nodes)
    got = _edge_set((ends[a], ends[b]) for a, b in lg.edges())
    assert got == _edge_set((tuple(sorted(x)), tuple(sorted(y))) for x, y in want.edges)


@settings(max_examples=60, deadline=None)
@given(NONEMPTY_GRAPH, NONEMPTY_GRAPH, st.data())
def test_bridge_join_matches_networkx(g1, g2, data):
    p = data.draw(st.integers(min_value=0, max_value=g1.order - 1))
    q = data.draw(st.integers(min_value=0, max_value=g2.order - 1))
    joined, origins = bridge_join(g1, p, g2, q)
    want = _nx_union(g1, g2)
    want.add_edge(("left", p), ("right", q))
    keys = [_join_key(o) for o in origins]
    assert sorted(keys) == sorted(want.nodes)
    assert _edge_set((keys[a], keys[b]) for a, b in joined.edges()) == _edge_set(want.edges)


@settings(max_examples=60, deadline=None)
@given(NONEMPTY_GRAPH, NONEMPTY_GRAPH, st.data())
def test_coalesce_join_matches_networkx(g1, g2, data):
    p = data.draw(st.integers(min_value=0, max_value=g1.order - 1))
    q = data.draw(st.integers(min_value=0, max_value=g2.order - 1))
    merged, origins = coalesce_join(g1, p, g2, q)
    want = nx.contracted_nodes(_nx_union(g1, g2), ("left", p), ("right", q), self_loops=False)
    keys = [_join_key(o) for o in origins]
    assert sorted(keys) == sorted(want.nodes)
    assert _edge_set((keys[a], keys[b]) for a, b in merged.edges()) == _edge_set(want.edges)


@settings(max_examples=100, deadline=None)
@given(NONEMPTY_GRAPH, st.data())
def test_delete_vertex_matches_networkx(g, data):
    v = data.draw(st.integers(min_value=0, max_value=g.order - 1))
    reduced, keep = delete_vertex(g, v)
    want = to_networkx(g)
    want.remove_node(v)
    assert keep == sorted(want.nodes)
    assert _edge_set((keep[a], keep[b]) for a, b in reduced.edges()) == _edge_set(want.edges)
