"""The bitset BFS traversals against their references: the multi-source
kernel against the per-source BFS, the balls against balls read off
per-source BFS distances, and the lane-parallel deletion sums against
the kernel run on each explicitly cut adjacency."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from closegraph import graph
from closegraph.dyadic import Dyadic
from closegraph.generators import FamilySpec, gen_random_connected, generate
from closegraph.graph import bfs_distances, graph_closeness

import closeness_reference
from conftest import build
from strategies import (any_graph, complete, complete_minus_edge, cycle, even_cycle_with_chord,
                        shuffled, spider, theta, tree)

ANY_SMALL_GRAPH = shuffled(
    st.one_of(any_graph(), tree(), cycle(), complete(), complete_minus_edge())
)


def _canonical(report):
    return [c.canonical() for c in report.per_vertex], report.total.canonical()


def assert_matches_reference(g):
    got = _canonical(graph_closeness(g))
    want = _canonical(closeness_reference.graph_closeness(g))
    assert got == want, (g.order, list(g.edges()))


@settings(max_examples=300, deadline=None)
@given(ANY_SMALL_GRAPH)
def test_matches_per_source_reference(g):
    assert_matches_reference(g)


@pytest.mark.parametrize("block", [1, 3, 64])
@settings(max_examples=60, deadline=None)
@given(g=ANY_SMALL_GRAPH)
def test_matches_reference_across_block_boundaries(block, g):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graph, "_BLOCK", block)
        mp.setattr(graph, "_BLOCK_BITS", 0)
        assert_matches_reference(g)


@pytest.mark.parametrize("order", [0, 1, 2, 3])
def test_matches_reference_on_every_tiny_graph(order):
    """The kernel and the balls, on every graph of orders 0 to 3."""
    pairs = list(itertools.combinations(range(order), 2))
    for k in range(len(pairs) + 1):
        for edges in itertools.combinations(pairs, k):
            g = build(order, list(edges))
            assert_matches_reference(g)
            assert graph._balls(g.adj) == _reference_balls(g), (order, edges)


def _union(*parts):
    order, edges = 0, []
    for g in parts:
        edges += [(u + order, v + order) for u, v in g.edges()]
        order += g.order
    return build(order + 3, edges)  # three isolated vertices at the end


@pytest.mark.parametrize("block", [3, 64])
@pytest.mark.parametrize(
    "g",
    [
        gen_random_connected(150, 400, seed=1),
        generate(FamilySpec("path", 130)),
        generate(FamilySpec("cycle", 129)),
        _union(generate(FamilySpec("lollipop", 9, 40)), gen_random_connected(70, 90, seed=2)),
    ],
    ids=["random150", "path130", "cycle129", "union"],
)
def test_matches_reference_on_multi_block_graphs(block, g):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graph, "_BLOCK", block)
        mp.setattr(graph, "_BLOCK_BITS", 0)
        assert_matches_reference(g)


def test_two_real_blocks_match_per_vertex():
    g = gen_random_connected(1100, 2400, seed=5)
    assert g.order > graph._BLOCK
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graph, "_BLOCK_BITS", 0)  # two blocks of 1024 and 76 sources
        assert_matches_reference(g)


def test_one_wide_block_matches_per_vertex():
    g = gen_random_connected(1100, 2400, seed=5)
    assert graph._BLOCK_BITS // g.order >= g.order  # one block at the defaults
    assert_matches_reference(g)


@pytest.mark.parametrize("block", [1, 3, 1024])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_source_subset_sums_to_their_closenesses(block, data):
    """From a subset S of the vertices, the kernel's per-vertex sums add
    up to the sum over S of C(s), whatever the block size."""
    g = data.draw(ANY_SMALL_GRAPH)
    sources = data.draw(st.lists(st.sampled_from(range(g.order)), unique=True)) if g.order else []
    per = closeness_reference.graph_closeness(g).per_vertex
    want = sum((per[s] for s in sources), Dyadic(0))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graph, "_BLOCK", block)
        mp.setattr(graph, "_BLOCK_BITS", 0)
        num, depth = graph._closeness_sums(g.adj, sources)
    got = sum((Dyadic(c, d) for c, d in zip(num, depth)), Dyadic(0))
    assert got == want, (g.order, list(g.edges()), sources)


# -- the balls: per vertex, the vertices within each distance ------------------

def _reference_balls(g):
    """Ball k of v, as a bitset, holds the vertices at distance 0..k from
    v, for k from 0 to v's eccentricity in its component."""
    balls = []
    for v in range(g.order):
        dist = bfs_distances(g, v)
        balls.append([sum(1 << t for t, d in enumerate(dist) if 0 <= d <= k)
                      for k in range(max(dist) + 1)])
    return balls


@settings(max_examples=200, deadline=None)
@given(st.one_of(ANY_SMALL_GRAPH, st.lists(ANY_SMALL_GRAPH, max_size=3).map(lambda gs: _union(*gs))))
def test_balls_match_the_bfs_distances(g):
    """On shuffled small graphs and on disjoint unions of them with three
    isolated vertices."""
    assert graph._balls(g.adj) == _reference_balls(g), (g.order, list(g.edges()))


# -- the deletion sums: one lane per (edit, source), against the kernel on
# each cut adjacency -----------------------------------------------------------

def _cut_adjacency(adj, cut):
    cut_adj = [list(nbrs) for nbrs in adj]
    if isinstance(cut, tuple):
        u, v = cut
        cut_adj[u].remove(v)
        cut_adj[v].remove(u)
    else:
        for w in cut_adj[cut]:
            cut_adj[w].remove(cut)
        cut_adj[cut] = []
    return cut_adj


def _reference_deletion_sums(adj, edits):
    top = max(len(adj) - 1, 0)
    totals, insides = [], []
    for cut, sources, inside in edits:
        num, depth = graph._closeness_sums(_cut_adjacency(adj, cut), sources)
        new = [c << (top - d) for c, d in zip(num, depth)]
        totals.append(sum(new))
        insides.append(sum(new[t] for t in sources) if inside else 0)
    return totals, insides


@st.composite
def graph_with_deletions(draw):
    """A graph (often disconnected) and up to six deletions of one vertex
    or one edge, each with any set of sources other than the vertex, and
    each with or without its inside sum."""
    g = draw(shuffled(st.one_of(any_graph(), tree(), cycle(), complete_minus_edge(),
                                spider(), theta(), even_cycle_with_chord())))
    edges = list(g.edges())
    edits = []
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        if edges and draw(st.booleans()):
            cut = draw(st.sampled_from(edges))
            allowed = list(range(g.order))
        elif g.order:
            cut = draw(st.integers(min_value=0, max_value=g.order - 1))
            allowed = [v for v in range(g.order) if v != cut]
        else:
            break
        sources = draw(st.lists(st.sampled_from(allowed), unique=True)) if allowed else []
        edits.append((cut, sources, draw(st.booleans())))
    return g, edits


@pytest.mark.parametrize("block", [None, 1, 3])
@settings(max_examples=80, deadline=None)
@given(case=graph_with_deletions())
def test_deletion_sums_match_the_kernel_on_each_cut_adjacency(block, case):
    """At the default width, and with every edit's lanes cut across
    blocks of one and of three lanes."""
    g, edits = case
    want = _reference_deletion_sums(g.adj, edits)
    with pytest.MonkeyPatch.context() as mp:
        if block is not None:
            mp.setattr(graph, "_BLOCK", block)
            mp.setattr(graph, "_BLOCK_BITS", 0)
        got = graph._deletion_sums(g.adj, edits)
    assert got == want, (g.order, list(g.edges()), edits)


def test_deletion_sums_on_a_long_path_across_blocks():
    """Lane sums that carry through many planes: every vertex of a
    130-vertex path deleted in turn, with all other vertices as sources,
    in blocks of 64 lanes; the inside sums of every other edit."""
    g = generate(FamilySpec("path", 130))
    edits = [(x, [v for v in range(g.order) if v != x], x % 2 == 0)
             for x in range(0, g.order, 7)]
    edits += [((u, u + 1), list(range(u + 1)), u % 2 == 0) for u in range(0, g.order - 1, 9)]
    want = _reference_deletion_sums(g.adj, edits)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graph, "_BLOCK", 64)
        mp.setattr(graph, "_BLOCK_BITS", 0)
        assert graph._deletion_sums(g.adj, edits) == want


def test_deletion_sums_without_sources_build_nothing(monkeypatch):
    """Edits with no sources add no lane, so no block is set up."""
    monkeypatch.setattr(graph, "_width", lambda n: pytest.fail("a block was set up"))
    g = generate(FamilySpec("complete", 5))
    assert graph._deletion_sums(g.adj, [(0, [], True), ((1, 2), [], True)]) == ([0, 0], [0, 0])


# -- the two directions of _levels: each traversal pushes and pulls ------------

def _directions(monkeypatch):
    """The directions _levels takes from here on, True for a pull, recorded
    by wrapping its rule."""
    taken = []
    rule = graph._pulls
    monkeypatch.setattr(graph, "_pulls", lambda push, pull: taken.append(rule(push, pull)) or taken[-1])
    return taken


def _reference_sums(g, sources):
    """Per vertex v, the sum over s in sources of 2**-d(s, v)."""
    sums = [Dyadic(0)] * g.order
    for s in sources:
        for v, d in enumerate(bfs_distances(g, s)):
            if d > 0:
                sums[v] = sums[v] + Dyadic(1, d)
    return sums


def _theta(*lengths):
    """Paths of the given numbers of edges between vertices 0 and 1."""
    order, edges = 2, []
    for length in lengths:
        path = [0, *range(order, order + length - 1), 1]
        edges += list(zip(path, path[1:]))
        order += length - 1
    return build(order, edges)


LONG_PATH = generate(FamilySpec("path", 40))
DENSE = gen_random_connected(24, 200, seed=3)
# a path beside a clique: the clique's vertices never see the path's bits,
# so they keep the pull count high while the frontier runs along the path
PATH_AND_CLIQUE = build(42, [(i, i + 1) for i in range(29)]
                        + list(itertools.combinations(range(30, 42), 2)))


def test_one_source_on_a_long_path_pushes(monkeypatch):
    taken = _directions(monkeypatch)
    num, depth = graph._closeness_sums(LONG_PATH.adj, [0])
    # the last levels reach the far end, where one vertex or none pulls
    assert taken[:-2] == [False] * (len(taken) - 2) and len(taken) == 40
    assert [Dyadic(c, d) for c, d in zip(num, depth)] == _reference_sums(LONG_PATH, [0])


def test_balls_of_a_path_beside_a_clique_push(monkeypatch):
    taken = _directions(monkeypatch)
    balls = graph._balls(PATH_AND_CLIQUE.adj)
    assert taken[2:] == [False] * (len(taken) - 2) and len(taken) == 30
    assert balls == _reference_balls(PATH_AND_CLIQUE)


def test_deletion_lanes_of_one_source_on_a_long_path_push(monkeypatch):
    edits = [(20, [0], True), ((5, 6), [0], False), (39, [0, 1], True)]
    want = _reference_deletion_sums(LONG_PATH.adj, edits)
    taken = _directions(monkeypatch)
    got = graph._deletion_sums(LONG_PATH.adj, edits)
    assert taken[:-2] == [False] * (len(taken) - 2) and len(taken) == 39
    assert got == want


# from every vertex of a long path, each level's pull count is below its
# push count only once the vertices that have seen all their bits leave it
@pytest.mark.parametrize("g", [DENSE, LONG_PATH], ids=["dense", "path"])
def test_all_sources_pull(monkeypatch, g):
    taken = _directions(monkeypatch)
    got = graph_closeness(g)
    assert taken and all(taken)
    assert _canonical(got) == _canonical(closeness_reference.graph_closeness(g))


@pytest.mark.parametrize("g", [DENSE, LONG_PATH], ids=["dense", "path"])
def test_balls_pull(monkeypatch, g):
    taken = _directions(monkeypatch)
    balls = graph._balls(g.adj)
    assert taken and all(taken)
    assert balls == _reference_balls(g)


def test_deletion_lanes_on_a_theta_pull(monkeypatch):
    """Every vertex and every edge of a theta deleted in turn, with all
    other vertices as sources: the cut edges' lanes cross by gates."""
    g = _theta(2, 3, 4)
    edits = [(x, [v for v in range(g.order) if v != x], x % 2 == 0) for x in range(g.order)]
    edits += [(e, list(range(g.order)), i % 2 == 0) for i, e in enumerate(g.edges())]
    want = _reference_deletion_sums(g.adj, edits)
    taken = _directions(monkeypatch)
    got = graph._deletion_sums(g.adj, edits)
    assert taken and all(taken)
    assert got == want


@pytest.mark.parametrize("pull", [False, True], ids=["push", "pull"])
@settings(max_examples=60, deadline=None)
@given(case=graph_with_deletions())
def test_each_direction_alone_matches_the_references(pull, case):
    """Every level forced one way: the kernel, the balls and the deletion
    sums (gates included) still match their references."""
    g, edits = case
    want = _reference_deletion_sums(g.adj, edits)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graph, "_pulls", lambda push, pulled: pull)
        assert_matches_reference(g)
        assert graph._balls(g.adj) == _reference_balls(g), (g.order, list(g.edges()))
        assert graph._deletion_sums(g.adj, edits) == want, (g.order, list(g.edges()), edits)
