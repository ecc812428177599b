"""The bitset BFS traversals against their references: the multi-source
kernel against the per-source BFS, the balls against balls read off
per-source BFS distances, and the lane-parallel deletion sums against
the per-source BFS on each explicitly cut graph; line graphs read through
their clique cover against their plain adjacency; and the totals read off
level counts against the per-vertex kernel."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from closegraph import graph
from closegraph.dyadic import Dyadic
from closegraph.formulas import BRIDGED_CASES
from closegraph.generators import (COMPOSITE_FAMILIES, MINIMA, FamilySpec, gen_random_connected,
                                   generate)
from closegraph.graph import Graph, bfs_distances, graph_closeness
from closegraph.transforms import line_graph

import closeness_reference
from conftest import build, oracle_vertex_closeness
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


# -- the deletion sums: one lane per (edit, source), against the per-source
# BFS on each cut graph ---------------------------------------------------------

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
    """Per edit, the sum of vertex_closeness over its sources on the graph
    less its cut, as a numerator over 2**top, top = max(n - 1, 0)."""
    n = len(adj)
    top = max(n - 1, 0)
    totals = []
    for cut, sources in edits:
        g = Graph(n, _cut_adjacency(adj, cut), [str(v) for v in range(n)])
        total = sum((graph.vertex_closeness(g, s) for s in sources), Dyadic(0))
        totals.append(total.numerator << (top - total.exponent))
    return totals


@st.composite
def graph_with_deletions(draw):
    """A graph (often disconnected) and up to six deletions of one vertex
    or one edge, each with any set of sources other than the vertex."""
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
        edits.append((cut, sources))
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
    in blocks of 64 lanes."""
    g = generate(FamilySpec("path", 130))
    edits = [(x, [v for v in range(g.order) if v != x]) for x in range(0, g.order, 7)]
    edits += [((u, u + 1), list(range(u + 1))) for u in range(0, g.order - 1, 9)]
    want = _reference_deletion_sums(g.adj, edits)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graph, "_BLOCK", 64)
        mp.setattr(graph, "_BLOCK_BITS", 0)
        assert graph._deletion_sums(g.adj, edits) == want


def test_deletion_sums_without_sources_build_nothing(monkeypatch):
    """Edits with no sources add no lane, so no block is set up."""
    monkeypatch.setattr(graph, "_width", lambda n: pytest.fail("a block was set up"))
    g = generate(FamilySpec("complete", 5))
    assert graph._deletion_sums(g.adj, [(0, []), ((1, 2), [])]) == [0, 0]


# -- the traps of a ball loop: a vertex stays pending until its ball is full
# (under its keep mask), and the loop ends only on a level with no growth ------

def _force(monkeypatch, direction):
    """Every level of _levels from here on one way, unless direction is None."""
    if direction is not None:
        monkeypatch.setattr(graph, "_pulls", lambda push, pull: direction == "pull")


DIRECTIONS = pytest.mark.parametrize("direction", [None, "push", "pull"])

# vertex 2 is at distance 1 from source 0 and at distance 3 from source 1:
# in blocks of two sources, its ball does not grow on level 2 of the first
GAP = build(5, [(0, 2), (2, 3), (3, 4), (4, 1)])


@DIRECTIONS
def test_a_ball_that_skips_a_level_stays_pending(monkeypatch, direction):
    monkeypatch.setattr(graph, "_width", lambda n: 2)
    grows = [2 in grown for _, _, grown in next(graph._source_levels(GAP))]
    assert grows[:3] == [True, False, True]
    want = _canonical(closeness_reference.graph_closeness(GAP))
    _force(monkeypatch, direction)
    assert _canonical(graph_closeness(GAP)) == want
    assert graph._total_closeness(GAP).canonical() == want[1]


@DIRECTIONS
def test_a_disconnected_graph_ends_when_no_ball_grows(monkeypatch, direction):
    """No ball of a path beside a triangle and an isolated vertex ever
    holds every source."""
    g = build(9, [(0, 1), (1, 2), (2, 3), (3, 4), (5, 6), (6, 7), (5, 7)])
    edits = [(2, [0, 1, 3, 8]), ((5, 6), [5, 7]), ((0, 1), [0, 4, 6])]
    want = _reference_deletion_sums(g.adj, edits)
    _force(monkeypatch, direction)
    assert_matches_reference(g)
    assert graph._total_closeness(g) == graph_closeness(g).total
    assert graph._balls(g.adj) == _reference_balls(g)
    assert graph._deletion_sums(g.adj, edits) == want


@DIRECTIONS
def test_a_cut_vertex_never_takes_its_own_lanes(monkeypatch, direction):
    """Vertex 2 of a path is cut with sources on both sides, so its own
    lanes must neither reach it nor cross it; the lanes of the edge cut
    beside it start at 2 and must leave it."""
    g = generate(FamilySpec("path", 5))
    edits = [(2, [0, 1, 3, 4]), ((0, 1), [2]), (0, [2, 4])]
    want = _reference_deletion_sums(g.adj, edits)
    _force(monkeypatch, direction)
    assert graph._deletion_sums(g.adj, edits) == want


@DIRECTIONS
def test_a_cut_edge_is_crossed_the_long_way_round(monkeypatch, direction):
    """On a 6-cycle less the edge (0, 1), the lanes from 0 reach 1 at
    distance 5, by the other side of the cycle."""
    g = generate(FamilySpec("cycle", 6))
    edits = [((0, 1), [0, 1, 3]), ((2, 3), [0])]
    want = _reference_deletion_sums(g.adj, edits)
    _force(monkeypatch, direction)
    assert graph._deletion_sums(g.adj, edits) == want


# -- the two directions of _levels: each traversal pushes and pulls ------------

def _directions(monkeypatch):
    """The directions _levels takes from here on, True for a pull, recorded
    by wrapping its rule."""
    taken = []
    rule = graph._pulls
    monkeypatch.setattr(graph, "_pulls", lambda push, pull: taken.append(rule(push, pull)) or taken[-1])
    return taken


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


def test_balls_of_a_path_beside_a_clique_push(monkeypatch):
    taken = _directions(monkeypatch)
    balls = graph._balls(PATH_AND_CLIQUE.adj)
    assert taken[2:] == [False] * (len(taken) - 2) and len(taken) == 30
    assert balls == _reference_balls(PATH_AND_CLIQUE)


def test_deletion_lanes_of_one_source_on_a_long_path_push(monkeypatch):
    edits = [(20, [0]), ((5, 6), [0]), (39, [0, 1])]
    want = _reference_deletion_sums(LONG_PATH.adj, edits)
    taken = _directions(monkeypatch)
    got = graph._deletion_sums(LONG_PATH.adj, edits)
    assert taken[:-2] == [False] * (len(taken) - 2) and len(taken) == 39
    assert got == want


def test_one_lane_on_a_long_path_pulls_once_the_path_has_seen_it(monkeypatch):
    """One lane from the first vertex of a path, its last vertex cut:
    each push level lowers the pull count by the degree of the vertex the
    lane reaches, until pull is the cheaper direction for the last two."""
    edits = [(39, [0])]
    want = _reference_deletion_sums(LONG_PATH.adj, edits)
    taken = _directions(monkeypatch)
    got = graph._deletion_sums(LONG_PATH.adj, edits)
    assert taken == [False] * 37 + [True, True]
    assert got == want


def _cut_cycle():
    """A 6-cycle whose edge (0, 1) is closed to lane 0 and whose vertex 3
    is closed to lane 1, with lanes 0, 1 and 2 starting at 0, 2 and 5."""
    adj = [list(nbrs) for nbrs in generate(FamilySpec("cycle", 6)).adj]
    adj[0].remove(1)
    adj[1].remove(0)
    gates = {(0, 1): 0b110, (1, 0): 0b110}
    return adj, [1, 0, 2, 0, 0, 4], 0b111, {3: 0b101}, gates, None


def _from_every_vertex(g):
    n = g.order
    return g.adj, [1 << v for v in range(n)], (1 << n) - 1, None, None, g._cover


@pytest.mark.parametrize("run", [
    _from_every_vertex(DENSE), _from_every_vertex(LONG_PATH), _from_every_vertex(PATH_AND_CLIQUE),
    _from_every_vertex(generate(FamilySpec("lollipop", 6, 10))),
    _from_every_vertex(_union(generate(FamilySpec("tadpole", 5, 6)), generate(FamilySpec("star", 4)))),
    _from_every_vertex(line_graph(generate(FamilySpec("lollipop", 8, 12)))[0]),
    _cut_cycle(),
], ids=["dense", "path", "path-and-clique", "lollipop", "union", "line-lollipop", "cut-cycle"])
def test_direction_counts_are_exact(monkeypatch, run):
    """The counts _pulls weighs before each level, recounted from the
    yielded balls: push, the degrees of the vertices that grew on the last
    level (the seeded ones first); pull, the scanned entries of the
    vertices whose ball does not yet hold all it may, plus a cover's hub
    builds."""
    adj, seed, full, keep, gates, cover = run
    calls = []
    monkeypatch.setattr(graph, "_pulls", lambda push, pull: calls.append((push, pull)) or pull <= push)
    scan = cover[1] if cover else adj
    done = [keep.get(v, full) if keep else full for v in range(len(adj))]

    def counts(ball, grown):
        return (sum(len(adj[v]) for v in grown),
                sum(len(scan[v]) for v, bits in enumerate(ball) if bits != done[v])
                + sum(map(len, cover[0] if cover else [])))

    want = [counts(seed, [v for v, bits in enumerate(seed) if bits])]
    want += [counts(ball, grown) for _, ball, grown in graph._levels(adj, seed, full, keep, gates, cover)]
    assert calls == want


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
    edits = [(x, [v for v in range(g.order) if v != x]) for x in range(g.order)]
    edits += [(e, list(range(g.order))) for e in g.edges()]
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


# -- line graphs read through their clique cover, and totals read off level
# counts --------------------------------------------------------------------

def _edges_of(g):
    return g.order, list(g.edges())


@st.composite
def star(draw):
    """A star of 0 to 7 edges; those of 3 and 4 edges straddle the cover's
    four-edge rule."""
    leaves = draw(st.one_of(st.sampled_from([3, 4]), st.integers(min_value=0, max_value=7)))
    return leaves + 1, [(0, v) for v in range(1, leaves + 1)]


@st.composite
def composite(draw):
    fam = draw(st.sampled_from(COMPOSITE_FAMILIES))
    lo1, lo2 = MINIMA[fam]
    p1 = draw(st.integers(min_value=max(lo1, 3), max_value=7))
    return _edges_of(generate(FamilySpec(fam, p1, draw(st.integers(min_value=lo2, max_value=lo2 + 4)))))


@st.composite
def bridged(draw):
    """A base graph of a pendant-bridge sweep check with its pendant edge."""
    case = draw(st.sampled_from(sorted(BRIDGED_CASES)))
    fam, attach, lo = BRIDGED_CASES[case]
    n = draw(st.integers(min_value=lo, max_value=lo + 5))
    order, edges = _edges_of(generate(FamilySpec(fam, n)))
    return order + 1, edges + [(attach, order)]


@st.composite
def at_most_one_edge(draw):
    n = draw(st.integers(min_value=0, max_value=4))
    return n, [(0, 1)] if n >= 2 and draw(st.booleans()) else []


@st.composite
def dense(draw):
    """A random graph on 5 to 9 vertices with at least 2n edges."""
    n = draw(st.integers(min_value=5, max_value=9))
    pairs = list(itertools.combinations(range(n), 2))
    return n, draw(st.lists(st.sampled_from(pairs), min_size=2 * n, unique=True))


# graphs whose line graphs carry a cover, and some whose do not, as
# disjoint unions of one or two parts with isolated vertices
HUB_GRAPHS = shuffled(
    st.one_of(dense(), star(), complete(), composite(), bridged(), at_most_one_edge(), any_graph())
)


def _oracle(g):
    return [oracle_vertex_closeness(g, v) for v in range(g.order)]


def _fraction(d):
    return Fraction(d.numerator, 2 ** d.exponent)


@settings(max_examples=150, deadline=None)
@given(HUB_GRAPHS)
def test_line_graphs_read_through_their_cover_match_plain_adjacency(g):
    """The kernel on line_graph(g), with its cover, against the same
    adjacency with no cover, the networkx oracle and the totals path."""
    lg = line_graph(g)[0]
    plain = Graph.from_edges(lg.order, list(lg.edges()))
    assert plain._cover is None
    got = graph_closeness(lg)
    assert _canonical(got) == _canonical(graph_closeness(plain)), (g.order, list(g.edges()))
    assert list(map(_fraction, got.per_vertex)) == _oracle(lg)
    assert graph._total_closeness(lg) == got.total


@pytest.mark.parametrize("block", [1, 3])
@settings(max_examples=40, deadline=None)
@given(g=HUB_GRAPHS)
def test_cover_and_totals_across_block_boundaries(block, g):
    lg = line_graph(g)[0]
    want = _canonical(closeness_reference.graph_closeness(lg))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graph, "_BLOCK", block)
        mp.setattr(graph, "_BLOCK_BITS", 0)
        assert _canonical(graph_closeness(lg)) == want
        assert graph._total_closeness(lg).canonical() == want[1]


@pytest.mark.parametrize("block", [None, 1, 3])
@settings(max_examples=100, deadline=None)
@given(g=st.one_of(ANY_SMALL_GRAPH, shuffled(st.one_of(spider(), theta(), even_cycle_with_chord()))))
def test_totals_match_the_per_vertex_kernel(block, g):
    """On every shape of tests/strategies.py, whole and in blocks of one
    and three sources."""
    with pytest.MonkeyPatch.context() as mp:
        if block is not None:
            mp.setattr(graph, "_BLOCK", block)
            mp.setattr(graph, "_BLOCK_BITS", 0)
        assert graph._total_closeness(g) == graph_closeness(g).total, (g.order, list(g.edges()))


@pytest.mark.parametrize("leaves", [3, 4, 5])
def test_line_graphs_of_stars_at_the_cover_boundary(leaves):
    """A star of 3, 4 or 5 edges, a path of 7 edges from one of its
    leaves, and at the path's far end a second star as large: the stars'
    line graphs are cliques, whose bits cross the path a level at a
    time."""
    end = leaves + 7
    g = build(end + leaves, [(0, v) for v in range(1, leaves + 1)]
              + [(v, v + 1) for v in range(leaves, end)]
              + [(end, v) for v in range(end + 1, end + leaves)])
    lg = line_graph(g)[0]
    assert (lg._cover is None) == (leaves < 4)
    assert _canonical(graph_closeness(lg)) == _canonical(closeness_reference.graph_closeness(lg))
    assert list(map(_fraction, graph_closeness(lg).per_vertex)) == _oracle(lg)


@pytest.mark.parametrize("pull", [False, True], ids=["push", "pull"])
@settings(max_examples=60, deadline=None)
@given(g=HUB_GRAPHS)
def test_each_direction_alone_with_a_cover(pull, g):
    """Every level forced one way on a line graph with its cover: the
    per-vertex kernel and the totals still match the per-source BFS."""
    lg = line_graph(g)[0]
    want = _canonical(closeness_reference.graph_closeness(lg))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graph, "_pulls", lambda push, pulled: pull)
        assert _canonical(graph_closeness(lg)) == want, (g.order, list(g.edges()))
        assert graph._total_closeness(lg).canonical() == want[1]


def test_line_graph_of_a_lollipop_pulls_through_its_cover(monkeypatch):
    """Every level of L(lollipop 8, 12) pulls: a pull reads each clique
    member's hub once, where adj would scan the whole clique."""
    lg = line_graph(generate(FamilySpec("lollipop", 8, 12)))[0]
    assert lg._cover is not None
    taken = _directions(monkeypatch)
    got = graph_closeness(lg)
    assert taken and all(taken)
    assert _canonical(got) == _canonical(closeness_reference.graph_closeness(lg))
