"""The multi-source bitset BFS kernel against the per-source reference."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from closegraph import graph
from closegraph.dyadic import Dyadic
from closegraph.generators import FamilySpec, gen_random_connected, generate
from closegraph.graph import graph_closeness

import closeness_reference
from conftest import build
from strategies import any_graph, complete, complete_minus_edge, cycle, shuffled, tree

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
    pairs = list(itertools.combinations(range(order), 2))
    for k in range(len(pairs) + 1):
        for edges in itertools.combinations(pairs, k):
            assert_matches_reference(build(order, list(edges)))


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
