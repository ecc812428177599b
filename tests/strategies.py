"""Hypothesis strategies for small graphs, shared by the differential tests.

Each part strategy draws ``(order, edges)``; ``shuffled`` joins one or
two parts into a disjoint union, adds isolated vertices and permutes the
vertex indices.
"""

import itertools

from hypothesis import strategies as st

from conftest import build


@st.composite
def any_graph(draw):
    n = draw(st.integers(min_value=0, max_value=9))
    pairs = list(itertools.combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return n, [e for e, k in zip(pairs, keep) if k]


@st.composite
def tree(draw):
    n = draw(st.integers(min_value=1, max_value=10))
    return n, [(draw(st.integers(min_value=0, max_value=v - 1)), v) for v in range(1, n)]


@st.composite
def cycle(draw):
    n = draw(st.integers(min_value=3, max_value=10))
    return n, [(i, (i + 1) % n) for i in range(n)]


@st.composite
def complete_minus_edge(draw):
    n = draw(st.integers(min_value=2, max_value=8))
    pairs = list(itertools.combinations(range(n), 2))
    gone = draw(st.sampled_from(pairs))
    return n, [e for e in pairs if e != gone]


def spider_edges(legs):
    """(order, edges) of a spider: from centre 0, one path per entry of
    legs, with that many edges."""
    order, edges = 1, []
    for length in legs:
        edges.append((0, order))
        edges += [(v, v + 1) for v in range(order, order + length - 1)]
        order += length
    return order, edges


@st.composite
def spider(draw):
    """Three or four legs of 2 to 3 edges. Deleting the centre leaves one
    entry group per leg, so every group but the largest is rerun; half
    the draws make every leg as long, so that the largest ties."""
    count = draw(st.integers(min_value=3, max_value=4))
    lengths = st.integers(min_value=2, max_value=3)
    if draw(st.booleans()):
        return spider_edges([draw(lengths)] * count)
    return spider_edges(draw(st.lists(lengths, min_size=count, max_size=count)))


@st.composite
def theta(draw):
    """Three paths of 2 to 4 edges between vertices 0 and 1. Deleting an
    end leaves three entry groups; a vertex opposite another on a cycle
    enters it through both of its neighbours there, so groups overlap."""
    order, edges = 2, []
    for length in draw(st.lists(st.integers(min_value=2, max_value=4), min_size=3, max_size=3)):
        inner = list(range(order, order + length - 1))
        path = [0, *inner, 1]
        edges += list(zip(path, path[1:]))
        order += length - 1
    return order, edges


@st.composite
def even_cycle_with_chord(draw):
    """C_2m, m from 2 to 6, plus one chord from vertex 0: the vertex
    opposite a cycle vertex enters it through both of its neighbours."""
    n = 2 * draw(st.integers(min_value=2, max_value=6))
    j = draw(st.integers(min_value=2, max_value=n - 2))
    return n, [(i, (i + 1) % n) for i in range(n)] + [(0, j)]


@st.composite
def shuffled(draw, parts):
    """A disjoint union of one or two generated parts, plus isolated
    vertices, with the vertex indices permuted."""
    order, edges = 0, []
    for _ in range(draw(st.integers(min_value=1, max_value=2))):
        n, part = draw(parts)
        edges += [(u + order, v + order) for u, v in part]
        order += n
    order += draw(st.integers(min_value=0, max_value=2))
    perm = draw(st.permutations(range(order)))
    return build(order, [(perm[u], perm[v]) for u, v in edges])


@st.composite
def complete(draw):
    n = draw(st.integers(min_value=1, max_value=9))
    return n, list(itertools.combinations(range(n), 2))
