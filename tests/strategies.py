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
