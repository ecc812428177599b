"""The transforms and generators build their adjacency lists themselves,
without Graph.from_edges. Each graph they build must be exactly the one
from_edges builds from its edges and labels, with sorted, symmetric,
loop-free adjacency, and no graph they are given may change.
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
from closegraph.graph import Graph
from closegraph.transforms import bridge_join, coalesce_join, line_graph, shadow

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

    def capturing(*args):
        result = transform(*args)
        built.extend([g for g in args if isinstance(g, Graph)] + [result[0]])
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
    _capture(monkeypatch, "bridge_join", built)
    _capture(monkeypatch, "shadow", built)
    records = verify._eval_task(task)
    assert built and records and all(r.passed for r in records)
    for g in built:
        assert_built_as_from_edges(g)
