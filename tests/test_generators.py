"""Family generators: shapes, conventions, reproducibility."""

import random
import re
import tracemalloc
from itertools import combinations

import pytest

from closegraph.generators import (
    FAMILIES,
    FamilySpec,
    gen_basic,
    gen_composite,
    gen_random_connected,
    parse_family_spec,
)
from closegraph.graph import MAX_ORDER, bfs_distances


def degree_sequence(g):
    return sorted((g.degree(v) for v in range(g.order)), reverse=True)


def test_star4():
    g = gen_basic(FamilySpec("star", 4))
    assert g.order == 4 and g.edge_count == 3
    assert degree_sequence(g) == [3, 1, 1, 1]


def test_cycle3_equals_complete3():
    assert gen_basic(FamilySpec("cycle", 3)) == gen_basic(FamilySpec("complete", 3))


def test_complete5_edges():
    assert gen_basic(FamilySpec("complete", 5)).edge_count == 10


def test_path2_is_single_edge():
    g = gen_basic(FamilySpec("path", 2))
    assert g.order == 2 and list(g.edges()) == [(0, 1)]
    s = gen_basic(FamilySpec("star", 2))
    assert s.order == 2 and list(s.edges()) == [(0, 1)]


def test_lollipop_shape():
    g = gen_composite(FamilySpec("lollipop", 3, 2))
    assert g.order == 5
    # m(m-1)/2 complete edges + (n-1) path edges + the bridge
    assert g.edge_count == 3 * 2 // 2 + 2
    assert g.has_edge(0, 3)  # bridge: complete-part vertex 0 to path leaf
    assert g.labels[:3] == ["K:0", "K:1", "K:2"]
    assert g.labels[3:] == ["P:0", "P:1"]


def test_tadpole_shape():
    g = gen_composite(FamilySpec("tadpole", 4, 2))
    assert g.order == 6 and g.edge_count == 6
    assert g.has_edge(0, 4)


def test_broom_shape():
    g = gen_composite(FamilySpec("broom", 4, 2))
    assert g.order == 6 and g.edge_count == (4 - 1) + 2
    # bridge leaves the star CENTER
    assert g.has_edge(0, 4)
    assert g.degree(0) == 4


def test_bistar_shape():
    g = gen_composite(FamilySpec("bistar", 4, 3))
    assert g.order == 7 and g.edge_count == 6
    assert g.has_edge(0, 4)  # center to center
    assert degree_sequence(g) == [4, 3, 1, 1, 1, 1, 1]


@pytest.mark.parametrize(
    "family,m,n,edges",
    [
        ("lollipop", 5, 4, 5 * 4 // 2 + 4),
        ("tadpole", 6, 3, 6 + 3),
        ("broom", 5, 3, (5 - 1) + 3),
        ("bistar", 5, 4, (5 - 1) + (4 - 1) + 1),
    ],
)
def test_composite_edge_counts(family, m, n, edges):
    g = gen_composite(FamilySpec(family, m, n))
    assert g.order == m + n
    assert g.edge_count == edges


@pytest.mark.parametrize(
    "spec",
    [
        (("cycle", 2), "cycle requires p1 >= 3, got 2"),
        (("star", 1), "star requires p1 >= 2, got 1"),
        (("path", 0), "path requires p1 >= 1, got 0"),
        (("tadpole", 2, 1), "tadpole requires p1 >= 3, got 2"),
        (("broom", 2, 1), "broom requires p1 >= 3, got 2"),
        (("bistar", 3, 2), "bistar requires p2 >= 3, got 2"),
        (("lollipop", 0, 1), "lollipop requires p1 >= 1, got 0"),
        (("path", 3, 4), "path takes one parameter, got two"),
        (("lollipop", 3, None), "lollipop takes two parameters, got one"),
        (("nonsense", 3), f"unknown family 'nonsense'; choose from {FAMILIES}"),
    ],
)
def test_validation_rejects(spec):
    # an invalid spec cannot be built, and says why
    args, message = spec
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        FamilySpec(*args)


def test_builders_reject_the_other_kind_of_family():
    with pytest.raises(ValueError, match="^lollipop is not a basic family$"):
        gen_basic(FamilySpec("lollipop", 3, 2))
    with pytest.raises(ValueError, match="^path is not a composite family$"):
        gen_composite(FamilySpec("path", 3))


@pytest.mark.parametrize(
    "args",
    [("path", MAX_ORDER),("cycle", MAX_ORDER), ("star", MAX_ORDER), ("complete", 447),
     ("lollipop", 447, 319), ("tadpole", 3, MAX_ORDER - 3), ("bistar", 3, MAX_ORDER - 3)],
)
def test_size_limit_admits_graphs_up_to_max_order(args):
    # K_447 has 99,681 edges; the lollipop adds 319 vertices and edges to it
    FamilySpec(*args)


@pytest.mark.parametrize(
    "args",
    [("path", MAX_ORDER + 1), ("complete", 448), ("complete", 100_000), ("lollipop", 447, 320),
     ("broom", 3, MAX_ORDER - 2), ("bistar", 10**12, 3)],
)
def test_size_limit_rejects_larger_graphs_before_building(args):
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"more than {MAX_ORDER} vertices or edges$"):
            FamilySpec(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_parse_family_spec():
    assert parse_family_spec("path:5") == FamilySpec("path", 5)
    assert parse_family_spec("lollipop:3,2") == FamilySpec("lollipop", 3, 2)
    assert parse_family_spec("bistar:4,3") == FamilySpec("bistar", 4, 3)
    assert parse_family_spec(" path : 5 ") == FamilySpec("path", 5)
    for bad in ("path", "path:", "path:a", "lollipop:3", "path:1,2,3", "cycle:2"):
        with pytest.raises(ValueError):
            parse_family_spec(bad)


@pytest.mark.parametrize("text", ["path:1_0", "path:+3", "path:\u0663", "lollipop:3,1_0"])
def test_parse_family_spec_takes_only_ascii_integers(text):
    message = f"bad family spec {text!r}: parameters must be integers"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        parse_family_spec(text)


def connected(g):
    return g.order == 0 or all(d >= 0 for d in bfs_distances(g, 0))


def test_random_connected_basics():
    g = gen_random_connected(1, 0, seed=9)
    assert g.order == 1 and g.edge_count == 0
    tree = gen_random_connected(5, 4, seed=7)
    assert tree.edge_count == 4 and connected(tree)
    full = gen_random_connected(6, 15, seed=1)
    assert full.edge_count == 15
    assert all(full.degree(v) == 5 for v in range(6))


def test_random_connected_reproducible():
    a = gen_random_connected(9, 17, seed=123)
    b = gen_random_connected(9, 17, seed=123)
    assert a == b
    c = gen_random_connected(9, 17, seed=124)
    assert a != c  # overwhelmingly likely for this budget


def test_random_connected_always_connected():
    for seed in range(25):
        g = gen_random_connected(7, 8, seed=seed)
        assert connected(g)
        assert g.edge_count == 8


def test_random_connected_budget_validation():
    with pytest.raises(ValueError):
        gen_random_connected(5, 3, seed=0)
    with pytest.raises(ValueError):
        gen_random_connected(5, 11, seed=0)
    with pytest.raises(ValueError):
        gen_random_connected(0, 0, seed=0)


def _random_connected_by_listing(order, edge_budget, seed):
    """gen_random_connected's edges as it drew them when it listed every
    spare pair before sampling."""
    rng = random.Random(seed)
    edges = {(rng.randrange(v), v) for v in range(1, order)}
    spare = [(u, v) for u, v in combinations(range(order), 2) if (u, v) not in edges]
    edges.update(rng.sample(spare, edge_budget - (order - 1)))
    return sorted(edges)


def _budgets(order):
    """Tree, one extra edge, a few extra, most pairs, complete less one,
    complete. From order 20 on, a few extra steer rng.sample into its
    set selection and most pairs into its pool selection, which draw
    different positions."""
    top = order * (order - 1) // 2
    picks = {order - 1, order, order + 4, (order - 1 + top) // 2, top - 1, top}
    return sorted(b for b in picks if order - 1 <= b <= top)


@pytest.mark.parametrize("order", [*range(1, 13), 20, 48, 130])
def test_random_connected_draws_what_listing_drew(order):
    for budget in _budgets(order):
        for seed in range(4):
            g = gen_random_connected(order, budget, seed=seed)
            assert sorted(g.edges()) == _random_connected_by_listing(order, budget, seed), (budget, seed)


@pytest.mark.parametrize("budget", [2999, 3100])
def test_random_connected_lists_no_spare_pairs(budget):
    """A tree or a sparse budget at order 3000 stays small: listing the
    4.5 million spare pairs took about 290 MiB."""
    tracemalloc.start()
    try:
        g = gen_random_connected(3000, budget, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert g.edge_count == budget
    assert peak < 8 * 1024 * 1024


def test_random_connected_tree_samples_nothing(monkeypatch):
    def refuse(*args):
        raise AssertionError("a tree budget sampled spare pairs")

    monkeypatch.setattr(random.Random, "sample", refuse)
    assert gen_random_connected(50, 49, seed=0).edge_count == 49
