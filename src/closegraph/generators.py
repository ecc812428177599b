"""Generators for the graph families with fixed labeling conventions.

Conventions (they matter: the closed-form verifications assume them):

* path P_n: vertices 0..n-1 chained; vertex 0 is "the" leaf end.
* cycle C_n: the chain plus edge (n-1, 0).
* star S_n: n total vertices, center 0 adjacent to 1..n-1.
* complete K_n: all pairs.
* lollipop L_{m,n}: K_m vertex 0 bridged to the leaf of P_n.
* tadpole T_{m,n}: C_m vertex 0 bridged to the leaf of P_n.
* broom B_{m,n}: the CENTER of S_m bridged to the leaf of P_n.
* bistar BS_{m,n}: centers of S_m and S_n bridged together.

Composite graphs index the left part first, so the bridge is always
(0, m) and labels carry the part of origin (e.g. "K:2", "P:0").
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate

from .graph import MAX_ORDER, Graph, _parse_int, _sorted_adjacency
from .transforms import bridge_join

__all__ = [
    "BASIC_FAMILIES",
    "COMPOSITE_FAMILIES",
    "FAMILIES",
    "MINIMA",
    "COMPOSITE_PARTS",
    "FamilySpec",
    "check_family",
    "parse_family_spec",
    "gen_basic",
    "gen_composite",
    "generate",
    "gen_random_connected",
]

BASIC_FAMILIES = ("path", "cycle", "star", "complete")
# the basic families a composite bridges together, left part first; each
# part is joined at its vertex 0 (complete/cycle vertex, star center, path leaf)
COMPOSITE_PARTS = {
    "lollipop": ("complete", "path"),
    "tadpole": ("cycle", "path"),
    "broom": ("star", "path"),
    "bistar": ("star", "star"),
}
COMPOSITE_FAMILIES = tuple(COMPOSITE_PARTS)
FAMILIES = BASIC_FAMILIES + COMPOSITE_FAMILIES

# minimum p1 (and p2 where composite) for each family
MINIMA = {
    "path": (1, None),
    "cycle": (3, None),
    "star": (2, None),
    "complete": (1, None),
    "lollipop": (1, 1),
    "tadpole": (3, 1),
    "broom": (3, 1),
    "bistar": (3, 3),
}


def check_family(name: str) -> None:
    if name not in FAMILIES:
        raise ValueError(f"unknown family {name!r}; choose from {FAMILIES}")


@dataclass(frozen=True)
class FamilySpec:
    """A named graph family with integer parameters (p2 iff composite).
    Building one checks the parameters and the size of the graph."""

    family: str
    p1: int
    p2: int | None = None

    def __post_init__(self):
        check_family(self.family)
        lo1, lo2 = MINIMA[self.family]
        if lo2 is None and self.p2 is not None:
            raise ValueError(f"{self.family} takes one parameter, got two")
        if lo2 is not None and self.p2 is None:
            raise ValueError(f"{self.family} takes two parameters, got one")
        if self.p1 < lo1:
            raise ValueError(f"{self.family} requires p1 >= {lo1}, got {self.p1}")
        if lo2 is not None and self.p2 < lo2:
            raise ValueError(f"{self.family} requires p2 >= {lo2}, got {self.p2}")
        # max(vertices, edges): only a complete part K_m has more edges
        # than vertices, m(m-1)/2 = m + m(m-3)/2
        size = self.p1 + (self.p2 or 0)
        if self.family in ("complete", "lollipop"):
            size += max(0, self.p1 * (self.p1 - 3) // 2)
        if size > MAX_ORDER:
            raise ValueError(f"{self} has more than {MAX_ORDER} vertices or edges")

    def __str__(self):
        if self.p2 is None:
            return f"{self.family}:{self.p1}"
        return f"{self.family}:{self.p1},{self.p2}"


def parse_family_spec(text: str) -> FamilySpec:
    """Parse the CLI syntax "path:5" / "lollipop:3,2"."""
    name, sep, params = text.partition(":")
    if not sep or not params:
        raise ValueError(f"bad family spec {text!r}: expected 'family:p1[,p2]'")
    parts = params.split(",")
    if len(parts) not in (1, 2):
        raise ValueError(f"bad family spec {text!r}: expected one or two parameters")
    try:
        numbers = [_parse_int(p) for p in parts]
    except ValueError:
        raise ValueError(f"bad family spec {text!r}: parameters must be integers") from None
    return FamilySpec(name.strip(), *numbers)


def gen_basic(spec: FamilySpec) -> Graph:
    """Build one of path, cycle, star, complete."""
    n, fam = spec.p1, spec.family
    if fam in ("path", "cycle"):
        adj = [[i - 1, i + 1] for i in range(n)]
        if fam == "path":  # no -1 before the first, no n after the last
            del adj[0][0], adj[-1][-1]
        else:
            adj[0], adj[-1] = [1, n - 1], [0, n - 2]
    elif fam == "star":
        adj = [[0] for _ in range(n)]
        adj[0] = list(range(1, n))
    elif fam == "complete":
        adj = [[*range(i), *range(i + 1, n)] for i in range(n)]
    else:
        raise ValueError(f"{fam} is not a basic family")
    prefix = "K" if fam == "complete" else fam[0].upper()  # P, C, S or K
    return Graph(n, adj, [f"{prefix}:{i}" for i in range(n)])


def gen_composite(spec: FamilySpec) -> Graph:
    """Build one of lollipop, tadpole, broom, bistar via a bridge join."""
    if spec.family not in COMPOSITE_PARTS:
        raise ValueError(f"{spec.family} is not a composite family")
    left, right = (
        gen_basic(FamilySpec(part, p))
        for part, p in zip(COMPOSITE_PARTS[spec.family], (spec.p1, spec.p2))
    )
    joined, _ = bridge_join(left, 0, right, 0)
    return joined


def generate(spec: FamilySpec) -> Graph:
    """Build any family."""
    if spec.family in BASIC_FAMILIES:
        return gen_basic(spec)
    return gen_composite(spec)


def gen_random_connected(order: int, edge_budget: int, seed: int) -> Graph:
    """Seeded connected graph: a random spanning tree plus uniformly
    chosen extra edges. The extra edges are drawn as positions among the
    spare pairs, the pairs (u, v), u < v < order, outside the tree in
    lexicographic order, so no list of those pairs is built. Same
    (order, edge_budget, seed) gives the same adjacency.
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    max_edges = order * (order - 1) // 2
    if not (order - 1 <= edge_budget <= max_edges):
        raise ValueError(
            f"edge_budget {edge_budget} infeasible for order {order}: "
            f"need {order - 1}..{max_edges}"
        )
    rng = random.Random(seed)
    edges = set()
    for v in range(1, order):
        u = rng.randrange(v)
        edges.add((u, v))
    extra = edge_budget - (order - 1)
    if extra:
        # pair (u, v) is at rows[u] + v - u - 1 among all pairs, and the
        # i-th spare pair has bisect_right(before, i) tree pairs before it
        rows = list(accumulate(range(order - 1, 0, -1), initial=0))
        before = [t - k for k, t in enumerate(sorted([rows[u] + v - u - 1 for u, v in edges]))]
        for i in rng.sample(range(max_edges - len(edges)), extra):
            p = i + bisect_right(before, i)
            u = bisect_right(rows, p) - 1
            edges.add((u, p - rows[u] + u + 1))
    return Graph(order, _sorted_adjacency(order, edges), [str(i) for i in range(order)])
