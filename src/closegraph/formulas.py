"""Closed-form closeness evaluators.

Each function is a pure map from integer family parameters to the exact
closeness value as a :class:`Dyadic`. Every closed form here has a
matching brute-force check in the verification sweeps: build the graph,
run BFS closeness, compare bit-exactly.

Cycle-shaped formulas split on parity (m = 2k vs m = 2k+1); where two
algebraically equal printed forms exist for the same closeness, the
sweeps pin down that the one implemented here agrees with the oracle.
"""

from __future__ import annotations

from typing import NamedTuple

from .dyadic import Dyadic
from .generators import FamilySpec

__all__ = [
    "BridgedLineValues",
    "closed_form",
    "closed_form_line",
    "bridged_line",
    "compose_bridge",
    "compose_coalesce",
    "compose_line_bridge",
    "shadow_closeness",
    "path_leaf_closeness",
    "complete_vertex_closeness",
    "star_leaf_closeness",
    "cycle_vertex_closeness",
]

# The pendant-bridge cases bridged_line accepts: case -> (base family, the
# vertex its pendant edge attaches to, least n).
BRIDGED_CASES = {
    "path": ("path", 0, 1),
    "cycle": ("cycle", 0, 3),
    "star_leaf": ("star", 1, 2),
    "star_center": ("star", 0, 2),
    "complete": ("complete", 0, 2),
}

_P2 = Dyadic.pow2


def _path_total(n: int) -> Dyadic:
    # 2n - 4 + 2^(2-n)
    return Dyadic(2 * n - 4) + _P2(2 - n)


def _cycle_total(n: int) -> Dyadic:
    if n % 2 == 0:
        k = n // 2
        return Dyadic(4 * k) - Dyadic(6 * k) * _P2(-k)
    k = (n - 1) // 2
    return Dyadic(2 * n) - Dyadic(2 * n) * _P2(-k)


def closed_form(spec: FamilySpec) -> Dyadic:
    """Exact closeness of the family graph itself."""
    f, m, n = spec.family, spec.p1, spec.p2
    if f == "path":
        return _path_total(m)
    if f == "cycle":
        return _cycle_total(m)
    if f == "star":
        return Dyadic((m - 1) * (m + 2), 2)
    if f == "complete":
        return Dyadic(m * (m - 1), 1)
    if f == "lollipop":
        return (
            Dyadic(m, 1) * (Dyadic(m + 1) - _P2(1 - n))
            + Dyadic(2 * n - 3)
            + Dyadic(3) * _P2(-n)
        )
    if f == "tadpole":
        if m % 2 == 0:
            k = m // 2
            return (
                Dyadic(4 * k)
                - Dyadic(6 * k) * _P2(-k)
                + Dyadic(2 * n + 2)
                + Dyadic(6) * (_P2(-n - k) - _P2(-k))
                - _P2(1 - n)
            )
        k = (m - 1) // 2
        return (
            Dyadic(4 * k)
            - Dyadic(k) * _P2(2 - k)
            + Dyadic(2 * n + 4)
            + _P2(2 - n - k)
            - Dyadic(3) * _P2(1 - k)
            - _P2(1 - n)
        )
    if f == "broom":
        return (
            Dyadic(m, 2) * (Dyadic(m + 5) - _P2(2 - n))
            + Dyadic(4 * n - 7, 1)
            + Dyadic(3) * _P2(-n)
        )
    return Dyadic(m * (m + 2) + n * (n + 2) + m * n - 3, 2)  # bistar


def closed_form_line(spec: FamilySpec) -> Dyadic:
    """Exact closeness of the family graph's line graph."""
    f, m, n = spec.family, spec.p1, spec.p2
    if f == "path":
        if m < 2:
            raise ValueError("line graph of a single-vertex path is empty; need n >= 2")
        return _path_total(m - 1)
    if f == "cycle":
        return _cycle_total(m)
    if f == "star":
        return Dyadic((m - 1) * (m - 2), 1)
    if f == "complete":
        return Dyadic(m * (m ** 3 + 2 * m * m - 13 * m + 10), 4)
    if f == "lollipop":
        return (
            Dyadic(m * (m ** 3 + 2 * m * m - 5 * m + 18), 4)
            - Dyadic(m * m + m - 10) * _P2(-n - 1)
            + Dyadic(2 * n - 5)
        )
    if f == "tadpole":
        if m % 2 == 0:
            k = m // 2
            return (
                Dyadic(4 * k + 2 * n + 4)
                - Dyadic(6 * k + 8) * _P2(-k)
                - _P2(2 - n)
                + _P2(3 - k - n)
            )
        k = (m - 1) // 2
        return (
            Dyadic(4 * k + 2 * n + 6)
            - Dyadic(4 * k + 8) * _P2(-k)
            - _P2(2 - n)
            + Dyadic(3) * _P2(1 - k - n)
        )
    if f == "broom":
        return Dyadic(m * (m + 1), 1) + Dyadic(2 * n - 5) + Dyadic(3 - m) * _P2(1 - n)
    return Dyadic((m - 1) ** 2 + (n - 1) ** 2 + m * n - 1, 1)  # bistar


class BridgedLineValues(NamedTuple):
    """Closeness of the line graph of G plus a pendant bridge edge, and
    of the bridge's vertex within that line graph."""

    line_closeness: Dyadic
    bridge_vertex_closeness: Dyadic


def bridged_line(case: str, n: int) -> BridgedLineValues:
    """Closed forms for L(G + pendant edge) where G is one of the basic
    families and the pendant attaches at the convention vertex (path
    leaf, cycle vertex, star leaf or center, complete-graph vertex).
    """
    if case not in BRIDGED_CASES:
        raise ValueError(
            f"unknown bridged-line case {case!r}; choose from {tuple(BRIDGED_CASES)}"
        )
    _, _, least = BRIDGED_CASES[case]
    if n < least:
        raise ValueError(f"{case} case requires n >= {least}, got {n}")
    if case == "path":
        return BridgedLineValues(_path_total(n), Dyadic(1) - _P2(1 - n))
    if case == "cycle":
        if n % 2 == 0:
            k = n // 2
            return BridgedLineValues(
                Dyadic(4 * k + 4) - Dyadic(6 * k + 4) * _P2(-k),
                Dyadic(2) - _P2(1 - k),
            )
        k = (n - 1) // 2
        return BridgedLineValues(
            Dyadic(4 * k + 6) - Dyadic(8 * k + 10) * _P2(-k - 1),
            Dyadic(2) - Dyadic(3) * _P2(-k - 1),
        )
    if case == "star_leaf":
        return BridgedLineValues(Dyadic((n - 1) * (n - 2) + n, 1), Dyadic(n, 2))
    if case == "star_center":
        return BridgedLineValues(Dyadic(n * (n - 1), 1), Dyadic(n - 1, 1))
    return BridgedLineValues(  # complete
        Dyadic(n ** 4 + 2 * n ** 3 - 9 * n * n + 14 * n - 8, 4),
        Dyadic((n - 1) * (n + 2), 3),
    )


def compose_bridge(cg1: Dyadic, cg2: Dyadic, cp: Dyadic, cq: Dyadic) -> Dyadic:
    """Closeness of two graphs joined by a bridge edge (p, q):
    C(G1) + C(G2) + (1 + C(p)) * (1 + C(q))."""
    return cg1 + cg2 + (Dyadic(1) + cp) * (Dyadic(1) + cq)


def compose_coalesce(cg1: Dyadic, cg2: Dyadic, cp: Dyadic, cq: Dyadic) -> Dyadic:
    """Closeness of two graphs with p and q merged into one vertex:
    C(G1) + C(G2) + 2 * C(p) * C(q)."""
    return cg1 + cg2 + Dyadic(2) * cp * cq


def compose_line_bridge(cl1: Dyadic, cl2: Dyadic, cb1: Dyadic, cb2: Dyadic) -> Dyadic:
    """Closeness of the line graph of G1 + bridge + G2, from the two
    pendant-bridge line graphs: the bridge vertices of L(G1+B1) and
    L(G2+B2) coalesce, so this is the merge rule at those vertices."""
    return cl1 + cl2 + Dyadic(2) * cb1 * cb2


def shadow_closeness(cg: Dyadic, order: int) -> Dyadic:
    """Closeness of the shadow graph of a connected graph (at least one
    edge) with the given order: 4 * C(G) + order / 2."""
    return Dyadic(4) * cg + Dyadic(order, 1)


def path_leaf_closeness(n: int) -> Dyadic:
    """Closeness of a leaf of P_n: 1 - 2^(1-n)."""
    return Dyadic(1) - _P2(1 - n)


def complete_vertex_closeness(m: int) -> Dyadic:
    """Closeness of any vertex of K_m, and of the center of S_m (m total
    vertices), which has the same m-1 neighbours: (m-1)/2."""
    return Dyadic(m - 1, 1)


def star_leaf_closeness(m: int) -> Dyadic:
    """Closeness of a leaf of S_m: 1/2 + (m-2)/4 = m/4."""
    return Dyadic(m, 2)


def cycle_vertex_closeness(m: int) -> Dyadic:
    """Closeness of any vertex of C_m (total closeness over m)."""
    if m % 2 == 0:
        k = m // 2
        return Dyadic(2) - Dyadic(3) * _P2(-k)
    k = (m - 1) // 2
    return Dyadic(2) - _P2(1 - k)
