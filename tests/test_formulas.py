"""Closed forms: frozen instances, oracle spot checks, print-form identities."""

import pytest

from closegraph import formulas
from closegraph.dyadic import Dyadic
from closegraph.formulas import (
    bridged_line,
    closed_form,
    closed_form_line,
    compose_bridge,
    compose_coalesce,
    compose_line_bridge,
    complete_vertex_closeness,
    cycle_vertex_closeness,
    path_leaf_closeness,
    shadow_closeness,
    star_leaf_closeness,
)
from closegraph.generators import FamilySpec, generate
from closegraph.graph import graph_closeness, vertex_closeness
from closegraph.transforms import bridge_join, line_graph

from conftest import build

P2 = Dyadic.pow2


def spec(family, p1, p2=None):
    return FamilySpec(family, p1, p2)


def oracle_total(s: FamilySpec) -> Dyadic:
    return graph_closeness(generate(s)).total


def oracle_line_total(s: FamilySpec) -> Dyadic:
    lg, _ = line_graph(generate(s))
    return graph_closeness(lg).total


# --- whole-family closed forms ---------------------------------------------

def test_closed_form_instances():
    assert closed_form(spec("cycle", 4)) == Dyadic(5)
    assert closed_form(spec("lollipop", 3, 2)) == Dyadic(7)
    assert closed_form(spec("bistar", 4, 3)) == Dyadic(12)
    assert closed_form(spec("complete", 1)) == Dyadic(0)
    assert closed_form(spec("path", 5)) == Dyadic(49, 3)
    assert closed_form(spec("star", 4)) == Dyadic(9, 1)
    assert closed_form(spec("tadpole", 4, 2)) == Dyadic(75, 3)
    assert closed_form(spec("broom", 4, 2)) == Dyadic(37, 2)


@pytest.mark.parametrize(
    "s",
    [
        spec("path", 1), spec("path", 2), spec("path", 9),
        spec("cycle", 3), spec("cycle", 6), spec("cycle", 9),
        spec("star", 2), spec("star", 7),
        spec("complete", 1), spec("complete", 6),
        spec("lollipop", 3, 1), spec("lollipop", 5, 4),
        spec("tadpole", 3, 2), spec("tadpole", 6, 3),
        spec("broom", 3, 1), spec("broom", 5, 4),
        spec("bistar", 3, 3), spec("bistar", 5, 4),
    ],
)
def test_closed_form_matches_oracle(s):
    assert closed_form(s) == oracle_total(s)


# --- line-graph closed forms -----------------------------------------------

def test_closed_form_line_instances():
    assert closed_form_line(spec("complete", 4)) == Dyadic(27, 1)
    assert closed_form_line(spec("lollipop", 3, 2)) == Dyadic(31, 2)
    assert closed_form_line(spec("star", 5)) == Dyadic(6)
    assert closed_form_line(spec("cycle", 7)) == closed_form(spec("cycle", 7))
    assert closed_form_line(spec("broom", 3, 1)) == Dyadic(3)


@pytest.mark.parametrize(
    "s",
    [
        spec("path", 2), spec("path", 8),
        spec("cycle", 4), spec("cycle", 7),
        spec("star", 2), spec("star", 6),
        spec("complete", 1), spec("complete", 2), spec("complete", 5),
        spec("lollipop", 3, 1), spec("lollipop", 4, 3),
        spec("tadpole", 4, 2), spec("tadpole", 5, 1),
        spec("broom", 3, 2), spec("broom", 6, 2),
        spec("bistar", 3, 3), spec("bistar", 4, 5),
    ],
)
def test_closed_form_line_matches_oracle(s):
    assert closed_form_line(s) == oracle_line_total(s)


def test_closed_form_line_rejects_single_vertex_path():
    with pytest.raises(ValueError):
        closed_form_line(spec("path", 1))


# --- pendant-bridge line graphs ---------------------------------------------

def test_bridged_line_instances():
    assert bridged_line("complete", 3) == (Dyadic(11, 1), Dyadic(5, 2))
    assert bridged_line("path", 4) == (Dyadic(17, 2), Dyadic(7, 3))
    assert bridged_line("star_center", 5) == (Dyadic(10), Dyadic(2))
    assert bridged_line("star_leaf", 4) == (Dyadic(5), Dyadic(1))
    assert bridged_line("cycle", 4) == (Dyadic(8), Dyadic(3, 1))
    assert bridged_line("cycle", 5) == (Dyadic(43, 2), Dyadic(13, 3))


@pytest.mark.parametrize(
    "case,attach,n",
    [
        ("path", 0, 1), ("path", 0, 5),
        ("cycle", 0, 4), ("cycle", 0, 7),
        ("star_leaf", 1, 2), ("star_leaf", 1, 6),
        ("star_center", 0, 2), ("star_center", 0, 6),
        ("complete", 0, 2), ("complete", 0, 5),
    ],
)
def test_bridged_line_matches_oracle(case, attach, n):
    family = {"star_leaf": "star", "star_center": "star"}.get(case, case)
    base = generate(spec(family, n))
    joined, _ = bridge_join(base, attach, build(1, [], ["B"]), 0)
    lg, origins = line_graph(joined)
    bridge_idx = next(
        k for k, o in enumerate(origins) if o.source == (attach, joined.order - 1)
    )
    expect_line, expect_bridge = bridged_line(case, n)
    assert graph_closeness(lg).total == expect_line
    assert vertex_closeness(lg, bridge_idx) == expect_bridge


def test_bridged_line_bounds():
    for case, bad in [("path", 0), ("cycle", 2), ("star_leaf", 1),
                      ("star_center", 1), ("complete", 1)]:
        with pytest.raises(ValueError, match=rf"^{case} case requires n >= {bad + 1}, got {bad}$"):
            bridged_line(case, bad)
    with pytest.raises(ValueError, match=r"^unknown bridged-line case 'wheel'; choose from \('path', "):
        bridged_line("wheel", 4)


# --- composition rules -------------------------------------------------------

def test_compose_bridge():
    z = Dyadic(0)
    assert compose_bridge(z, z, z, z) == Dyadic(1)
    assert compose_bridge(Dyadic(3), Dyadic(1), Dyadic(1), Dyadic(1, 1)) == Dyadic(7)
    assert compose_bridge(
        Dyadic(9, 1), Dyadic(5, 1), Dyadic(3, 1), Dyadic(1)
    ) == Dyadic(12)


def test_compose_coalesce():
    half = Dyadic(1, 1)
    assert compose_coalesce(Dyadic(1), Dyadic(1), half, half) == Dyadic(5, 1)
    x, c = Dyadic(77, 3), Dyadic(3, 2)
    assert compose_coalesce(x, Dyadic(0), c, Dyadic(0)) == x
    q = Dyadic(3, 2)  # leaf closeness of a 3-path
    assert compose_coalesce(Dyadic(5, 1), Dyadic(5, 1), q, q) == Dyadic(49, 3)


def test_compose_line_bridge():
    k3 = bridged_line("complete", 3)
    p2 = bridged_line("path", 2)
    assert compose_line_bridge(
        k3.line_closeness, p2.line_closeness,
        k3.bridge_vertex_closeness, p2.bridge_vertex_closeness,
    ) == Dyadic(31, 2)
    s4 = bridged_line("star_center", 4)
    s3 = bridged_line("star_center", 3)
    assert compose_line_bridge(
        s4.line_closeness, s3.line_closeness,
        s4.bridge_vertex_closeness, s3.bridge_vertex_closeness,
    ) == Dyadic(12)
    c, b = Dyadic(13, 2), Dyadic(5, 1)
    assert compose_line_bridge(c, Dyadic(0), b, Dyadic(0)) == c


def test_shadow_closeness_rule():
    assert shadow_closeness(Dyadic(1), 2) == Dyadic(5)
    assert shadow_closeness(Dyadic(3), 3) == Dyadic(27, 1)
    assert shadow_closeness(Dyadic(49, 3), 5) == Dyadic(27)


# --- per-vertex closed forms --------------------------------------------------

def test_vertex_closed_forms_match_oracle():
    for n in (1, 2, 4, 7):
        assert path_leaf_closeness(n) == vertex_closeness(generate(spec("path", n)), 0)
    for m in (1, 3, 6):
        assert complete_vertex_closeness(m) == vertex_closeness(
            generate(spec("complete", m)), 0
        )
    for m in (2, 4, 7):
        g = generate(spec("star", m))
        assert complete_vertex_closeness(m) == vertex_closeness(g, 0)  # the center
        assert star_leaf_closeness(m) == vertex_closeness(g, 1)
    for m in (3, 4, 7, 8):
        assert cycle_vertex_closeness(m) == vertex_closeness(
            generate(spec("cycle", m)), 0
        )


def test_exported_names_are_distinct_objects():
    """No name in formulas.__all__ aliases another, so wrapping each
    exported function wraps it once."""
    exported = [getattr(formulas, name) for name in formulas.__all__]
    assert len(set(map(id, exported))) == len(exported)


# --- composite forms decompose into part values --------------------------------

def test_composites_rebuild_from_parts():
    for m in range(3, 9):
        for n in range(1, 9):
            assert closed_form(spec("lollipop", m, n)) == compose_bridge(
                closed_form(spec("complete", m)), closed_form(spec("path", n)),
                complete_vertex_closeness(m), path_leaf_closeness(n),
            )
            assert closed_form(spec("tadpole", m, n)) == compose_bridge(
                closed_form(spec("cycle", m)), closed_form(spec("path", n)),
                cycle_vertex_closeness(m), path_leaf_closeness(n),
            )
            assert closed_form(spec("broom", m, n)) == compose_bridge(
                closed_form(spec("star", m)), closed_form(spec("path", n)),
                complete_vertex_closeness(m), path_leaf_closeness(n),
            )
            if n >= 3:
                assert closed_form(spec("bistar", m, n)) == compose_bridge(
                    closed_form(spec("star", m)), closed_form(spec("star", n)),
                    complete_vertex_closeness(m), complete_vertex_closeness(n),
                )


def test_line_composites_rebuild_from_bridged_values():
    pairs = {
        "lollipop": ("complete", "path"),
        "tadpole": ("cycle", "path"),
        "broom": ("star_center", "path"),
        "bistar": ("star_center", "star_center"),
    }
    for fam, (left_case, right_case) in pairs.items():
        for m in range(3, 9):
            for n in range(3 if fam == "bistar" else 1, 9):
                left = bridged_line(left_case, m)
                right = bridged_line(right_case, n)
                assert closed_form_line(spec(fam, m, n)) == compose_line_bridge(
                    left.line_closeness, right.line_closeness,
                    left.bridge_vertex_closeness, right.bridge_vertex_closeness,
                )


# --- equivalent printed shapes of the same formulas -----------------------------

def test_alternate_print_forms_agree():
    # several closed forms have two typographically different but
    # algebraically equal shapes; pin the implemented one to the other
    for m in range(3, 17):
        for n in range(1, 17):
            alt_line_lollipop = (
                Dyadic(m ** 4 + 2 * m ** 3 - 5 * m * m + 18 * m - 16, 4)
                - Dyadic(m * m + m - 10) * P2(-n - 1)
                + Dyadic(2 * n - 4)
            )
            assert closed_form_line(spec("lollipop", m, n)) == alt_line_lollipop
            if m % 2 == 0:
                k = m // 2
                alt_tadpole_even = (
                    Dyadic(4 * k) - Dyadic(6 * k) * P2(-k) + Dyadic(2 * n + 2)
                    - Dyadic(3) * P2(1 - k) + Dyadic(3) * P2(1 - n - k) - P2(1 - n)
                )
                assert closed_form(spec("tadpole", m, n)) == alt_tadpole_even
            else:
                k = (m - 1) // 2
                alt_line_tadpole_odd = (
                    Dyadic(4 * k + 2 * n + 6)
                    - Dyadic(8 * k + 16) * P2(-k - 1)
                    - P2(2 - n) + Dyadic(3) * P2(1 - k - n)
                )
                assert closed_form_line(spec("tadpole", m, n)) == alt_line_tadpole_odd
