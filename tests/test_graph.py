"""Graph core: BFS, exact closeness, edge-list format."""

import re
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from closegraph import graph
from closegraph.dyadic import Dyadic
from closegraph.graph import (
    MAX_ORDER,
    UNREACHABLE,
    Graph,
    bfs_distances,
    format_edgelist,
    graph_closeness,
    parse_edgelist,
    to_dot,
    vertex_closeness,
)
from closegraph.generators import FamilySpec, gen_random_connected, generate
from closegraph.transforms import add_edge, delete_edge, shadow

from conftest import build, oracle_total_closeness, oracle_vertex_closeness
from strategies import any_graph, complete, cycle, shuffled, tree


def test_construction_validation():
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(0, 0)])
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(0, 1), (1, 0)])
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(0, 2)])
    with pytest.raises(ValueError):
        Graph.from_edges(2, [], labels=["a"])
    with pytest.raises(ValueError, match="order must be non-negative, got -1"):
        Graph.from_edges(-1, [])


def test_repr_and_comparison_with_other_types():
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    assert repr(g) == "Graph(order=3, edges=2)"
    assert g.__eq__(g.adj) is NotImplemented
    assert g != g.adj and g == Graph.from_edges(3, [(1, 2), (0, 1)])


def test_adjacency_sorted_and_symmetric():
    g = build(4, [(2, 0), (3, 1), (0, 1)])
    assert g.adj[0] == [1, 2]
    for u in range(g.order):
        for v in g.adj[u]:
            assert u in g.adj[v]
    assert g.has_edge(0, 2) and g.has_edge(2, 0)
    assert not g.has_edge(0, 3)


def test_has_edge_on_a_high_degree_vertex():
    hub = generate(FamilySpec("star", 20))  # the center has degree 19
    assert all(hub.has_edge(0, v) and hub.has_edge(v, 0) for v in range(1, 20))
    assert not hub.has_edge(0, 0) and not hub.has_edge(1, 2)
    for u, v in [(0, 20), (20, 0), (-1, 0), (0, -1)]:
        assert not hub.has_edge(u, v)


def test_bfs_path():
    g = build(3, [(0, 1), (1, 2)])
    assert bfs_distances(g, 0) == [0, 1, 2]


def test_bfs_disconnected():
    g = build(2, [])
    assert bfs_distances(g, 0) == [0, UNREACHABLE]


def test_bfs_cycle5():
    g = generate(FamilySpec("cycle", 5))
    assert bfs_distances(g, 0) == [0, 1, 2, 2, 1]


def test_bfs_source_out_of_range():
    g = build(2, [(0, 1)])
    with pytest.raises(IndexError):
        bfs_distances(g, 2)
    with pytest.raises(IndexError):
        vertex_closeness(g, -1)


def test_vertex_closeness_star_center():
    g = generate(FamilySpec("star", 4))
    assert vertex_closeness(g, 0) == Dyadic(3, 1)


def test_vertex_closeness_path_leaf():
    for n in (1, 2, 5, 9):
        g = generate(FamilySpec("path", n))
        assert vertex_closeness(g, 0) == Dyadic(1) - Dyadic.pow2(1 - n)


def test_vertex_closeness_edgeless():
    g = build(4, [])
    assert vertex_closeness(g, 2) == Dyadic(0)


def test_graph_closeness_k4():
    g = generate(FamilySpec("complete", 4))
    assert graph_closeness(g).total == Dyadic(6)


def test_graph_closeness_p5():
    g = generate(FamilySpec("path", 5))
    assert graph_closeness(g).total == Dyadic(49, 3)


def test_graph_closeness_empty():
    report = graph_closeness(build(0, []))
    assert report.total == Dyadic(0)
    assert report.per_vertex == []


def test_total_is_sum_of_per_vertex():
    g = gen_random_connected(9, 14, seed=3)
    report = graph_closeness(g)
    acc = Dyadic(0)
    for c in report.per_vertex:
        acc = acc + c
    assert acc == report.total


@pytest.mark.parametrize(
    "g",
    [
        build(5, [(0, 1), (1, 2), (2, 3), (3, 4)]),
        build(6, [(0, 1), (0, 2), (3, 4)]),  # disconnected
        generate(FamilySpec("tadpole", 5, 3)),
        gen_random_connected(10, 20, seed=11),
    ],
)
def test_matches_independent_oracle(g):
    report = graph_closeness(g)
    assert report.total.as_fraction() == oracle_total_closeness(g)
    for i in range(g.order):
        assert report.per_vertex[i].as_fraction() == oracle_vertex_closeness(g, i)


def test_distances_symmetric():
    g = gen_random_connected(8, 12, seed=17)
    rows = [bfs_distances(g, i) for i in range(g.order)]
    for i in range(g.order):
        for j in range(g.order):
            assert rows[i][j] == rows[j][i]


def test_component_additivity():
    left = generate(FamilySpec("cycle", 5))
    right = generate(FamilySpec("star", 4))
    edges = list(left.edges()) + [(5 + u, 5 + v) for u, v in right.edges()]
    union = build(9, edges)
    assert (
        graph_closeness(union).total
        == graph_closeness(left).total + graph_closeness(right).total
    )


def test_closeness_bounds():
    n = 7
    g = generate(FamilySpec("complete", n))
    report = graph_closeness(g)
    assert report.total == Dyadic(n * (n - 1), 1)
    star = generate(FamilySpec("star", 5))
    rep = graph_closeness(star)
    bound = Dyadic(star.order - 1, 1)
    for i, c in enumerate(rep.per_vertex):
        assert c <= bound
        # the bound is attained exactly at the vertex adjacent to all others
        assert (c == bound) == (star.degree(i) == star.order - 1)
    assert rep.total < Dyadic(star.order * (star.order - 1), 1)


def test_edge_monotonicity():
    g = gen_random_connected(8, 10, seed=5)
    base = graph_closeness(g).total
    u, v = next(e for e in [(a, b) for a in range(8) for b in range(a + 1, 8)]
                if not g.has_edge(*e))
    assert graph_closeness(add_edge(g, u, v)).total >= base
    eu, ev = next(iter(g.edges()))
    assert graph_closeness(delete_edge(g, eu, ev)).total <= base


def test_edgelist_round_trip():
    g = generate(FamilySpec("lollipop", 4, 3))
    text = format_edgelist(g)
    back = parse_edgelist(text)
    assert back.order == g.order
    assert list(back.edges()) == list(g.edges())
    assert graph_closeness(back).total == graph_closeness(g).total


@settings(max_examples=150, deadline=None)
@given(shuffled(st.one_of(any_graph(), tree(), cycle(), complete())))
def test_edgelist_round_trip_property(g):
    back = parse_edgelist(format_edgelist(g))
    assert back == g
    assert back.labels == [str(i) for i in range(g.order)]


def test_edgelist_comments_and_whitespace():
    text = "# graph\n3 2\n\n0 1\n  # inline comment line\n1 2\n"
    g = parse_edgelist(text)
    assert g.order == 3 and g.edge_count == 2


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("", "line 1"),
        ("2 1\n0 0\n", "line 2: self-loop"),
        ("2 2\n0 1\n1 0\n", "line 3: duplicate"),
        ("2 1\n0 5\n", "line 2: edge (0, 5) out of range"),
        ("2 2\n0 1\n", "declares 2 edges"),
        ("2 1\n0 1\nx y\n", "line 3"),
    ],
)
def test_edgelist_errors_carry_line_numbers(text, fragment):
    with pytest.raises(ValueError, match="line"):
        try:
            parse_edgelist(text)
        except ValueError as exc:
            assert fragment in str(exc)
            raise


@pytest.mark.parametrize("blank", ["\f", "\x85", "\u2028"], ids=["formfeed", "nel", "linesep"])
def test_edgelist_lines_end_only_at_newline(blank):
    """Other characters str.splitlines() breaks at are blanks inside a
    line, so line numbers match the file's newline count."""
    with pytest.raises(ValueError, match="^line 2: self-loop at vertex 0$"):
        parse_edgelist(f"2 1{blank}\n0 0\n")
    g = parse_edgelist(f"2 1{blank}\n{blank}0 1\n")
    assert g.order == 2 and list(g.edges()) == [(0, 1)]


def test_edgelist_crlf_line_ends():
    g = parse_edgelist("# crlf\r\n3 2\r\n0 1\r\n1 2\r\n")
    assert list(g.edges()) == [(0, 1), (1, 2)]
    with pytest.raises(ValueError, match="^line 3: self-loop"):
        parse_edgelist("2 1\r\n\r\n0 0\r\n")


@pytest.mark.parametrize(
    "text,lineno",
    [
        ("1_0 0\n", 1),
        ("+3 0\n", 1),
        ("\u0663 0\n", 1),  # ARABIC-INDIC DIGIT THREE
        ("3 0\uff10\n", 1),  # FULLWIDTH DIGIT ZERO after an ASCII digit
        ("2 1\n0 +1\n", 2),
        ("2 1\n0 1_\n", 2),
        ("2 1\n--0 1\n", 2),
        ("2 1\n0 \u00b9\n", 2),  # SUPERSCRIPT ONE
        ("2 1\n0x0 1\n", 2),
    ],
)
def test_edgelist_numbers_are_ascii_digits(text, lineno):
    with pytest.raises(ValueError, match=f"^line {lineno}: expected two integers, got "):
        parse_edgelist(text)


def test_edgelist_minus_sign_still_reads_as_a_number():
    with pytest.raises(ValueError, match="^line 1: negative count in header$"):
        parse_edgelist("-1 0\n")
    with pytest.raises(ValueError, match=r"^line 2: edge \(-1, 0\) out of range for order 2$"):
        parse_edgelist("2 1\n-1 0\n")
    assert parse_edgelist("002 001\n-0 01\n") == Graph.from_edges(2, [(0, 1)])


@pytest.mark.parametrize("order", [MAX_ORDER + 1, 100_000_000])
def test_header_order_capped_before_allocating(order):
    text = f"# header only\n{order} 0\n"
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"line 2: header declares {order} vertices"):
            parse_edgelist(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


@settings(max_examples=60, deadline=None)
@given(
    order=st.integers(min_value=2, max_value=10),
    extra=st.integers(min_value=0, max_value=20),
    seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
)
def test_distance_row_invariants(order, extra, seed):
    max_edges = order * (order - 1) // 2
    budget = min(order - 1 + extra, max_edges)
    g = gen_random_connected(order, budget, seed)
    for source in range(order):
        dist = bfs_distances(g, source)
        assert dist[source] == 0
        assert all(0 <= d <= order - 1 for d in dist)  # connected: all finite
        for v in g.adj[source]:
            assert dist[v] == 1


@settings(max_examples=60, deadline=None)
@given(
    order=st.integers(min_value=2, max_value=9),
    extra=st.integers(min_value=0, max_value=15),
    seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
)
def test_edge_monotonicity_property(order, extra, seed):
    max_edges = order * (order - 1) // 2
    budget = min(order - 1 + extra, max_edges)
    g = gen_random_connected(order, budget, seed)
    base = graph_closeness(g).total
    eu, ev = next(iter(g.edges()))
    assert graph_closeness(delete_edge(g, eu, ev)).total <= base
    non_edges = [
        (a, b) for a in range(order) for b in range(a + 1, order)
        if not g.has_edge(a, b)
    ]
    if non_edges:
        u, v = non_edges[0]
        assert graph_closeness(add_edge(g, u, v)).total >= base


def test_dot_export_has_labels():
    g = generate(FamilySpec("lollipop", 3, 2))
    dot = to_dot(g)
    assert 'label="K:0"' in dot and 'label="P:1"' in dot
    assert "0 -- 1;" in dot


# A DOT quoted string: '"', then characters other than '"' and '\\' or a
# backslash and any character, then '"'.
_DOT_LABEL = re.compile(r'  (\d+) \[label="((?:[^"\\]|\\.)*)"\];')


def test_dot_labels_are_quoted_strings_on_a_shadow_of_a_shadow():
    """Shadow copies add ' and " to their labels; every label line of the
    shadow of a shadow is one valid DOT quoted string that unescapes back
    to the label, backslashes included."""
    base = Graph.from_edges(3, [(0, 1), (1, 2)], ["a", "b\\", 'c"'])
    g, _ = shadow(shadow(base)[0])
    lines = [line for line in to_dot(g).splitlines() if "label=" in line]
    assert len(lines) == g.order == 12
    for i, line in enumerate(lines):
        match = _DOT_LABEL.fullmatch(line)
        assert match, line
        assert int(match[1]) == i
        assert re.sub(r"\\(.)", r"\1", match[2]) == g.labels[i], line
    assert lines[9] == '  9 [label="a\\"\\""];'  # 'a' + '"' + '"', not label="a"""


# Characters an edge list is made of, plus a few that never belong in one.
_EDGELIST_CHARS = "0123456789 -+_#\n\r\t\x0bx."


@st.composite
def _mutated_edgelist(draw):
    """A valid edge list with one to three lines edited: a number swapped
    for its neighbour on the line or a nearby one, a line repeated or
    dropped, or a short span of a line replaced by noise."""
    order, edges = draw(st.one_of(any_graph(), tree(), cycle()))
    lines = format_edgelist(build(order, edges)).splitlines()
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        if not lines:
            break
        i = draw(st.integers(min_value=0, max_value=len(lines) - 1))
        edit = draw(st.sampled_from(["number", "repeat", "drop", "noise"]))
        if edit == "number":
            tokens = lines[i].split() or [""]
            k = draw(st.integers(min_value=0, max_value=len(tokens) - 1))
            nearby = st.integers(min_value=-2, max_value=order + 1).map(str)
            tokens[k] = draw(st.one_of(st.sampled_from(tokens), nearby))
            lines[i] = " ".join(tokens)
        elif edit == "repeat":
            lines.insert(i, lines[i])
        elif edit == "drop":
            del lines[i]
        else:
            j = draw(st.integers(min_value=0, max_value=len(lines[i])))
            noise = draw(st.text(alphabet=_EDGELIST_CHARS, max_size=4))
            lines[i] = lines[i][:j] + noise + lines[i][j + 2 :]
    return "\n".join(lines) + "\n"


@st.composite
def _unusual_edgelist(draw):
    """A valid edge list written unusually: edges in any order and either
    orientation, numbers with leading zeros or as -0, blanks of several
    kinds (non-ASCII ones too) around and between them, CRLF line ends,
    and blank and comment lines anywhere."""
    order, edges = draw(st.one_of(any_graph(), tree(), cycle()))
    edges = draw(st.permutations(edges))
    blank = st.sampled_from([" ", "\t", "\x0b", "\f", "  ", " \t", "\xa0", "\u2028"])

    def number(k):
        zeros = draw(st.integers(min_value=0, max_value=2)) * "0"
        return draw(st.sampled_from(["-0", "0"])) if k == 0 and draw(st.booleans()) else zeros + str(k)

    rows = [(order, len(edges))]
    rows += [(v, u) if draw(st.booleans()) else (u, v) for u, v in edges]
    lines = []
    for a, b in rows:
        for _ in range(draw(st.integers(min_value=0, max_value=2))):
            lines.append(draw(st.sampled_from(["", "\t", "# note", "  #x y z", "#"])))
        lead = draw(blank) if draw(st.booleans()) else ""
        trail = draw(blank) if draw(st.booleans()) else ""
        lines.append(lead + number(a) + draw(blank) + number(b) + trail)
    end = "\r\n" if draw(st.booleans()) else "\n"
    return end.join(lines) + draw(st.sampled_from(["", end]))


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.text(max_size=30),
        st.text(alphabet=_EDGELIST_CHARS, max_size=30),
        _mutated_edgelist(),
        _unusual_edgelist(),
    )
)
def test_bulk_read_agrees_with_the_line_scan(text):
    """The bulk read gives None or the line scan's graph, and a graph for
    every edge list format_edgelist writes; so parse_edgelist gives the
    line scan's graph, or its message."""

    def parts(g):
        return g.order, g.adj, g.labels

    got = graph._read_edgelist(text)
    try:
        want = graph._scan_edgelist(text)
    except ValueError as exc:
        assert got is None, text
        with pytest.raises(ValueError) as raised:
            parse_edgelist(text)
        assert str(raised.value) == str(exc)
        return
    assert got is None or parts(got) == parts(want), text
    assert parts(parse_edgelist(text)) == parts(want)
    written = graph._read_edgelist(format_edgelist(want))
    assert written is not None and parts(written) == parts(want), text


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(
        st.text(max_size=30),
        st.text(alphabet=_EDGELIST_CHARS, max_size=30),
        _mutated_edgelist(),
    )
)
def test_parse_edgelist_fuzz(text):
    """Any text either parses to a valid graph that round-trips through
    format_edgelist, or raises ValueError with a line number."""
    try:
        g = parse_edgelist(text)
    except ValueError as exc:
        assert re.match(r"line [1-9][0-9]*: ", str(exc)), str(exc)
        return
    assert Graph.from_edges(g.order, list(g.edges())) == g
    assert parse_edgelist(format_edgelist(g)) == g
