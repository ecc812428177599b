"""Simple undirected graphs, BFS distances, and exact closeness.

Closeness of a vertex i is sum over j != i of 2**-d(i,j); unreachable
pairs contribute exactly 0, so the measure is defined on disconnected
graphs too. Graph closeness is the sum over all vertices. All values
are exact :class:`~closegraph.dyadic.Dyadic` numbers, never floats.
"""

from __future__ import annotations

import itertools
import operator
import re
from dataclasses import dataclass

from .dyadic import Dyadic

__all__ = [
    "UNREACHABLE",
    "MAX_ORDER",
    "Graph",
    "ClosenessReport",
    "bfs_distances",
    "vertex_closeness",
    "graph_closeness",
    "parse_edgelist",
    "format_edgelist",
    "to_dot",
]

UNREACHABLE = -1

# Largest order an edge-list header may declare. Every declared vertex
# costs about 350 bytes before any edge is read, and all-pairs closeness
# in pure Python is far out of reach long before this size.
MAX_ORDER = 100_000

# Bits per block of the bitset BFS traversals that run on _levels, over a
# graph of n vertices: a bit per source (_source_levels), per edge
# (_line_closeness) or per lane (_deletion_sums). A block is _width(n) =
# max(_BLOCK, _BLOCK_BITS // n) bits wide. Every edge scan is shared by all
# of a block's bits, so wider blocks mean fewer scans; a list of balls, one
# block bitset per vertex, then holds about n * width / 8 <= _BLOCK_BITS / 8
# bytes = 4 MiB. _levels holds at most three, the balls before a level,
# after it and being built, and _line_closeness its seed besides; it ORs
# one edge's two balls at a time, so L(K_128 plus a pendant edge) takes
# balls of 129 x 8,129 bits, about 130 kB. Graphs up to n = 5792 run all
# their bits as one block; from n = 32768 on, blocks are _BLOCK wide and a
# list takes n * _BLOCK / 8 bytes (about 12 MiB at MAX_ORDER).
_BLOCK = 1024
_BLOCK_BITS = 1 << 25

# One integer of any text input: ASCII digits with an optional leading '-'.
_INTEGER = re.compile("-?[0-9]+")


def _parse_int(text: str) -> int:
    """int(text) for a text that is an _INTEGER once stripped of blanks;
    int() alone also takes "+3", "1_0" and non-ASCII digits."""
    text = text.strip()
    if not _INTEGER.fullmatch(text):
        raise ValueError(f"expected an integer, got {text!r}")
    return int(text)


class Graph:
    """Immutable simple undirected graph with dense 0-based vertex indices.

    Adjacency lists are kept sorted so iteration order, reports, and file
    output are reproducible. :meth:`from_edges` validates callers' input;
    the transforms and generators build sorted adjacency themselves and
    pass it to the constructor, which trusts it. Graphs may share lists,
    so none is ever mutated.
    """

    __slots__ = ("order", "adj", "labels", "__weakref__")

    def __init__(self, order: int, adj: list[list[int]], labels: list[str]):
        self.order = order
        self.adj = adj
        self.labels = labels

    @classmethod
    def from_edges(
        cls,
        order: int,
        edges,
        labels: list[str] | None = None,
    ) -> "Graph":
        """Build a graph from callers' input, rejecting loops, duplicates
        and bad indices; the package's own builders skip these checks."""
        if order < 0:
            raise ValueError(f"order must be non-negative, got {order}")
        adj: list[set[int]] = [set() for _ in range(order)]
        for u, v in edges:
            if not (0 <= u < order and 0 <= v < order):
                raise ValueError(f"edge ({u}, {v}) out of range for order {order}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if v in adj[u]:
                raise ValueError(f"duplicate edge ({u}, {v})")
            adj[u].add(v)
            adj[v].add(u)
        if labels is None:
            labels = [str(i) for i in range(order)]
        elif len(labels) != order:
            raise ValueError("labels length must equal order")
        return cls(order, [sorted(s) for s in adj], list(labels))

    @property
    def edge_count(self) -> int:
        return sum(len(a) for a in self.adj) // 2

    def edges(self):
        """Yield edges (u, v) with u < v, in lexicographic order."""
        for u, nbrs in enumerate(self.adj):
            for v in nbrs:
                if v > u:
                    yield (u, v)

    def has_edge(self, u: int, v: int) -> bool:
        return 0 <= u < self.order and 0 <= v < self.order and v in self.adj[u]

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self.order == other.order and self.adj == other.adj

    def __repr__(self):
        return f"Graph(order={self.order}, edges={self.edge_count})"


@dataclass
class ClosenessReport:
    """Per-vertex closenesses and their sum for one graph."""

    per_vertex: list[Dyadic]
    total: Dyadic


def bfs_distances(g: Graph, source: int) -> list[int]:
    """Hop distances from source; UNREACHABLE (-1) where no path exists."""
    if not (0 <= source < g.order):
        raise IndexError(f"source {source} out of range for order {g.order}")
    adj = g.adj
    dist = [UNREACHABLE] * g.order
    dist[source] = 0
    frontier = [source]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for v in frontier:
            for w in adj[v]:
                if dist[w] < 0:
                    dist[w] = d
                    nxt.append(w)
        frontier = nxt
    return dist


def _closeness_from_distances(dist: list[int]) -> Dyadic:
    # sum of 2**-d as one big numerator over 2**maxd
    maxd = 0
    counts: dict[int, int] = {}
    for d in dist:
        if d > 0:
            counts[d] = counts.get(d, 0) + 1
            if d > maxd:
                maxd = d
    if not counts:
        return Dyadic(0)
    num = 0
    for d, c in counts.items():
        num += c << (maxd - d)
    return Dyadic(num, maxd)


def vertex_closeness(g: Graph, i: int) -> Dyadic:
    """Closeness of vertex i: sum over j != i of 2**-d(i,j)."""
    if not (0 <= i < g.order):
        raise IndexError(f"vertex {i} out of range for order {g.order}")
    return _closeness_from_distances(bfs_distances(g, i))


def _width(n: int) -> int:
    """Bits per block of a bitset BFS over n vertices (module comment at
    _BLOCK); reads _BLOCK and _BLOCK_BITS at call time."""
    return max(_BLOCK, _BLOCK_BITS // (n or 1))


def _levels(adj: list[list[int]], ball: list[int], full: int, keep=None, gates=None):
    """The level loop of the bitset BFS traversals below (multi-source
    bit-parallel BFS; Then et al., PVLDB 2014), one bit per BFS.

    adj is symmetric, ball[v] holds the bits that start at v, as the
    caller seeds them, and full every bit. Level k pulls: it ORs each
    vertex's neighbours' balls into its own, so that ball[v] holds the
    bits within distance k of v, and yields (old, ball), the balls before
    and after it, so that ball[v] ^ old[v] are the bits at distance k
    from v. keep, if given, maps a vertex to the only bits its ball may
    hold, so that it never forwards the others; gates maps edges (u, w)
    that adj leaves out to the bits that may cross them from u to w:
    ball[u] & bits joins w's next ball. Gates and keep masks apply after
    the pull.

    The loop ends, unyielded, on the first level on which no ball grows,
    never merely because one ball did not: a block may hold sources at
    distances 1 and 3 from a vertex and none at 2. It also ends once every
    ball is full.

    The pull reads live lists: (v, x) and (v, x, y) tuples for vertices
    of one and two neighbours, which need no inner loop, and the vertices
    with more. A vertex whose ball is full leaves them when they are
    rebuilt, once more than half of their vertices have filled, so the
    rebuilds cost O(n) in all. No per-vertex state is kept between
    rebuilds.
    """
    n = len(adj)
    live = range(n)
    while True:
        ones, twos, more = [], [], []
        for v in live:
            nbrs = adj[v]
            if len(nbrs) == 1:
                ones.append((v, *nbrs))
            elif len(nbrs) == 2:
                twos.append((v, *nbrs))
            elif nbrs:
                more.append(v)
        while True:
            new = ball[:]
            for v, x in ones:
                new[v] |= ball[x]
            for v, x, y in twos:
                new[v] |= ball[x] | ball[y]
            for v in more:
                acc = new[v]
                for x in adj[v]:
                    acc |= ball[x]
                new[v] = acc
            if gates:
                for (u, w), bits in gates.items():
                    new[w] |= ball[u] & bits
            if keep:
                for x, mask in keep.items():
                    new[x] &= mask
            if new == ball:
                return
            old, ball = ball, new
            yield old, ball
            # every vertex is live until the first rebuild
            filled = (ball if len(live) == n else list(map(ball.__getitem__, live))).count(full)
            if 2 * filled > len(live):
                break
        live = [v for v in live if ball[v] != full]
        if not live:
            return


def _source_levels(g: Graph):
    """Per block of _width(n) vertices of g, the run of _levels from them
    as sources, one bit each: the run yields (old, ball) per level, and on
    level k, v's ball holds the block's sources within distance k of v."""
    n = g.order
    width = _width(n)
    for lo in range(0, n, width):
        hi = min(lo + width, n)
        ball = [0] * lo + [1 << i for i in range(hi - lo)] + [0] * (n - hi)
        yield _levels(g.adj, ball, (1 << (hi - lo)) - 1)


def _line_closeness(g: Graph, picks=()) -> tuple[Dyadic, list[Dyadic]]:
    """The total closeness of the line graph L(g), and the closeness in
    L(g) of each edge (c, d), c < d, of picks, without building L(g).

    Distinct edges e and f are at distance 1 + the least distance in g
    between an end of e and an end of f in L(g). So with one lane per edge
    (u, v), seeded at u and v, the lanes within distance k of f = (c, d) in
    L(g), f's own among them, are ball[c] | ball[d] after level k - 1 of
    _levels on g, level 0 being the seed. _level_sums reads the total off
    the popcount sums of those ORs, s_0 being the block's lane count, and
    a pick's closeness off its OR alone, s_0 = 1 if its lane is in the block.
    """
    n = g.order
    edges = list(g.edges())
    us, vs = [u for u, _ in edges], [v for _, v in edges]
    lanes = list(map(edges.index, picks))
    width = _width(n)

    def sizes(ball):
        ends = map(operator.or_, map(ball.__getitem__, us), map(ball.__getitem__, vs))
        picked = [(ball[c] | ball[d]).bit_count() for c, d in picks]
        return [sum(map(int.bit_count, ends)), *picked]

    total, values = Dyadic(0), [Dyadic(0)] * len(lanes)
    for lo in range(0, len(edges), width):
        block = edges[lo : lo + width]
        seed = [0] * n
        for i, (u, v) in enumerate(block):
            seed[u] |= 1 << i
            seed[v] |= 1 << i
        runs = (ball for _, ball in _levels(g.adj, seed, (1 << len(block)) - 1))
        seen = [len(block)] + [int(lo <= f < lo + width) for f in lanes]
        columns = zip(*map(sizes, itertools.chain([seed], runs)))
        block_total, *block_values = map(_level_sums, columns, seen)
        total += block_total
        values = list(map(operator.add, values, block_values))
    return total, values


def _level_sums(sizes, seen: int) -> Dyadic:
    """Horner's rule over one block's levels: sizes yields the popcount
    sums s_k of a readout's balls on levels k = 1, 2, ..., and seen is its
    s_0. With c_k = s_k - s_(k-1) pairs first within distance k, returns
    the sum of c_k * 2**-k."""
    num = deepest = 0
    for deepest, size in enumerate(sizes, 1):
        num = (num << 1) + size - seen
        seen = size
    return Dyadic(num, deepest)


def _balls(adj: list[list[int]]) -> list[list[int]]:
    """Per vertex v, its balls on the adjacency lists adj: the k-th is the
    bitset of the vertices within distance k of v, for k from 0 to the
    eccentricity of v in its component.

    One run of _levels from every vertex at once, one bit per source,
    always in one block: by symmetry, the sources within distance k of v
    are the vertices within distance k of v, so v's balls are the balls
    of its levels, kept on each level on which ball[v] != old[v]. That
    holds n balls of n bits per vertex at most, about n**3 / 8 bytes.
    """
    n = len(adj)
    seed = [1 << v for v in range(n)]
    balls = [[bits] for bits in seed]
    for old, ball in _levels(adj, seed, (1 << n) - 1):
        for v in itertools.compress(range(n), map(operator.ne, ball, old)):
            balls[v].append(ball[v])
    return balls


def _deletion_sums(adj: list[list[int]], edits) -> list[int]:
    """Closeness sums from chosen sources after one deletion, for many
    deletions at once, by one bitset BFS on the adjacency lists adj.

    edits is a list of (cut, sources): cut is a vertex x or an edge
    (u, v) of adj, and sources a list of distinct vertices other than x.
    Returns per edit an integer over 2**top with top = max(n - 1, 0): the
    sum over s in sources and every t != s of 2**-d(s, t) in adj without
    the cut.

    Each bit is a lane, one (edit, source) pair; an edit's lanes are
    contiguous, in the order of edits, and run through _levels in blocks
    of _width(n) lanes, so one edit's lanes may straddle two blocks. An
    edit without sources has no lane; with no lane at all nothing is
    built. The edges cut in a block leave the scanned adjacency and
    cross by gates, each direction of (u, v) closed to its edits' lanes;
    a cut vertex x keeps every lane but its edits' own, so they never
    enter its ball and it never forwards them.
    Lane sums are kept bit-sliced: plane p holds bit p of every lane's
    sum. Each level first counts, per lane, the vertices it is new at
    (each nonzero ball[v] ^ old[v]), in a small bit-sliced counter of
    its own, so that carries stay short;
    the count c of level k then adds c * 2**(top - k), from plane top - k
    on. An edit's sum is then the popcounts of its lanes in each plane,
    weighted by 2**p.
    """
    n = len(adj)
    top = max(n - 1, 0)
    low = n.bit_length()  # a lane is new at fewer than 2**low vertices per level
    height = top + low + 1  # a lane's sum is below n * 2**top
    lanes = [(e, s) for e, (_, sources) in enumerate(edits) for s in sources]
    sums = [0] * len(edits)
    if not lanes:
        return sums
    width = _width(n)
    for lo in range(0, len(lanes), width):
        block = lanes[lo : lo + width]
        full = (1 << len(block)) - 1
        start = [0] * n
        owned: dict[int, int] = {}  # edit -> its lanes in this block
        for i, (e, s) in enumerate(block):
            bit = 1 << i
            start[s] |= bit
            owned[e] = owned.get(e, 0) | bit
        # gates[u, v]: the lanes that may cross a cut edge from u to v;
        # keep[x]: the lanes that may reach a cut vertex x
        gates: dict[tuple[int, int], int] = {}
        keep: dict[int, int] = {}
        for e, mine in owned.items():
            cut = edits[e][0]
            if isinstance(cut, tuple):
                for u, v in (cut, cut[::-1]):
                    gates[u, v] = gates.get((u, v), full) ^ mine
            else:
                keep[cut] = keep.get(cut, full) ^ mine
        scan = list(adj)  # adj without the cut edges, which cross by gates
        for u in {u for u, _ in gates}:
            scan[u] = [w for w in adj[u] if (u, w) not in gates]
        acc = [0] * height  # the planes of the lane sums
        for k, (old, ball) in enumerate(_levels(scan, start, full, keep, gates), 1):
            count = [0] * low  # this level's
            for c in filter(None, map(operator.xor, ball, old)):
                p = 0
                while c:
                    q = count[p]
                    count[p] = q ^ c
                    c &= q
                    p += 1
            p, c = top - k, 0
            for x in count:  # ripple-carry add from plane top - k on
                q = acc[p]
                half = q ^ x
                acc[p] = half ^ c
                c = (q & x) | (half & c)
                p += 1
            while c:
                q = acc[p]
                acc[p] = q ^ c
                c &= q
                p += 1
        weighted = [(p, plane) for p, plane in enumerate(acc) if plane]
        for e, mine in owned.items():
            sums[e] += sum((plane & mine).bit_count() << p for p, plane in weighted)
    return sums


def graph_closeness(g: Graph) -> ClosenessReport:
    """Per-vertex closenesses and the graph total, by multi-source BFS
    from every vertex (_source_levels): by symmetry, the sources that v's
    ball gains on level k, ball[v] ^ old[v], count the vertices at
    distance k from v; only the vertices with ball[v] != old[v] are
    visited. v's closeness is num[v] / 2**depth[v], depth[v]
    its deepest level so far: a deeper level shifts num[v] up to it and
    adds its count (Horner's rule); a level no deeper, which only a later
    block brings, adds its count shifted up to depth[v]."""
    n = g.order
    num = [0] * n
    depth = [0] * n
    for levels in _source_levels(g):
        for k, (old, ball) in enumerate(levels, 1):
            for v in itertools.compress(range(n), map(operator.ne, ball, old)):
                c = (ball[v] ^ old[v]).bit_count()
                d = depth[v]
                if k > d:
                    num[v] = (num[v] << (k - d)) + c
                    depth[v] = k
                else:
                    num[v] += c << (d - k)
    deepest = max(depth, default=0)
    total = sum(c << (deepest - d) for c, d in zip(num, depth))
    return ClosenessReport(
        per_vertex=[Dyadic(c, d) for c, d in zip(num, depth)],
        total=Dyadic(total, deepest),
    )


def _total_closeness(g: Graph) -> Dyadic:
    """graph_closeness(g).total, read off level counts: the balls of
    level k of _source_levels hold the ordered pairs within distance k,
    so _level_sums reads the total off their popcount sums s_k, with s_0
    the block's source count. No per-vertex sum is kept."""
    n = g.order
    width = _width(n)
    total = Dyadic(0)
    for lo, levels in zip(range(0, n, width), _source_levels(g)):
        sizes = (sum(map(int.bit_count, ball)) for _, ball in levels)
        total += _level_sums(sizes, min(width, n - lo))
    return total


def parse_edgelist(text: str) -> Graph:
    """Parse the edge-list format: header "n m", then m lines "u v".

    Lines end at "\n" only. Lines whose first non-blank character is '#'
    are comments. Numbers are ASCII digits with an optional leading '-'.
    Errors (self-loops, duplicates, bad indices, wrong edge count) carry
    the 1-based line number.

    The text is read in bulk, each check run once over whole lists; only
    when one fails, or an index is not written as str() writes it (leading
    zeros, '-0'), does _scan_edgelist read it line by line, to name the
    first bad line.
    """
    g = _read_edgelist(text)
    return _scan_edgelist(text) if g is None else g


def _read_edgelist(text: str) -> Graph | None:
    """The graph of a well-formed edge list whose indices are written as
    str() writes them, or None."""
    rows = list(filter(None, map(str.split, text.split("\n"))))
    if "#" in text:
        rows = [row for row in rows if row[0][0] != "#"]
    if set(map(len, rows)) != {2}:
        return None
    x, y = rows[0]
    if not (_INTEGER.fullmatch(x) and _INTEGER.fullmatch(y)):
        return None
    n, m = int(x), int(y)
    if not (0 <= n <= MAX_ORDER and m == len(rows) - 1):
        return None
    fields = list(itertools.chain.from_iterable(itertools.islice(rows, 1, None)))
    labels = list(map(str, range(n)))
    try:  # each label maps to its index, so the lookup checks the range
        ends = list(map(dict(zip(labels, range(n))).__getitem__, fields))
    except KeyError:  # out of range, leading zeros, '-0' or not a number
        return None
    us, vs = ends[::2], ends[1::2]
    if any(map(operator.eq, us, vs)):
        return None
    adj = _sorted_adjacency(n, zip(us, vs))
    if sum(map(len, map(set, adj))) != 2 * m:  # a duplicate edge
        return None
    return Graph(n, adj, labels)


def _sorted_adjacency(order: int, edges) -> list[list[int]]:
    """Sorted adjacency lists of edges on range(order), unchecked."""
    adj: list[list[int]] = [[] for _ in range(order)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    for nbrs in adj:
        nbrs.sort()
    return adj


def _scan_edgelist(text: str) -> Graph:
    """parse_edgelist line by line: raises ValueError naming the first
    bad line, in file order."""
    header_line = 0
    adj: list[set[int]] = []
    n = m = 0
    for lineno, raw in enumerate(text.split("\n"), start=1):
        parts = raw.split()
        if not parts or parts[0][0] == "#":
            continue
        if len(parts) != 2 or not all(map(_INTEGER.fullmatch, parts)):
            raise ValueError(f"line {lineno}: expected two integers, got {raw!r}")
        a, b = map(int, parts)
        if not header_line:
            if a < 0 or b < 0:
                raise ValueError(f"line {lineno}: negative count in header")
            if a > MAX_ORDER:
                raise ValueError(
                    f"line {lineno}: header declares {a} vertices, more than "
                    f"the limit of {MAX_ORDER}"
                )
            n, m = a, b
            header_line = lineno
            adj = [set() for _ in range(n)]
            continue
        if not (0 <= a < n and 0 <= b < n):
            raise ValueError(f"line {lineno}: edge ({a}, {b}) out of range for order {n}")
        if a == b:
            raise ValueError(f"line {lineno}: self-loop at vertex {a}")
        nbrs = adj[a]
        if b in nbrs:
            raise ValueError(f"line {lineno}: duplicate edge ({a}, {b})")
        nbrs.add(b)
        adj[b].add(a)
    if not header_line:
        raise ValueError("line 1: missing 'n m' header")
    count = sum(map(len, adj)) // 2
    if count != m:
        raise ValueError(
            f"line {header_line}: header declares {m} edges, file has {count}"
        )
    return Graph(n, [sorted(s) for s in adj], [str(i) for i in range(n)])


def format_edgelist(g: Graph) -> str:
    """Write the edge-list format; deterministic for a given graph."""
    lines = [f"{g.order} {g.edge_count}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def to_dot(g: Graph) -> str:
    """Graphviz DOT rendering, as the graph G, with provenance labels on
    the vertices as quoted strings with '\\' and '"' escaped by a backslash."""
    lines = ["graph G {"]
    for i, label in enumerate(g.labels):
        quoted = label.replace("\\", "\\\\").replace('"', '\\"')
        lines.append(f'  {i} [label="{quoted}"];')
    for u, v in g.edges():
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"
