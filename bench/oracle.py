"""Seeded workload inputs, a stdlib reference for closeness, and the
checks that compare closegraph's outputs with it.

The reference is deliberately plain: one BFS per source and
``fractions.Fraction`` sums, sharing no code with the package. Each check
returns (attempted, failed) counts of checked values; nothing here raises
on a wrong output.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import random
from fractions import Fraction

# sha256 of `closegraph verify --all` with the default window and seed,
# identical at CLOSEGRAPH_JOBS=1 and =2.
BASELINE_SHA256 = {
    "records.csv": "b57aea1d84f65de41335f7a810a59256bd09b890d3c989478f40a8b0e4246427",
    "records.json": "8927957f88bf97f1ced6483552ee2a5cde1a626b11845200d1262777581303d0",
}
# non-witness candidates per vulnerability report that must be strictly worse
SPOT_CHECKS = 8


# -- inputs -----------------------------------------------------------------

def long_diameter_edges(seed: int, n: int = 60, chords: int = 6) -> list[tuple[int, int]]:
    """The path 0..n-1 plus `chords` random non-adjacent chords: sparse,
    connected, diameter around n/3."""
    rng = random.Random(seed)
    edges = {(i, i + 1) for i in range(n - 1)}
    while len(edges) < n - 1 + chords:
        u, v = sorted(rng.sample(range(n), 2))
        if v - u > 1:
            edges.add((u, v))
    return sorted(edges)


def short_diameter_edges(seed: int, n: int = 2000, m: int = 8000) -> list[tuple[int, int]]:
    """A random recursive tree plus uniform extra edges: sparse, connected,
    diameter about 6 at n=2000, m=8000. Linear time, unlike building the
    list of every spare pair."""
    rng = random.Random(seed)
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    while len(edges) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return sorted(edges)


def edgelist_text(n: int, edges) -> str:
    return f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges)


def adjacency(n: int, edges, removed: int | None = None) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        if removed not in (u, v):
            adj[u].append(v)
            adj[v].append(u)
    return adj


# -- reference ----------------------------------------------------------------

def bfs(adj, source: int) -> list[int]:
    """Hop distances from source, -1 where unreachable."""
    dist = [-1] * len(adj)
    dist[source] = 0
    frontier = [source]
    while frontier:
        nxt = []
        for v in frontier:
            for w in adj[v]:
                if dist[w] < 0:
                    dist[w] = dist[v] + 1
                    nxt.append(w)
        frontier = nxt
    return dist


def reference_closeness(adj, source: int) -> Fraction:
    counts: dict[int, int] = {}
    for d in bfs(adj, source):
        if d > 0:
            counts[d] = counts.get(d, 0) + 1
    return sum((Fraction(c, 1 << d) for d, c in counts.items()), Fraction(0))


def reference_total(adj, skip: int | None = None) -> Fraction:
    """Graph closeness; vertex `skip` (deleted, isolated) is left out."""
    return sum(
        (reference_closeness(adj, s) for s in range(len(adj)) if s != skip),
        Fraction(0),
    )


def parse_canonical(text: str) -> Fraction:
    """Read closegraph's "n/2^e" text form."""
    num, sep, exp = text.partition("/2^")
    if not sep:
        raise ValueError(f"not a dyadic string: {text!r}")
    return Fraction(int(num), 1 << int(exp))


# -- input properties -----------------------------------------------------------

def diameter(adj) -> int:
    """Largest finite distance, by bit-parallel BFS from every source."""
    reach = [1 << v for v in range(len(adj))]
    d = 0
    while True:
        new = []
        for v, nbrs in enumerate(adj):
            r = reach[v]
            for w in nbrs:
                r |= reach[w]
            new.append(r)
        if new == reach:
            return d
        reach = new
        d += 1


def affected_source_frac(n: int, edges) -> float:
    """Share of (source, single edit) pairs whose distance vector changes,
    over every edit the three vulnerability measures try.

    Adding (u, v) changes distances from s exactly when
    |d(s,u) - d(s,v)| > 1. Deletions are checked by BFS on the edited graph.
    """
    adj = adjacency(n, edges)
    dist = [bfs(adj, s) for s in range(n)]
    present = set(edges)
    pairs = affected = 0
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) not in present:
                for ds in dist:
                    pairs += 1
                    affected += abs(ds[u] - ds[v]) > 1
    for e in edges:
        cut = adjacency(n, [f for f in edges if f != e])
        for s in range(n):
            pairs += 1
            affected += bfs(cut, s) != dist[s]
    for x in range(n):
        cut = adjacency(n, edges, removed=x)
        for s in range(n):
            if s != x:
                new = bfs(cut, s)
                pairs += 1
                affected += any(
                    new[t] != dist[s][t] for t in range(n) if t != x
                )
    return affected / pairs


# -- output checks ---------------------------------------------------------------

def _csv_rows(data: bytes) -> list[tuple]:
    rows = list(csv.reader(io.StringIO(data.decode("utf-8", "replace"))))
    return [tuple(r) for r in rows[1:]]


def _json_rows(data: bytes) -> list[tuple]:
    try:
        records = json.loads(data)
        return [
            (
                r["family"], str(r["p1"]), "" if r["p2"] is None else str(r["p2"]),
                r["formula"], r["oracle"], "true" if r["pass"] is True else "false",
            )
            for r in records
        ]
    except (ValueError, KeyError, TypeError):
        return []


def _values_agree(row: tuple) -> bool:
    """The record's formula and oracle columns are the same number."""
    try:
        return parse_canonical(row[3]) == parse_canonical(row[4])
    except (IndexError, ValueError):
        return False


def check_sweep(files: dict[str, bytes], reference: dict[str, bytes], default_seed: bool):
    """Compare one sweep's records.csv/records.json with the records of the
    same sweep at the other parallelism degree.

    A record counts as failed if it is missing, its CSV row and JSON entry
    disagree, either differs from the reference, its check did not pass,
    or its formula and oracle values differ when read as fractions here,
    apart from the package's own verdict. At the default seed a file whose sha256 differs from the
    baseline fails at least one record.
    """
    ref = _csv_rows(reference["records.csv"])
    csv_rows = _csv_rows(files["records.csv"])
    json_rows = _json_rows(files["records.json"])
    attempted = max(len(ref), len(csv_rows), 1)
    failed = 0
    for i in range(attempted):
        row = csv_rows[i] if i < len(csv_rows) else ()
        if (
            not row
            or row[-1] != "true"
            or i >= len(ref) or row != ref[i]
            or i >= len(json_rows) or json_rows[i] != row
            or not _values_agree(row)
        ):
            failed += 1
    if default_seed and failed == 0:
        for name, digest in BASELINE_SHA256.items():
            if hashlib.sha256(files[name]).hexdigest() != digest:
                failed = 1
    return attempted, failed


def check_closeness(text: str, n: int, sample: dict[int, Fraction]):
    """Check `closeness --per-vertex --format json` output: shape, the
    sampled vertices against the reference, and the total against the
    sum of all per-vertex values."""
    attempted = len(sample) + 1
    try:
        payload = json.loads(text)
        rows = payload["per_vertex"]
        if payload["order"] != n or [r["vertex"] for r in rows] != list(range(n)):
            return attempted, attempted
        values = [parse_canonical(r["closeness"]) for r in rows]
        total = parse_canonical(payload["total"])
    except (ValueError, KeyError, TypeError):
        return attempted, attempted
    failed = sum(values[v] != ref for v, ref in sample.items())
    failed += sum(values, Fraction(0)) != total
    return attempted, failed


_MEASURES = {
    "link_residual": "link",
    "vertex_residual": "vertex",
    "additional": "additional",
}


def _edited(kind: str, n: int, edges, witness):
    if kind == "link":
        cut = tuple(witness)
        return adjacency(n, [e for e in edges if e != cut]), None
    if kind == "vertex":
        return adjacency(n, edges, removed=witness), witness
    return adjacency(n, list(edges) + [tuple(witness)]), None


def _candidates(kind: str, n: int, edges):
    if kind == "link":
        return [list(e) for e in edges]
    if kind == "vertex":
        return list(range(n))
    present = set(edges)
    return [[u, v] for u in range(n) for v in range(u + 1, n) if (u, v) not in present]


def check_vulnerability(report: dict, n: int, edges, api_baseline: Fraction,
                        seed: int) -> bool:
    """Re-derive one vulnerability report (its to_json form) from scratch.

    The baseline must equal the reference and graph_closeness; the value
    must be the reference closeness of every witness's edited graph;
    witnesses must be sorted valid candidates; and a seeded sample of
    other candidates must be strictly worse than the value.
    """
    try:
        kind = _MEASURES[report["measure"]]
        baseline = parse_canonical(report["baseline"])
        value = parse_canonical(report["value"])
        witnesses = report["witnesses"]
    except (KeyError, ValueError, TypeError):
        return False
    ref_baseline = reference_total(adjacency(n, edges))
    if baseline != ref_baseline or baseline != api_baseline:
        return False
    candidates = _candidates(kind, n, edges)
    if not witnesses or witnesses != sorted(witnesses):
        return False
    if any(w not in candidates for w in witnesses):
        return False
    for w in witnesses:
        if reference_total(*_edited(kind, n, edges, w)) != value:
            return False
    others = [c for c in candidates if c not in witnesses]
    rng = random.Random(seed)
    for c in rng.sample(others, min(SPOT_CHECKS, len(others))):
        total = reference_total(*_edited(kind, n, edges, c))
        worse = total < value if kind == "additional" else total > value
        if not worse:
            return False
    return True
