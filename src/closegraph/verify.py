"""Sweep harness: every closed form checked against the BFS oracle.

A sweep walks a parameter grid, evaluates the closed form, measures the
correspondingly built graph exactly, and emits one VerificationRecord
per comparison. Equality is bit-exact dyadic equality; there are no
tolerances anywhere.

Check identifiers in records (the README tables which ``--family`` keeps):

* ``C_<family>``          closed form vs measured family graph
* ``CL_<family>``         line-graph closed form vs measured line graph
* ``CLB_<case>``          pendant-bridge line-graph closeness vs oracle
* ``CB_<case>``           bridge-vertex closeness within it vs oracle
* ``C_shadow:<kind>``     shadow rule 4*C(G) + n/2 vs measured shadow
  (kind: complete, star, path, random)
* ``rule_bridge:random``  bridge composition rule on random pairs
* ``rule_coalesce:random``  merge composition rule on random pairs
* ``rule_bridge:C_<f>``   composite closed form rebuilt from part values
* ``rule_line_bridge:CL_<f>``  line closed form rebuilt from pendant-bridge values
* ``experiment_shadow_min_degree``  non-asserting report (see README)

Set the environment variable ``CLOSEGRAPH_JOBS`` to fan grid points out
over worker processes; aggregation order is independent of the degree.
"""

from __future__ import annotations

import csv
import multiprocessing
import os
import random
import sys
from collections.abc import Iterator
from dataclasses import dataclass, replace
from json.encoder import encode_basestring_ascii as quote

from .dyadic import Dyadic
from .formulas import (
    BRIDGED_CASES,
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
)
from .generators import (
    COMPOSITE_PARTS,
    FAMILIES,
    MINIMA,
    FamilySpec,
    check_family,
    gen_random_connected,
    generate,
)
from .graph import Graph, _closeness_totals, _edge_closeness, _parse_int, graph_closeness
from .transforms import bridge_join, coalesce_join, shadow

__all__ = [
    "DEFAULT_SEED",
    "SweepWindow",
    "parse_window",
    "VerificationRecord",
    "run_all",
    "write_csv",
    "write_json",
    "JOBS_ENV_VAR",
]

DEFAULT_SEED = 271828
JOBS_ENV_VAR = "CLOSEGRAPH_JOBS"


@dataclass(frozen=True)
class SweepWindow:
    """Parameter ranges for the sweeps; minima are fixed per family."""

    basic_max: int = 64        # path/cycle/star n
    complete_max: int = 24     # complete n
    m_max: int = 16            # composite m (from 3)
    n_max: int = 24            # composite n (from 1)
    bistar_n_max: int = 16     # bistar n (from 3)
    bridged_max: int = 32      # pendant-bridge cases n
    shadow_cases: int = 200    # random shadow checks
    shadow_max_order: int = 12
    pair_cases: int = 200      # random bridge/merge rule checks
    pair_max_order: int = 10


_WINDOW_KEYS = {
    "basic": "basic_max",
    "complete": "complete_max",
    "m": "m_max",
    "n": "n_max",
    "bistar_n": "bistar_n_max",
    "bridged": "bridged_max",
    "shadow_cases": "shadow_cases",
    "shadow_order": "shadow_max_order",
    "pairs": "pair_cases",
    "pair_order": "pair_max_order",
}


def parse_window(text: str) -> SweepWindow:
    """Parse "key=value,key=value" overrides of the default window;
    "default" (or empty) keeps every default. Each value must lie between
    1 and 4x its default: far larger grids build huge graphs (complete=100000
    is K_100000) or count billions of tasks before the first check runs."""
    window = default = SweepWindow()
    text = text.strip()
    if text in ("", "default"):
        return window
    for item in text.split(","):
        key, sep, value = item.partition("=")
        key = key.strip()
        if not sep or key not in _WINDOW_KEYS:
            raise ValueError(
                f"bad window item {item!r}; keys: {', '.join(sorted(_WINDOW_KEYS))}"
            )
        try:
            number = _parse_int(value)
        except ValueError:
            raise ValueError(f"bad window value in {item!r}: expected an integer") from None
        cap = 4 * getattr(default, _WINDOW_KEYS[key])
        if not 1 <= number <= cap:
            raise ValueError(
                f"window value {key}={number} must be from 1 to {cap} (4x its default)"
            )
        window = replace(window, **{_WINDOW_KEYS[key]: number})
    return window


@dataclass(slots=True)
class VerificationRecord:
    """One grid point: which check, its parameters, both values, verdict."""

    check: str
    p1: int
    p2: int | None
    formula: Dyadic
    oracle: Dyadic
    passed: bool

    def to_row(self):
        return [
            self.check,
            str(self.p1),
            "" if self.p2 is None else str(self.p2),
            self.formula.canonical(),
            self.oracle.canonical(),
            "true" if self.passed else "false",
        ]

    def to_json(self):
        return {
            "family": self.check,
            "p1": self.p1,
            "p2": self.p2,
            "formula": self.formula.canonical(),
            "oracle": self.oracle.canonical(),
            "pass": self.passed,
        }


def _record(check, p1, p2, formula, oracle) -> VerificationRecord:
    # A passing record keeps one Dyadic for both values, and every record
    # of a check shares one interned name, so the records that a sweep
    # pickles back from its workers unpickle into fewer objects.
    passed = formula == oracle
    return VerificationRecord(
        sys.intern(check), p1, p2, formula, formula if passed else oracle, passed
    )


def _rng(seed: int, salt: int, idx: int) -> random.Random:
    # splitmix-style seed mixing, stable across runs and processes
    x = (seed * 0x9E3779B97F4A7C15 + salt * 0xBF58476D1CE4E5B9 + idx) & (2 ** 64 - 1)
    x ^= x >> 31
    x = (x * 0x94D049BB133111EB) & (2 ** 64 - 1)
    return random.Random(x ^ (x >> 29))


def _random_graph(rng: random.Random, min_order: int, max_order: int) -> Graph:
    order = rng.randint(min_order, max_order)
    budget = rng.randint(order - 1, order * (order - 1) // 2)
    return gen_random_connected(order, budget, rng.randrange(2 ** 32))


# ---------------------------------------------------------------------------
# checks: a task is (check, *params), and check(*params) returns its records.
# Checks are module-level functions, so the pool pickles them by reference.

def _eval_task(task) -> list[VerificationRecord]:
    check, *params = task
    return check(*params)


def _family(fam: str, p1: int, p2: int | None):
    spec = FamilySpec(fam, p1, p2)
    total, line_total = _closeness_totals(generate(spec))
    records = [_record(f"C_{fam}", p1, p2, closed_form(spec), total)]
    if (fam, p1) != ("path", 1):  # L(P_1) is empty
        records.append(_record(f"CL_{fam}", p1, p2, closed_form_line(spec), line_total))
    return records


# the case of each family with the pendant at vertex 0, where composite parts join
_CASE_AT_0 = {fam: case for case, (fam, attach, _) in BRIDGED_CASES.items() if attach == 0}


def _bridged(case: str, n: int):
    values = bridged_line(case, n)
    fam, attach, _ = BRIDGED_CASES[case]
    base = generate(FamilySpec(fam, n))
    g, _ = bridge_join(base, attach, Graph(1, [[]], ["B"]), 0)
    _, total = _closeness_totals(g)
    pendant = _edge_closeness(g, (attach, g.order - 1))
    return [
        _record(f"CLB_{case}", n, None, values.line_closeness, total),
        _record(f"CB_{case}", n, None, values.bridge_vertex_closeness, pendant),
    ]


def _shadow_of(check: str, p1: int, p2: int | None, g: Graph):
    predicted = shadow_closeness(graph_closeness(g).total, g.order)
    sg, _ = shadow(g)
    return [_record(check, p1, p2, predicted, graph_closeness(sg).total)]


def _shadow_instance(fam: str, n: int):
    return _shadow_of(f"C_shadow:{fam}", n, None, generate(FamilySpec(fam, n)))


def _shadow_random(idx: int, seed: int, max_order: int):
    g = _random_graph(_rng(seed, 1, idx), 2, max_order)
    return _shadow_of("C_shadow:random", idx, g.order, g)


def _shadow_mindeg(idx: int, seed: int, max_order: int):
    rng = _rng(seed, 4, idx)
    parts = rng.randint(1, 3)
    adj: list[list[int]] = []
    for _ in range(parts):
        comp = _random_graph(rng, 2, max(2, max_order // parts))
        offset = len(adj)
        adj.extend([offset + w for w in nbrs] for nbrs in comp.adj)
    g = Graph(len(adj), adj, [str(i) for i in range(len(adj))])
    return _shadow_of("experiment_shadow_min_degree", idx, g.order, g)


def _rule_random(idx: int, seed: int, max_order: int):
    rng1, rng2 = _rng(seed, 2, idx), _rng(seed, 3, idx)
    g1 = _random_graph(rng1, 1, max_order)
    g2 = _random_graph(rng2, 1, max_order)
    p = rng1.randrange(g1.order)
    q = rng2.randrange(g2.order)
    r1 = graph_closeness(g1)
    r2 = graph_closeness(g2)
    values = (r1.total, r2.total, r1.per_vertex[p], r2.per_vertex[q])
    bridged, _ = bridge_join(g1, p, g2, q)
    merged, _ = coalesce_join(g1, p, g2, q)
    both = g1.order + g2.order
    return [
        _record(
            "rule_bridge:random", idx, both,
            compose_bridge(*values), graph_closeness(bridged).total,
        ),
        _record(
            "rule_coalesce:random", idx, both,
            compose_coalesce(*values), graph_closeness(merged).total,
        ),
    ]


# closeness of vertex 0 of a composite part; a star's vertex 0 is its
# center, which has the same m-1 neighbours as a vertex of K_m
_VERTEX_0_CLOSENESS = {
    "complete": complete_vertex_closeness,
    "cycle": cycle_vertex_closeness,
    "star": complete_vertex_closeness,
    "path": path_leaf_closeness,
}


def _compose(fam: str, m: int, n: int):
    left, right = COMPOSITE_PARTS[fam]
    rebuilt = compose_bridge(
        closed_form(FamilySpec(left, m)), closed_form(FamilySpec(right, n)),
        _VERTEX_0_CLOSENESS[left](m), _VERTEX_0_CLOSENESS[right](n),
    )
    direct = closed_form(FamilySpec(fam, m, n))
    return [_record(f"rule_bridge:C_{fam}", m, n, rebuilt, direct)]


def _compose_line(fam: str, m: int, n: int):
    left, right = (
        bridged_line(_CASE_AT_0[part], p) for part, p in zip(COMPOSITE_PARTS[fam], (m, n))
    )
    rebuilt = compose_line_bridge(
        left.line_closeness, right.line_closeness,
        left.bridge_vertex_closeness, right.bridge_vertex_closeness,
    )
    direct = closed_form_line(FamilySpec(fam, m, n))
    return [_record(f"rule_line_bridge:CL_{fam}", m, n, rebuilt, direct)]


# ---------------------------------------------------------------------------
# task construction

def _grid(fam: str, window: SweepWindow):
    """The (p1, p2) points of one family: p1 from the family minimum, and
    for composites m from 3 and n from the family minimum, each up to its
    window bound."""
    lo1, lo2 = MINIMA[fam]
    if lo2 is None:
        hi = window.complete_max if fam == "complete" else window.basic_max
        return ((n, None) for n in range(lo1, hi + 1))
    hi = window.bistar_n_max if fam == "bistar" else window.n_max
    return ((m, n) for m in range(3, window.m_max + 1) for n in range(lo2, hi + 1))


def build_tasks(
    window: SweepWindow,
    seed: int = DEFAULT_SEED,
    families: set[str] | None = None,
    experiment_min_degree: bool = False,
) -> Iterator[tuple]:
    """Yield the deterministic task list, _family's first, optionally by family."""
    wanted = [fam for fam in FAMILIES if families is None or fam in families]
    for fam in wanted:
        yield from ((_family, fam, p1, p2) for p1, p2 in _grid(fam, window))

    for case, (fam, _, lo) in BRIDGED_CASES.items():
        if fam in wanted:
            yield from ((_bridged, case, n) for n in range(lo, window.bridged_max + 1))

    if families is None:
        for fam in ("complete", "star"):
            yield from (
                (_shadow_instance, fam, n) for n in range(2, window.shadow_max_order + 1)
            )
        yield (_shadow_instance, "path", 5)
        yield from (
            (_shadow_random, i, seed, window.shadow_max_order)
            for i in range(window.shadow_cases)
        )
        yield from (
            (_rule_random, i, seed, window.pair_max_order) for i in range(window.pair_cases)
        )

    for fam in wanted:
        if fam in COMPOSITE_PARTS:
            for check in (_compose, _compose_line):
                yield from ((check, fam, m, n) for m, n in _grid(fam, window))

    if experiment_min_degree and families is None:
        yield from (
            (_shadow_mindeg, i, seed, window.shadow_max_order)
            for i in range(window.shadow_cases)
        )


def _worker_count(jobs: int | None, tasks: int) -> int:
    """Validate jobs (default: CLOSEGRAPH_JOBS, else 1) and clamp it to the
    core count and the number of tasks."""
    name = "jobs"
    if jobs is None:
        name, raw = JOBS_ENV_VAR, os.environ.get(JOBS_ENV_VAR, "1")
        try:
            jobs = _parse_int(raw)
        except ValueError:
            raise ValueError(f"{name} must be an integer, got {raw!r}") from None
    if jobs < 1:
        raise ValueError(f"{name} must be at least 1, got {jobs}")
    return min(jobs, os.cpu_count() or 1, tasks)


def run_all(
    window: SweepWindow = SweepWindow(),
    seed: int = DEFAULT_SEED,
    families: set[str] | None = None,
    experiment_min_degree: bool = False,
    jobs: int | None = None,
) -> list[VerificationRecord]:
    """Run every sweep and return records in deterministic order.

    families must be names in FAMILIES. jobs defaults to CLOSEGRAPH_JOBS
    (or 1); a value that is not an integer >= 1 raises ValueError. At most
    one worker per core and per task is started. The record order does
    not depend on the parallelism degree.
    """
    for fam in sorted(families or ()):
        check_family(fam)
    grid = (window, seed, families, experiment_min_degree)
    kinds = [check is _family for check, *_ in build_tasks(*grid)]
    count, family = len(kinds), sum(kinds)
    jobs = _worker_count(jobs, count)
    if jobs <= 1:
        return _in_order(map(_eval_task, build_tasks(*grid)), family)
    # Tasks are generated as the pool hands them out, so the parent never
    # holds the task list and the forked workers do not inherit a copy.
    chunk = max(1, count // (jobs * 8))
    with multiprocessing.Pool(jobs) as pool:
        return _in_order(pool.imap(_eval_task, build_tasks(*grid), chunksize=chunk), family)


def _in_order(grouped, family: int) -> list[VerificationRecord]:
    """The records of the task results grouped, whose first family are
    _family's: every C_ record, then every CL_ record, then the rest."""
    heads = [next(grouped) for _ in range(family)]
    lines = [r for g in heads for r in g[1:]]
    return [g[0] for g in heads] + lines + [r for g in grouped for r in g]


CSV_HEADER = ["family", "p1", "p2", "formula", "oracle", "pass"]


def write_csv(records, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for rec in records:
            writer.writerow(rec.to_row())


def write_json(records, path) -> None:
    """The bytes of json.dump(list, fh, indent=2) plus a newline, written
    one f-string per record: with indent set, json runs its pure-Python
    encoder. Check names are escaped as json escapes them; canonical
    dyadic text needs no escaping."""
    with open(path, "w") as fh:
        sep = "[\n  "
        for rec in records:
            p2 = "null" if rec.p2 is None else rec.p2
            fh.write(
                f'{sep}{{\n    "family": {quote(rec.check)},\n    "p1": {rec.p1},\n'
                f'    "p2": {p2},\n    "formula": "{rec.formula.canonical()}",\n'
                f'    "oracle": "{rec.oracle.canonical()}",\n'
                f'    "pass": {"true" if rec.passed else "false"}\n  }}'
            )
            sep = ",\n  "
        fh.write("[]\n" if sep == "[\n  " else "\n]\n")


def failures(records) -> list[VerificationRecord]:
    """Failed records that count (experiments are reported, not asserted)."""
    return [
        r for r in records if not r.passed and not r.check.startswith("experiment_")
    ]
