"""Sweep harness: every closed form checked against the BFS oracle.

A sweep walks a parameter grid, evaluates the closed form, measures the
correspondingly built graph exactly, and emits one VerificationRecord
per comparison. Equality is bit-exact dyadic equality; there are no
tolerances anywhere.

Check identifiers in records:

* ``C_<family>``          closed form vs measured family graph
* ``CL_<family>``         line-graph closed form vs measured line graph
* ``CLB_<case>``          pendant-bridge line-graph closeness vs oracle
* ``CB_<case>``           bridge-vertex closeness within it vs oracle
* ``C_shadow:<kind>``     shadow rule 4*C(G) + n/2 vs measured shadow
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
import json
import multiprocessing
import os
import random
import sys
from collections.abc import Iterator
from dataclasses import dataclass, replace

from .dyadic import Dyadic
from .formulas import (
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
    star_center_closeness,
)
from .generators import FamilySpec, gen_random_connected, generate
from .graph import Graph, graph_closeness
from .transforms import bridge_join, coalesce_join, line_graph, shadow

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
    "default" (or empty) keeps every default."""
    window = SweepWindow()
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
            number = int(value)
        except ValueError:
            raise ValueError(f"bad window value in {item!r}: expected an integer") from None
        if number < 1:
            raise ValueError(f"window value must be >= 1 in {item!r}")
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


def _sub_seed(seed: int, salt: int, idx: int) -> int:
    # splitmix-style mixing, stable across runs and processes
    x = (seed * 0x9E3779B97F4A7C15 + salt * 0xBF58476D1CE4E5B9 + idx) & (2 ** 64 - 1)
    x ^= x >> 31
    x = (x * 0x94D049BB133111EB) & (2 ** 64 - 1)
    return x ^ (x >> 29)


def _random_connected(seed: int, salt: int, idx: int, max_order: int, min_order: int = 1):
    rng = random.Random(_sub_seed(seed, salt, idx))
    order = rng.randint(min_order, max_order)
    budget = rng.randint(order - 1, order * (order - 1) // 2)
    return gen_random_connected(order, budget, rng.randrange(2 ** 32)), rng


def _pendant_vertex_graph() -> Graph:
    return Graph.from_edges(1, [], ["B"])


def _bridged_case_graph(case: str, n: int) -> tuple[Graph, int]:
    """The base family graph plus a pendant edge at the convention
    vertex; returns the graph and the attachment vertex."""
    if case == "path":
        base, attach = generate(FamilySpec("path", n)), 0
    elif case == "cycle":
        base, attach = generate(FamilySpec("cycle", n)), 0
    elif case == "star_leaf":
        base, attach = generate(FamilySpec("star", n)), 1
    elif case == "star_center":
        base, attach = generate(FamilySpec("star", n)), 0
    elif case == "complete":
        base, attach = generate(FamilySpec("complete", n)), 0
    else:
        raise ValueError(f"unknown bridged-line case {case!r}")
    joined, _ = bridge_join(base, attach, _pendant_vertex_graph(), 0)
    return joined, attach


# ---------------------------------------------------------------------------
# task evaluation (module-level so worker processes can run it)

def _eval_task(task) -> list[VerificationRecord]:
    kind = task[0]
    if kind == "family":
        _, fam, p1, p2 = task
        spec = FamilySpec(fam, p1, p2)
        value = closed_form(spec)
        oracle = graph_closeness(generate(spec)).total
        return [_record(f"C_{fam}", p1, p2, value, oracle)]

    if kind == "line":
        _, fam, p1, p2 = task
        spec = FamilySpec(fam, p1, p2)
        value = closed_form_line(spec)
        lg, _ = line_graph(generate(spec))
        oracle = graph_closeness(lg).total
        return [_record(f"CL_{fam}", p1, p2, value, oracle)]

    if kind == "bridged":
        _, case, n = task
        values = bridged_line(case, n)
        g, attach = _bridged_case_graph(case, n)
        pendant_edge = (attach, g.order - 1)
        lg, origins = line_graph(g)
        bridge_idx = next(
            k for k, o in enumerate(origins) if o.source == pendant_edge
        )
        report = graph_closeness(lg)
        return [
            _record(f"CLB_{case}", n, None, values.line_closeness, report.total),
            _record(
                f"CB_{case}", n, None,
                values.bridge_vertex_closeness, report.per_vertex[bridge_idx],
            ),
        ]

    if kind == "shadow_instance":
        _, fam, n = task
        g = generate(FamilySpec(fam, n))
        predicted = shadow_closeness(graph_closeness(g).total, g.order)
        sg, _ = shadow(g)
        return [_record(f"C_shadow:{fam}", n, None, predicted, graph_closeness(sg).total)]

    if kind == "shadow_random":
        _, idx, seed, max_order = task
        g, _ = _random_connected(seed, 1, idx, max_order, min_order=2)
        predicted = shadow_closeness(graph_closeness(g).total, g.order)
        sg, _ = shadow(g)
        return [
            _record("C_shadow:random", idx, g.order, predicted, graph_closeness(sg).total)
        ]

    if kind == "rule_random":
        _, idx, seed, max_order = task
        g1, rng = _random_connected(seed, 2, idx, max_order)
        budget2_rng = random.Random(_sub_seed(seed, 3, idx))
        order2 = budget2_rng.randint(1, max_order)
        budget2 = budget2_rng.randint(order2 - 1, order2 * (order2 - 1) // 2)
        g2 = gen_random_connected(order2, budget2, budget2_rng.randrange(2 ** 32))
        p = rng.randrange(g1.order)
        q = budget2_rng.randrange(g2.order)
        r1 = graph_closeness(g1)
        r2 = graph_closeness(g2)
        bridged, _ = bridge_join(g1, p, g2, q)
        merged, _ = coalesce_join(g1, p, g2, q)
        both = g1.order + g2.order
        return [
            _record(
                "rule_bridge:random", idx, both,
                compose_bridge(r1.total, r2.total, r1.per_vertex[p], r2.per_vertex[q]),
                graph_closeness(bridged).total,
            ),
            _record(
                "rule_coalesce:random", idx, both,
                compose_coalesce(r1.total, r2.total, r1.per_vertex[p], r2.per_vertex[q]),
                graph_closeness(merged).total,
            ),
        ]

    if kind == "compose":
        _, fam, m, n = task
        if fam == "lollipop":
            left_total = closed_form(FamilySpec("complete", m))
            left_vertex = complete_vertex_closeness(m)
        elif fam == "tadpole":
            left_total = closed_form(FamilySpec("cycle", m))
            left_vertex = cycle_vertex_closeness(m)
        else:
            left_total = closed_form(FamilySpec("star", m))
            left_vertex = star_center_closeness(m)
        if fam == "bistar":
            right_total = closed_form(FamilySpec("star", n))
            right_vertex = star_center_closeness(n)
        else:
            right_total = closed_form(FamilySpec("path", n))
            right_vertex = path_leaf_closeness(n)
        rebuilt = compose_bridge(left_total, right_total, left_vertex, right_vertex)
        direct = closed_form(FamilySpec(fam, m, n))
        return [_record(f"rule_bridge:C_{fam}", m, n, rebuilt, direct)]

    if kind == "compose_line":
        _, fam, m, n = task
        left_case = {
            "lollipop": "complete", "tadpole": "cycle",
            "broom": "star_center", "bistar": "star_center",
        }[fam]
        left = bridged_line(left_case, m)
        right = bridged_line("star_center" if fam == "bistar" else "path", n)
        rebuilt = compose_line_bridge(
            left.line_closeness, right.line_closeness,
            left.bridge_vertex_closeness, right.bridge_vertex_closeness,
        )
        direct = closed_form_line(FamilySpec(fam, m, n))
        return [_record(f"rule_line_bridge:CL_{fam}", m, n, rebuilt, direct)]

    if kind == "shadow_mindeg":
        _, idx, seed, max_order = task
        rng = random.Random(_sub_seed(seed, 4, idx))
        parts = rng.randint(1, 3)
        edges: list[tuple[int, int]] = []
        offset = 0
        for _ in range(parts):
            order = rng.randint(2, max(2, max_order // parts))
            budget = rng.randint(order - 1, order * (order - 1) // 2)
            comp = gen_random_connected(order, budget, rng.randrange(2 ** 32))
            edges.extend((offset + u, offset + v) for u, v in comp.edges())
            offset += order
        g = Graph.from_edges(offset, edges)
        predicted = shadow_closeness(graph_closeness(g).total, g.order)
        sg, _ = shadow(g)
        return [
            _record(
                "experiment_shadow_min_degree", idx, g.order,
                predicted, graph_closeness(sg).total,
            )
        ]

    raise ValueError(f"unknown task kind {kind!r}")


# ---------------------------------------------------------------------------
# task construction

_BASIC_MIN = {"path": 1, "cycle": 3, "star": 2, "complete": 1}
_LINE_MIN = {"path": 2, "cycle": 3, "star": 2, "complete": 1}
_BRIDGED_MIN = {"path": 1, "cycle": 3, "star_leaf": 2, "star_center": 2, "complete": 2}
_BRIDGED_FAMILY = {
    "path": "path", "cycle": "cycle",
    "star_leaf": "star", "star_center": "star", "complete": "complete",
}


def _composite_grid(fam: str, window: SweepWindow):
    n_lo, n_hi = (3, window.bistar_n_max) if fam == "bistar" else (1, window.n_max)
    for m in range(3, window.m_max + 1):
        for n in range(n_lo, n_hi + 1):
            yield m, n


def build_tasks(
    window: SweepWindow,
    seed: int = DEFAULT_SEED,
    families: set[str] | None = None,
    experiment_min_degree: bool = False,
) -> Iterator[tuple]:
    """Yield the full deterministic task list, optionally filtered by family."""

    def wanted(fam: str) -> bool:
        return families is None or fam in families

    for fam in ("path", "cycle", "star"):
        if wanted(fam):
            yield from (
                ("family", fam, n, None)
                for n in range(_BASIC_MIN[fam], window.basic_max + 1)
            )
    if wanted("complete"):
        yield from (
            ("family", "complete", n, None) for n in range(1, window.complete_max + 1)
        )
    for fam in ("lollipop", "tadpole", "broom", "bistar"):
        if wanted(fam):
            yield from (("family", fam, m, n) for m, n in _composite_grid(fam, window))

    for fam in ("path", "cycle", "star"):
        if wanted(fam):
            yield from (
                ("line", fam, n, None)
                for n in range(_LINE_MIN[fam], window.basic_max + 1)
            )
    if wanted("complete"):
        yield from (
            ("line", "complete", n, None) for n in range(1, window.complete_max + 1)
        )
    for fam in ("lollipop", "tadpole", "broom", "bistar"):
        if wanted(fam):
            yield from (("line", fam, m, n) for m, n in _composite_grid(fam, window))

    for case in ("path", "cycle", "star_leaf", "star_center", "complete"):
        if wanted(_BRIDGED_FAMILY[case]):
            yield from (
                ("bridged", case, n)
                for n in range(_BRIDGED_MIN[case], window.bridged_max + 1)
            )

    if families is None:
        yield from (
            ("shadow_instance", "complete", n)
            for n in range(2, window.shadow_max_order + 1)
        )
        yield from (
            ("shadow_instance", "star", n)
            for n in range(2, window.shadow_max_order + 1)
        )
        yield ("shadow_instance", "path", 5)
        yield from (
            ("shadow_random", i, seed, window.shadow_max_order)
            for i in range(window.shadow_cases)
        )
        yield from (
            ("rule_random", i, seed, window.pair_max_order)
            for i in range(window.pair_cases)
        )

    for fam in ("lollipop", "tadpole", "broom", "bistar"):
        if wanted(fam):
            yield from (("compose", fam, m, n) for m, n in _composite_grid(fam, window))
            yield from (
                ("compose_line", fam, m, n) for m, n in _composite_grid(fam, window)
            )

    if experiment_min_degree and families is None:
        yield from (
            ("shadow_mindeg", i, seed, window.shadow_max_order)
            for i in range(window.shadow_cases)
        )


def _worker_count(jobs: int | None, tasks: int) -> int:
    """Validate jobs (default: CLOSEGRAPH_JOBS, else 1) and clamp it to the
    core count and the number of tasks."""
    name = "jobs"
    if jobs is None:
        name, raw = JOBS_ENV_VAR, os.environ.get(JOBS_ENV_VAR, "1")
        try:
            jobs = int(raw)
        except ValueError:
            raise ValueError(f"{name} must be an integer, got {raw!r}") from None
    if jobs < 1:
        raise ValueError(f"{name} must be at least 1, got {jobs}")
    return min(jobs, os.cpu_count() or 1, tasks)


def run_all(
    window: SweepWindow | None = None,
    seed: int = DEFAULT_SEED,
    families: set[str] | None = None,
    experiment_min_degree: bool = False,
    jobs: int | None = None,
) -> list[VerificationRecord]:
    """Run every sweep and return records in deterministic order.

    jobs defaults to the CLOSEGRAPH_JOBS environment variable (or 1); a
    value that is not an integer >= 1 raises ValueError. At most one
    worker per core and per task is started. The record order does not
    depend on the parallelism degree.
    """
    if window is None:
        window = SweepWindow()
    grid = (window, seed, families, experiment_min_degree)
    count = sum(1 for _ in build_tasks(*grid))
    jobs = _worker_count(jobs, count)
    if jobs <= 1:
        return [rec for task in build_tasks(*grid) for rec in _eval_task(task)]
    # Tasks are generated as the pool hands them out, so the parent never
    # holds the task list and the forked workers do not inherit a copy.
    chunk = max(1, count // (jobs * 8))
    with multiprocessing.Pool(jobs) as pool:
        grouped = pool.imap(_eval_task, build_tasks(*grid), chunksize=chunk)
        return [rec for group in grouped for rec in group]


CSV_HEADER = ["family", "p1", "p2", "formula", "oracle", "pass"]


def write_csv(records, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for rec in records:
            writer.writerow(rec.to_row())


def write_json(records, path) -> None:
    """The bytes of json.dump(list, fh, indent=2) plus a newline, written
    one record at a time so no list of dicts is built."""
    encode = json.JSONEncoder(indent=2).encode
    with open(path, "w") as fh:
        sep = "[\n  "
        for rec in records:
            fh.write(sep)
            fh.write(encode(rec.to_json()).replace("\n", "\n  "))
            sep = ",\n  "
        fh.write("[]\n" if sep == "[\n  " else "\n]\n")


def failures(records) -> list[VerificationRecord]:
    """Failed records that count (experiments are reported, not asserted)."""
    return [
        r for r in records if not r.passed and not r.check.startswith("experiment_")
    ]
