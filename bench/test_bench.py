"""Tests of the benchmark's own machinery: self-time accounting, the
tracer's wrapping of by-name imports, and output checks that must catch
one corrupted value.

Run from the repository root with ``python3 -m pytest -q bench``.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import oracle  # noqa: E402
import run  # noqa: E402
from tracer import ROOT, Tracer, self_times  # noqa: E402

SMALL_WINDOW = (
    "basic=4,complete=3,m=3,n=2,bistar_n=3,bridged=3,"
    "shadow_cases=2,shadow_order=3,pairs=2,pair_order=3"
)


# -- self time ----------------------------------------------------------------

def test_self_time_is_span_minus_time_covered_by_children():
    #        a      b     c     d     e
    start = [0.0, 1.0, 5.0, 2.0, 9.0]
    end = [10.0, 4.0, 6.0, 3.0, 12.0]
    parent = [ROOT, 0, 0, 1, 0]  # d is a's grandchild; e runs past a's end
    assert self_times(start, end, parent) == [
        10.0 - 3.0 - 1.0 - 1.0,  # b, c and e clipped to [9, 10]
        3.0 - 1.0,
        1.0,
        1.0,
        3.0,
    ]


def _fake_package():
    core = types.ModuleType("fakepkg.core")
    user = types.ModuleType("fakepkg.user")

    class Box:
        @classmethod
        def make(cls):
            return cls()

    def inner():
        return 1

    def outer():
        return core.inner() + core.inner()

    Box.__module__ = core.__name__
    core.Box, core.inner, core.outer = Box, inner, outer
    user.inner = inner          # "from .core import inner"
    user.make = Box.make        # bound alias, like formulas._P2
    user.call = lambda: (user.inner(), user.make())
    return core, user


def test_wrappers_reach_by_name_aliases_and_self_times_add_up(monkeypatch):
    core, user = _fake_package()
    monkeypatch.setitem(sys.modules, "fakepkg", types.ModuleType("fakepkg"))
    monkeypatch.setitem(sys.modules, "fakepkg.core", core)
    monkeypatch.setitem(sys.modules, "fakepkg.user", user)
    ticks = iter(range(10_000))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    original_inner, original_make = core.inner, user.make
    tracer.patch_function(core, "inner", "inner")
    tracer.patch_function(core, "outer", "outer")
    tracer.patch_method(core.Box, "make", "make")
    assert user.inner is core.inner is not original_inner
    with tracer.span("pass"):
        core.outer()
        user.call()
    seconds, calls = tracer.layer_totals()
    assert calls == {"pass": 1, "outer": 1, "inner": 3, "make": 1}
    assert sum(seconds.values()) == sum(tracer.durations("pass"))
    assert all(v > 0 for v in seconds.values())
    tracer.uninstall()
    assert core.inner is original_inner and user.inner is original_inner
    assert user.make.__func__ is original_make.__func__
    assert "make" in vars(core.Box) and isinstance(vars(core.Box)["make"], classmethod)


def test_install_tracer_covers_the_sweep_layers(tmp_path, monkeypatch):
    monkeypatch.setenv("CLOSEGRAPH_JOBS", "1")
    cg = run.import_package()
    sweep = run.Sweep(jobs=1)
    sweep.build(cg, seed=1, workdir=tmp_path)
    sweep.argv += ["--window", SMALL_WINDOW]
    original = cg.verify.graph_closeness
    tracer = Tracer()
    run.install_tracer(cg, tracer)
    try:
        with tracer.span("pass"):
            sweep.run_pass(cg)
    finally:
        tracer.uninstall()
    assert cg.verify.graph_closeness is original
    layers = run.layer_metrics(tracer, passes=1)
    for key in ("graph.closeness.calls", "formulas.calls", "dyadic.new.calls",
                "transforms.line_graph.calls", "generators.generate.calls",
                "graph.closeness.edge_scans", "verify.write.s", "cli.self_s"):
        assert layers[key] > 0, key
    root = sum(tracer.durations("pass"))
    layer_s = sum(v for k, v in layers.items() if k.endswith(".s") or k.endswith("_s"))
    assert layer_s == pytest.approx(root, rel=1e-9)


# -- output checks --------------------------------------------------------------

def _small_sweep(tmp_path, monkeypatch):
    monkeypatch.setenv("CLOSEGRAPH_JOBS", "1")
    cg = run.import_package()
    sweep = run.Sweep(jobs=1)
    sweep.build(cg, seed=1, workdir=tmp_path)
    sweep.argv += ["--window", SMALL_WINDOW]
    _, out = sweep.run_pass(cg)
    sweep.reference = copy.deepcopy(out)
    return cg, sweep, out


def test_sweep_check_counts_one_flipped_record_byte(tmp_path, monkeypatch):
    cg, sweep, out = _small_sweep(tmp_path, monkeypatch)
    attempted, failed = run.check_outputs(sweep, cg, [out])
    assert failed == 0 and attempted > 10
    bad = copy.deepcopy(out)
    data = bytearray(bad["files"]["records.csv"])
    second_record = data.index(b"\n", data.index(b"\n") + 1) + 1
    digit = data.index(b"/2^", second_record) - 1
    data[digit] ^= 1
    bad["files"]["records.csv"] = bytes(data)
    assert run.check_outputs(sweep, cg, [out, bad]) == (2 * attempted, 1)


def test_sweep_check_counts_an_altered_json_record(tmp_path, monkeypatch):
    cg, sweep, out = _small_sweep(tmp_path, monkeypatch)
    bad = copy.deepcopy(out)
    records = json.loads(bad["files"]["records.json"])
    records[3]["oracle"] = "999/2^0"
    bad["files"]["records.json"] = json.dumps(records).encode()
    attempted, failed = run.check_outputs(sweep, cg, [bad])
    assert failed == 1 and attempted == len(records)


def test_sweep_check_reads_formula_and_oracle_apart_from_the_verdict(tmp_path, monkeypatch):
    cg, sweep, out = _small_sweep(tmp_path, monkeypatch)
    bad = copy.deepcopy(out)
    rows = bad["files"]["records.csv"].decode().splitlines(keepends=True)
    fields = rows[2].split(",")
    num, exp = fields[3].split("/2^")
    fields[3] = f"{int(num) + 2}/2^{exp}"  # still marked "true"
    rows[2] = ",".join(fields)
    bad["files"]["records.csv"] = "".join(rows).encode()
    records = json.loads(bad["files"]["records.json"])
    records[1]["formula"] = fields[3]
    bad["files"]["records.json"] = json.dumps(records).encode()
    sweep.reference = copy.deepcopy(bad)  # the other jobs count agrees
    attempted, failed = run.check_outputs(sweep, cg, [bad])
    assert failed == 1 and attempted == len(records)


def test_sweep_check_pins_the_baseline_hash_at_the_default_seed(tmp_path, monkeypatch):
    cg, sweep, out = _small_sweep(tmp_path, monkeypatch)
    sweep.default_seed = True  # the small window cannot match the baseline
    assert run.check_outputs(sweep, cg, [out])[1] == 1


def _small_closeness(tmp_path):
    cg = run.import_package()
    work = run.ClosenessLarge()
    work.n, work.m, work.sample_size = 80, 200, 8
    work.build(cg, seed=3, workdir=tmp_path)
    _, out = work.run_pass(cg)
    return cg, work, out


@pytest.mark.parametrize("sampled", [True, False])
def test_closeness_check_counts_one_altered_per_vertex_value(tmp_path, sampled):
    cg, work, out = _small_closeness(tmp_path)
    assert run.check_outputs(work, cg, [out]) == (9, 0)
    payload = json.loads(out["stdout"])
    vertex = next(v for v in range(work.n) if (v in work.sample) == sampled)
    num, exp = payload["per_vertex"][vertex]["closeness"].split("/2^")
    payload["per_vertex"][vertex]["closeness"] = f"{int(num) + 2}/2^{exp}"
    bad = {"rc": 0, "stdout": json.dumps(payload)}
    attempted, failed = run.check_outputs(work, cg, [out, bad])
    assert attempted == 18 and failed == (2 if sampled else 1)


def test_vulnerability_check_rederives_values_and_compares_later_passes(tmp_path):
    cg = run.import_package()
    work = run.VulnSparse()
    work.n = 14
    work.build(cg, seed=2, workdir=tmp_path)
    _, out = work.run_pass(cg)
    assert run.check_outputs(work, cg, [out, out]) == (6, 0)
    bad = copy.deepcopy(out)
    num, exp = bad[2]["value"].split("/2^")
    bad[2]["value"] = f"{int(num) + 2}/2^{exp}"
    assert run.check_outputs(work, cg, [bad]) == (3, 1)
    assert run.check_outputs(work, cg, [out, bad]) == (6, 1)


# -- yardstick ------------------------------------------------------------------

def test_relative_times_divide_each_pass_by_the_yardsticks_beside_it():
    # passes of 3 s and 8 s; yardstick units of 1 s, 2 s and 2 s around them
    assert run.relative_times([3.0, 8.0], [1.0, 2.0, 2.0]) == [2.0, 4.0]


def test_yardstick_reports_seconds_per_unit():
    one_unit = run.yardstick(0.0)
    assert 0 < one_unit < 1
    assert run.yardstick(5 * one_unit) < 5 * one_unit


# -- inputs and properties -------------------------------------------------------

def test_inputs_depend_only_on_the_seed():
    assert oracle.long_diameter_edges(5) == oracle.long_diameter_edges(5)
    assert oracle.long_diameter_edges(5) != oracle.long_diameter_edges(6)
    edges = oracle.short_diameter_edges(1, n=300, m=900)
    assert len(edges) == 900 == len(set(edges))
    assert oracle.diameter(oracle.adjacency(300, edges)) == max(
        max(oracle.bfs(oracle.adjacency(300, edges), s)) for s in range(300)
    )


def test_affected_source_frac_matches_brute_force():
    n, edges = 9, oracle.long_diameter_edges(4, n=9, chords=2)
    adj = oracle.adjacency(n, edges)
    before = [oracle.bfs(adj, s) for s in range(n)]
    present = set(edges)
    pairs = affected = 0
    additions = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in present]
    for e in additions:
        new = oracle.adjacency(n, edges + [e])
        for s in range(n):
            pairs += 1
            affected += oracle.bfs(new, s) != before[s]
    for e in edges:
        new = oracle.adjacency(n, [f for f in edges if f != e])
        for s in range(n):
            pairs += 1
            affected += oracle.bfs(new, s) != before[s]
    for x in range(n):
        new = oracle.adjacency(n, edges, removed=x)
        for s in range(n):
            if s != x:
                d = oracle.bfs(new, s)
                pairs += 1
                affected += any(d[t] != before[s][t] for t in range(n) if t != x)
    assert oracle.affected_source_frac(n, edges) == affected / pairs


def test_run_refuses_a_directory_without_the_package(tmp_path):
    copy_dir = tmp_path / "bench"
    copy_dir.mkdir()
    for path in BENCH.glob("*.py"):
        shutil.copy(path, copy_dir)
    proc = subprocess.run(
        [sys.executable, str(copy_dir / "run.py"), "--workload", "vuln-sparse",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
