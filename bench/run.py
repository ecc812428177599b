#!/usr/bin/env python3
"""closegraph benchmark: four workloads through the package's public API.

Usage (from the repository root):

    python3 bench/run.py --workload sweep-serial --seed 0 --seconds 20 --trace 0

Workloads (why each exists is in BENCHMARK.json):

* sweep-serial     ``closegraph verify --all`` at CLOSEGRAPH_JOBS=1
* sweep-parallel   the same sweep at CLOSEGRAPH_JOBS=2
* vuln-sparse      link/vertex residual and additional closeness of one
                   seeded sparse long-diameter graph (n=60)
* closeness-large  ``closegraph closeness --per-vertex --format json`` on
                   one seeded sparse short-diameter graph (n=2000, m=8000)

Seed s runs the sweeps at ``verify``'s DEFAULT_SEED + s, so seed 0 is the
default sweep whose record hashes are pinned in oracle.BASELINE_SHA256.
The other workloads generate their graph from s.

A run repeats one pass of the workload until ``--seconds`` have elapsed.
Before and after each pass it runs the yardstick, a fixed unit of
pure-Python work shaped like the package's hot path, for a share of the
pass time. On a shared host the speed of such code can drift by a third
within minutes, and raw pass times (``wall_s`` in the ``info`` line)
spread across runs by about as much. ``wall_rel`` is the pass time in
yardstick units (over the mean unit time of the yardsticks on either
side), which cancels most of that drift; the yardstick never changes, so a
change to the package moves ``wall_rel`` in proportion to its pass time.
Between yardstick slices it imports the package from ``src/`` afresh and
rebuilds the inputs, timing each as one set-up sample; the next pass uses
the last of them. Every pass's output is checked after the
last pass, outside the timed region. With ``--trace 0`` it reports the
end-to-end metrics, with ``--trace 1`` the per-layer metrics
of a traced run (self time and counts per pass). The last line of stdout is
one JSON object; the lines before it are a readable summary and an
``info`` object. Both are also written to ``.bench_out/``. The exit code
is 1 when any output is wrong.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import inspect
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from contextlib import redirect_stdout
from pathlib import Path
from random import Random

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(BENCH_DIR))

import oracle  # noqa: E402
from tracer import Tracer  # noqa: E402

PARALLEL_JOBS = 2
# The yardstick: a fixed unit of work shaped like the package's hot path
# (rebuild the adjacency lists for one added edge, BFS from every source,
# sum 2^-d as shifted ints), run before and after every pass for a share of
# the pass time. Its inputs and code stay fixed, so that a pass measured in
# yardstick units is comparable across versions of the package.
YARDSTICK_N = 60
YARDSTICK_SEED = 987654
YARDSTICK_SHARE = 0.5
YARDSTICK_MIN_S = 0.5
SETUP_SAMPLES = 5  # set-ups per yardstick slot
FAMILIES = ("path", "cycle", "star", "complete", "lollipop", "tadpole", "broom", "bistar")
# the default window with every family grid shrunk to its minimum: what is
# left are the shadow instances and the seeded random shadow/rule checks
NO_FAMILY_WINDOW = "basic=1,complete=1,m=1,n=1,bistar_n=1,bridged=1"
# measured by the sweep workloads' untraced breakdown; 0 on the others
SWEEP_BREAKDOWN = [f"verify.family.{fam}.s" for fam in FAMILIES] + [
    "verify.random.s", "verify.parallel_speedup", "verify.parallel_efficiency",
]


def import_package():
    """Import closegraph (and its CLI) afresh from the checkout's src/."""
    for key in [k for k in sys.modules if k == "closegraph" or k.startswith("closegraph.")]:
        del sys.modules[key]
    cg = importlib.import_module("closegraph")
    importlib.import_module("closegraph.cli")
    if not Path(cg.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: closegraph imported from {cg.__file__}, not {SRC}")
    return cg


class Sweep:
    """`closegraph verify --all` with the default window."""

    def __init__(self, jobs: int):
        self.jobs = jobs
        self.other_jobs = PARALLEL_JOBS + 1 - jobs
        self.reference = None

    def build(self, cg, seed: int, workdir: Path) -> None:
        self.default_seed = seed == 0
        self.sweep_seed = cg.verify.DEFAULT_SEED + seed
        self.outdir = workdir / "records"
        self.argv = ["verify", "--all", "--seed", str(self.sweep_seed), "-o", str(self.outdir)]

    def run_pass(self, cg, jobs: int | None = None):
        os.environ[cg.verify.JOBS_ENV_VAR] = str(jobs or self.jobs)
        with redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            rc = cg.cli.main(self.argv)
            elapsed = time.perf_counter() - t0
        files = {name: (self.outdir / name).read_bytes() for name in oracle.BASELINE_SHA256}
        return elapsed, {"rc": rc, "files": files}

    def prepare_checks(self, cg) -> None:
        """The same sweep at the other parallelism degree is the reference."""
        if self.reference is None:
            _, self.reference = self.run_pass(cg, jobs=self.other_jobs)

    def check(self, out):
        attempted, failed = oracle.check_sweep(
            out["files"], self.reference["files"], self.default_seed
        )
        if out["rc"] != 0 or self.reference["rc"] != 0:
            failed = max(failed, 1)
        return attempted, failed

    def properties(self, cg) -> dict:
        """The sweep's largest measured graph is the line graph of K_n plus
        a pendant edge, n = the window's bridged_max."""
        n = cg.verify.parse_window("default").bridged_max
        base = cg.generate(cg.FamilySpec("complete", n))
        joined, _ = cg.bridge_join(base, 0, cg.Graph.from_edges(1, []), 0)
        g, _ = cg.line_graph(joined)
        return {"sweep_seed": self.sweep_seed, "jobs": self.jobs, "order": g.order,
                "edges": g.edge_count, "diameter": oracle.diameter(g.adj)}

    def breakdown(self, cg, own_s: float) -> dict:
        """Untraced timings: one run_all per family, one of the checks
        outside every family (shadow instances and the random rules), and
        the speedup of the parallel sweep over the serial one, using
        own_s as this workload's pass time and one pass at the other
        degree, which also becomes the check reference."""
        metrics = {}
        for fam in FAMILIES:
            t0 = time.perf_counter()
            cg.verify.run_all(seed=self.sweep_seed, families={fam}, jobs=1)
            metrics[f"verify.family.{fam}.s"] = time.perf_counter() - t0
        t0 = time.perf_counter()
        cg.verify.run_all(cg.verify.parse_window(NO_FAMILY_WINDOW), seed=self.sweep_seed, jobs=1)
        metrics["verify.random.s"] = time.perf_counter() - t0
        other_s, self.reference = self.run_pass(cg, jobs=self.other_jobs)
        serial_s, parallel_s = (own_s, other_s) if self.jobs == 1 else (other_s, own_s)
        metrics["verify.parallel_speedup"] = serial_s / parallel_s
        metrics["verify.parallel_efficiency"] = serial_s / parallel_s / PARALLEL_JOBS
        return metrics


class _OneGraph:
    n: int
    edges: list

    def properties(self, cg) -> dict:
        adj = oracle.adjacency(self.n, self.edges)
        return {"order": self.n, "edges": len(self.edges), "diameter": oracle.diameter(adj)}


class VulnSparse(_OneGraph):
    """The three single-edit vulnerability measures on one sparse graph."""

    n = 60

    def build(self, cg, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.edges = oracle.long_diameter_edges(seed, self.n)
        self.graph = cg.Graph.from_edges(self.n, self.edges)

    def run_pass(self, cg):
        vuln = cg.vulnerability
        g = self.graph
        t0 = time.perf_counter()
        reports = [vuln.link_residual(g), vuln.vertex_residual(g), vuln.additional_closeness(g)]
        elapsed = time.perf_counter() - t0
        return elapsed, [r.to_json() for r in reports]

    def prepare_checks(self, cg) -> None:
        self.verified: list | None = None
        self.api_baseline = oracle.parse_canonical(
            cg.graph_closeness(self.graph).total.canonical()
        )

    def check(self, out):
        """The first output is re-derived in full; later passes must equal it."""
        if self.verified is None:
            ok = [
                oracle.check_vulnerability(r, self.n, self.edges, self.api_baseline, self.seed)
                for r in out
            ]
            if all(ok):
                self.verified = out
            return 3, ok.count(False)
        return 3, sum(a != b for a, b in zip(out, self.verified))

class ClosenessLarge(_OneGraph):
    """`closegraph closeness --per-vertex --format json` on one large graph."""

    n, m, sample_size = 2000, 8000, 32

    def build(self, cg, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.edges = oracle.short_diameter_edges(seed, self.n, self.m)
        self.path = workdir / "graph.edges"
        self.path.write_text(oracle.edgelist_text(self.n, self.edges))
        self.argv = ["closeness", "-i", str(self.path), "--per-vertex", "--format", "json"]

    def run_pass(self, cg):
        buf = io.StringIO()
        with redirect_stdout(buf):
            t0 = time.perf_counter()
            rc = cg.cli.main(self.argv)
            elapsed = time.perf_counter() - t0
        return elapsed, {"rc": rc, "stdout": buf.getvalue()}

    def prepare_checks(self, cg) -> None:
        adj = oracle.adjacency(self.n, self.edges)
        picks = Random(self.seed).sample(range(self.n), self.sample_size)
        self.sample = {v: oracle.reference_closeness(adj, v) for v in picks}

    def check(self, out):
        attempted, failed = oracle.check_closeness(out["stdout"], self.n, self.sample)
        return attempted, attempted if out["rc"] != 0 else failed


WORKLOADS = {
    "sweep-serial": lambda: Sweep(jobs=1),
    "sweep-parallel": lambda: Sweep(jobs=PARALLEL_JOBS),
    "vuln-sparse": VulnSparse,
    "closeness-large": ClosenessLarge,
}


# ---------------------------------------------------------------------------
# tracing


def install_tracer(cg, tracer: Tracer) -> None:
    """Wrap every public layer entry point the workloads reach."""
    graph, transforms, vuln = cg.graph, cg.transforms, cg.vulnerability

    def closeness_counts(result, args):
        g = args[0]
        return {"graph.closeness.sources": g.order,
                "graph.closeness.edge_scans": g.order * 2 * g.edge_count}

    tracer.patch_function(graph, "graph_closeness", "graph.closeness", closeness_counts)
    tracer.patch_method(
        graph.Graph, "from_edges", "graph.from_edges",
        lambda g, args: {"graph.from_edges.edges": g.edge_count},
    )
    tracer.patch_function(
        graph, "parse_edgelist", "graph.parse_edgelist",
        lambda g, args: {"graph.parse_edgelist.bytes": len(args[0])},
    )
    tracer.patch_function(
        transforms, "line_graph", "transforms.line_graph",
        lambda r, args: {"transforms.line_graph.out_edges": r[0].edge_count},
    )
    tracer.patch_function(transforms, "shadow", "transforms.shadow")
    for fn in ("bridge_join", "coalesce_join"):
        tracer.patch_function(transforms, fn, "transforms.join")
    for fn in ("add_edge", "delete_edge", "delete_vertex"):
        tracer.patch_function(transforms, fn, "transforms.edit")
    tracer.patch_function(cg.generators, "generate", "generators.generate")
    tracer.patch_function(cg.generators, "gen_random_connected", "generators.random")
    formulas = cg.formulas
    for fn in formulas.__all__:
        if inspect.isfunction(getattr(formulas, fn)):
            tracer.patch_function(formulas, fn, "formulas")
    dyadic = cg.Dyadic
    for attr, raw in list(vars(dyadic).items()):
        # private helpers only run inside a public method's span
        private = attr.startswith("_") and not attr.startswith("__")
        if (callable(raw) or isinstance(raw, classmethod)) and not private:
            tracer.patch_method(dyadic, attr, "dyadic.new" if attr == "__init__" else "dyadic")

    def candidates(kind):
        def count(report, args):
            g = args[0]
            m = g.edge_count
            n = {"link": m, "vertex": g.order, "additional": g.order * (g.order - 1) // 2 - m}
            return {"vulnerability.candidates": n[kind]}
        return count

    for fn, kind in (("link_residual", "link"), ("vertex_residual", "vertex"),
                     ("additional_closeness", "additional")):
        tracer.patch_function(vuln, fn, f"vulnerability.{kind}", candidates(kind))
    tracer.patch_function(cg.verify, "run_all", "verify")
    for fn in ("write_csv", "write_json"):
        tracer.patch_function(cg.verify, fn, "verify.write")
    tracer.patch_function(cg.cli, "main", "cli")


def layer_metrics(tracer: Tracer, passes: int) -> dict:
    """Per-pass self time and counts for each layer named in BENCHMARK.json."""
    seconds, calls = tracer.layer_totals()
    counters = tracer.counters

    def s(*names):
        return sum(seconds.get(n, 0.0) for n in names) / passes

    def c(name):
        return calls.get(name, 0) / passes

    def k(name):
        return counters.get(name, 0) / passes

    return {
        "graph.closeness.calls": c("graph.closeness"),
        "graph.closeness.s": s("graph.closeness"),
        "graph.closeness.sources": k("graph.closeness.sources"),
        "graph.closeness.edge_scans": k("graph.closeness.edge_scans"),
        "graph.from_edges.calls": c("graph.from_edges"),
        "graph.from_edges.s": s("graph.from_edges"),
        "graph.from_edges.edges": k("graph.from_edges.edges"),
        "graph.parse_edgelist.s": s("graph.parse_edgelist"),
        "graph.parse_edgelist.bytes": k("graph.parse_edgelist.bytes"),
        "transforms.line_graph.calls": c("transforms.line_graph"),
        "transforms.line_graph.s": s("transforms.line_graph"),
        "transforms.line_graph.out_edges": k("transforms.line_graph.out_edges"),
        "transforms.shadow.calls": c("transforms.shadow"),
        "transforms.shadow.s": s("transforms.shadow"),
        "transforms.join.calls": c("transforms.join"),
        "transforms.join.s": s("transforms.join"),
        "transforms.edit.calls": c("transforms.edit"),
        "transforms.edit.s": s("transforms.edit"),
        "generators.generate.calls": c("generators.generate"),
        "generators.generate.s": s("generators.generate"),
        "generators.random.calls": c("generators.random"),
        "generators.random.s": s("generators.random"),
        "formulas.calls": c("formulas"),
        "formulas.s": s("formulas"),
        "dyadic.new.calls": c("dyadic.new"),
        "dyadic.s": s("dyadic", "dyadic.new"),
        "vulnerability.link.s": s("vulnerability.link"),
        "vulnerability.vertex.s": s("vulnerability.vertex"),
        "vulnerability.additional.s": s("vulnerability.additional"),
        "vulnerability.candidates": k("vulnerability.candidates"),
        "verify.self_s": s("verify"),
        "verify.write.s": s("verify.write"),
        "cli.self_s": s("cli"),
        "trace.unattributed_s": s("pass"),
    }


# ---------------------------------------------------------------------------
# running one workload


def machine_info() -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {"python": platform.python_version(), "nproc": nproc, "cpu": cpu}


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest waited-for child."""
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024


class Setup:
    """The package and workload that the next pass uses.

    Each call of `again` imports the package afresh and rebuilds the
    inputs, timing both as one set-up sample. It runs between slices of
    the yardstick (see `between_passes`), so each pass starts from a fresh
    package and the set-up samples spread over the run.
    """

    def __init__(self, name: str, seed: int, workdir: Path):
        self.name, self.seed, self.workdir = name, seed, workdir
        self.times: list[float] = []

    def again(self) -> None:
        gc.collect()  # start each sample from the same heap, not the last pass's garbage
        t0 = time.perf_counter()
        self.cg = import_package()
        self.workload = WORKLOADS[self.name]()
        self.workload.build(self.cg, self.seed, self.workdir)
        self.times.append(time.perf_counter() - t0)


def yardstick(seconds: float) -> float:
    """Mean seconds per yardstick unit, over units run for `seconds`."""
    edges = oracle.long_diameter_edges(YARDSTICK_SEED, YARDSTICK_N)
    present = set(edges)
    edits = [(u, v) for u in range(YARDSTICK_N) for v in range(u + 1, YARDSTICK_N)
             if (u, v) not in present]
    units = 0
    t0 = time.perf_counter()
    while True:
        adj = oracle.adjacency(YARDSTICK_N, edges + [edits[units % len(edits)]])
        total = 0
        for source in range(YARDSTICK_N):
            for d in oracle.bfs(adj, source):
                if d > 0:
                    total += 1 << (64 - d)
        units += 1
        elapsed = time.perf_counter() - t0
        if elapsed >= seconds:
            return elapsed / units


def between_passes(setup: Setup, seconds: float) -> float:
    """Run the yardstick for `seconds` in SETUP_SAMPLES slices, each
    followed by one timed set-up, and return its seconds per unit. A sweep
    run has only two or three passes, and set-up time drifts with the host
    as pass time does, so set-up is sampled several times between passes."""
    units = []
    for _ in range(SETUP_SAMPLES):
        units.append(yardstick(seconds / SETUP_SAMPLES))
        setup.again()
    return statistics.mean(units)


def one_pass(workload, cg, tracer: Tracer | None = None):
    """One pass, inside a root span when traced; (seconds, output), and
    output None if the pass raised."""
    began = time.perf_counter()
    try:
        if tracer is None:
            return workload.run_pass(cg)
        install_tracer(cg, tracer)
        try:
            with tracer.span("pass"):
                return workload.run_pass(cg)
        finally:
            tracer.uninstall()
    except Exception:
        traceback.print_exc()
        return time.perf_counter() - began, None


def timed_passes(setup: Setup, seconds: float):
    """Run passes, each between two yardstick slots that also set up the
    next pass, until `seconds` have elapsed (at least one pass)."""
    times, yardsticks, outputs = [], [between_passes(setup, YARDSTICK_MIN_S)], []
    start = time.perf_counter()
    while not times or time.perf_counter() - start < seconds:
        elapsed, out = one_pass(setup.workload, setup.cg)
        times.append(elapsed)
        outputs.append(out)
        yardsticks.append(between_passes(setup, max(YARDSTICK_MIN_S, YARDSTICK_SHARE * elapsed)))
    return times, yardsticks, outputs


def relative_times(times, yardsticks) -> list[float]:
    """Each pass time in yardstick units: over the mean unit time of the
    yardsticks on either side of it."""
    return [t / ((a + b) / 2) for t, a, b in zip(times, yardsticks, yardsticks[1:])]


def check_outputs(workload, cg, outputs) -> tuple[int, int]:
    attempted = failed = 0
    try:
        workload.prepare_checks(cg)
    except Exception:
        traceback.print_exc()
        return max(len(outputs), 1), max(len(outputs), 1)
    per_pass = None
    for out in outputs:
        if out is None:
            continue
        a, f = workload.check(out)
        attempted, failed, per_pass = attempted + a, failed + f, a
    raised = sum(out is None for out in outputs)
    attempted += raised * (per_pass or 1)
    failed += raised * (per_pass or 1)
    return attempted, failed


def write_trace(path: Path, tracer: Tracer) -> None:
    """Write the spans once, as one JSON object of parallel lists."""
    spans = {
        "names": tracer.names,
        "name_idx": list(tracer.name_idx),
        "parent": list(tracer.parent),
        "start": list(tracer.start),
        "end": list(tracer.end),
    }
    with open(path, "w") as fh:
        json.dump(spans, fh)


def traced_run(name: str, setup: Setup, seconds: float):
    """Alternate untraced and traced passes for `seconds`, so that host
    speed drift cancels out of the tracing overhead.

    Returns the per-layer metrics, the traced pass times and every output
    to check.
    """
    tracer = Tracer()
    untraced, traced, outputs = [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        setup.again()
        for tracer_or_none, times in ((None, untraced), (tracer, traced)):
            elapsed, out = one_pass(setup.workload, setup.cg, tracer_or_none)
            times.append(elapsed)
            outputs.append(out)
    cg, workload = setup.cg, setup.workload
    write_trace(OUT / f"{name}-spans.json", tracer)
    layers = dict.fromkeys(SWEEP_BREAKDOWN, 0.0)
    if isinstance(workload, Sweep):
        layers.update(workload.breakdown(cg, statistics.median(untraced)))
    layers.update(layer_metrics(tracer, len(traced)))
    # root spans also cover reading the outputs back, so every layer's
    # self time sums to trace.wall_s; the overhead compares like timings
    layers["trace.wall_s"] = statistics.mean(tracer.durations("pass"))
    layers["trace.overhead_frac"] = sum(traced) / sum(untraced) - 1
    layers["vulnerability.affected_source_frac"] = (
        oracle.affected_source_frac(workload.n, workload.edges)
        if isinstance(workload, VulnSparse) else 0.0
    )
    return layers, traced, outputs


def run(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"{name}-seed{seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        setup = Setup(name, seed, workdir)
        yardsticks: list[float] = []
        if trace:
            layers, times, outputs = traced_run(name, setup, seconds)
            metrics = {k: (v, unit_of(k)) for k, v in layers.items()}
        else:
            times, yardsticks, outputs = timed_passes(setup, seconds)
            metrics = {
                "wall_rel": (statistics.median(relative_times(times, yardsticks)), "yardstick"),
                "setup_s": (statistics.median(setup.times), "s"),
                "peak_rss_mb": (peak_rss_mb(), "MB"),
            }
        attempted, failed = check_outputs(setup.workload, setup.cg, outputs)
        info = {
            "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
            **machine_info(), "setup_s": setup.times, "passes": len(times), "pass_s": times,
            "wall_s": statistics.median(times), "yardstick_s": yardsticks,
            "inputs": setup.workload.properties(setup.cg), "failed_frac": failed / attempted,
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, info


def unit_of(metric: str) -> str:
    if metric.endswith("_frac") or metric.endswith("_speedup") or metric.endswith("_efficiency"):
        return "ratio"
    if metric.endswith(".s") or metric.endswith("_s"):
        return "s"
    if metric.endswith(".bytes"):
        return "bytes"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "closegraph" / "__init__.py").is_file():
        print(f"error: closegraph sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result, info = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for key, m in result["metrics"].items():
        print(f"{key:40s} {m['value']:.6g} {m['unit']}")
    print(f"{'failed_frac':40s} {info['failed_frac']:.6g} ratio"
          f" ({result['failed']}/{result['attempted']})")
    if not args.trace:
        print(f"{'wall_s (median pass, not relative)':40s} {info['wall_s']:.6g} s")
    print(json.dumps({"info": info}))
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps({"info": info, "result": result}, indent=2))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
