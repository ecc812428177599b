"""Command-line front end.

Subcommands: gen, closeness, transform, verify, vuln. Exit codes:
0 success, 1 verification failure, 2 usage or validation error.
Identical inputs and seed produce byte-identical output files.
"""

from __future__ import annotations

import argparse
import json
import sys
from json.encoder import encode_basestring_ascii as quote
from pathlib import Path

from .dyadic import Dyadic
from .generators import generate, parse_family_spec
from .graph import Graph, _parse_int, format_edgelist, graph_closeness, parse_edgelist, to_dot
from .transforms import bridge_join, coalesce_join, line_graph, shadow
from .verify import (
    DEFAULT_SEED,
    failures,
    parse_window,
    run_all,
    write_csv,
    write_json,
)
from .vulnerability import additional_closeness, link_residual, vertex_residual

__all__ = ["main"]


def _approx(d: Dyadic) -> str:
    return f"{float(d):g}"


def integer(text: str) -> int:
    """An integer option's value, by graph._parse_int; argparse names the
    type in its error by this function's name."""
    return _parse_int(text)


def _load_graph(path: str) -> Graph:
    return parse_edgelist(Path(path).read_text())


def _write_graph(g: Graph, path: str, fmt: str) -> None:
    text = to_dot(g) if fmt == "dot" else format_edgelist(g)
    if path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _write_origins(origins, out_path: str) -> None:
    sidecar = Path(out_path + ".origins.json")
    sidecar.write_text(
        json.dumps([o.to_json() for o in origins], indent=2) + "\n"
    )


def _cmd_gen(args) -> int:
    spec = parse_family_spec(args.family_spec)
    _write_graph(generate(spec), args.output, args.format)
    return 0


def _closeness_json(g: Graph, report, per_vertex: bool) -> str:
    """The text json.dumps(payload, indent=2) gives for the closeness
    payload {"order", "total"[, "per_vertex": [{"vertex", "label",
    "closeness"}, ...]]}, written one f-string per vertex: with indent
    set, json.dumps runs its pure-Python encoder, which was most of the
    output time on large graphs. Labels are escaped as json.dumps escapes
    them; canonical dyadic text is digits, '-', '/' and '^', which need
    no escaping."""
    head = f'{{\n  "order": {g.order},\n  "total": "{report.total.canonical()}"'
    if not per_vertex:
        return head + "\n}"
    if not report.per_vertex:
        return head + ',\n  "per_vertex": []\n}'
    labels = g.labels
    rows = ",\n".join(
        f'    {{\n      "vertex": {i},\n      "label": {quote(labels[i])},\n'
        f'      "closeness": "{c.canonical()}"\n    }}'
        for i, c in enumerate(report.per_vertex)
    )
    return f'{head},\n  "per_vertex": [\n{rows}\n  ]\n}}'


def _cmd_closeness(args) -> int:
    g = _load_graph(args.input)
    report = graph_closeness(g)
    fmt = args.format
    if fmt == "json":
        print(_closeness_json(g, report, args.per_vertex))
    elif fmt == "csv":
        print("vertex,label,closeness")
        if args.per_vertex:
            for i, c in enumerate(report.per_vertex):
                print(f"{i},{g.labels[i]},{c.canonical()}")
        print(f"total,,{report.total.canonical()}")
    else:
        if args.per_vertex:
            for i, c in enumerate(report.per_vertex):
                print(f"{i:4d}  {g.labels[i]:<12} {c.canonical()}  (= {_approx(c)})")
        print(f"total: {report.total.canonical()}  (= {_approx(report.total)})")
    return 0


def _cmd_transform(args) -> int:
    if args.op in ("shadow", "line"):
        g = _load_graph(args.input)
        result, origins = shadow(g) if args.op == "shadow" else line_graph(g)
    else:
        g1 = _load_graph(args.input)
        g2 = _load_graph(args.join_input)
        join = bridge_join if args.op == "bridge-join" else coalesce_join
        try:
            result, origins = join(g1, args.p, g2, args.q)
        except IndexError as exc:
            raise ValueError(str(exc)) from None
    _write_graph(result, args.output, args.format)
    if args.output != "-":
        _write_origins(origins, args.output)
    return 0


def _cmd_verify(args) -> int:
    window = parse_window(args.window)
    families = {args.family} if args.family else None
    records = run_all(
        window=window,
        seed=args.seed,
        families=families,
        experiment_min_degree=args.experiment_min_degree,
    )
    out_dir = Path(args.output)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_csv(records, out_dir / "records.csv")
    write_json(records, out_dir / "records.json")
    failed = failures(records)
    experiments = [r for r in records if r.check.startswith("experiment_")]
    checked = len(records) - len(experiments)
    print(f"{checked} checks, {len(failed)} failed; records in {out_dir}")
    if experiments:
        holds = sum(r.passed for r in experiments)
        print(f"experiment report: {holds}/{len(experiments)} cases agree (not asserted)")
    if failed:
        first = failed[0]
        print(
            "first failure: "
            f"{first.check} p1={first.p1} p2={first.p2} "
            f"formula={first.formula.canonical()} oracle={first.oracle.canonical()}",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_vuln(args) -> int:
    g = _load_graph(args.input)
    measure = {
        "link": link_residual,
        "vertex": vertex_residual,
        "additional": additional_closeness,
    }[args.measure]
    report = measure(g)
    if args.format == "json":
        print(json.dumps(report.to_json(), indent=2))
    else:
        print(f"measure:   {report.measure}")
        print(f"baseline:  {report.baseline.canonical()}  (= {_approx(report.baseline)})")
        print(f"value:     {report.value.canonical()}  (= {_approx(report.value)})")
        parts = [
            f"({w[0]},{w[1]})" if isinstance(w, tuple) else str(w)
            for w in report.witnesses
        ]
        print(f"witnesses: {' '.join(parts)}")
        print(f"evaluated: {report.evaluated} of {report.candidates} candidates")
        if report.bounded:
            print(f"bounded: {report.bounded} of {report.candidates} candidates")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="closegraph",
        description="Exact dyadic closeness of graphs, graph operations, "
        "and closed-form verification sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a family graph and write it out")
    p.add_argument("family_spec", help='e.g. "path:5", "lollipop:3,2", "bistar:4,3"')
    p.add_argument("-o", "--output", default="-", help="output file (default stdout)")
    p.add_argument("-f", "--format", choices=["edgelist", "dot"], default="edgelist")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("closeness", help="exact closeness report for a graph file")
    p.add_argument("-i", "--input", required=True, help="edge-list file")
    p.add_argument("--per-vertex", action="store_true", help="include per-vertex rows")
    p.add_argument("--format", choices=["text", "json", "csv"], default="text")
    p.set_defaults(func=_cmd_closeness)

    p = sub.add_parser("transform", help="apply a graph operation")
    ops = p.add_subparsers(dest="op", required=True)
    for name in ("shadow", "line"):
        q = ops.add_parser(name, help=f"{name} graph of the input")
        q.add_argument("-i", "--input", required=True)
        q.add_argument("-o", "--output", required=True)
        q.add_argument("-f", "--format", choices=["edgelist", "dot"], default="edgelist")
        q.set_defaults(func=_cmd_transform)
    for name in ("bridge-join", "coalesce"):
        q = ops.add_parser(name, help=f"{name} two graphs at chosen vertices")
        q.add_argument("-i", "--input", required=True, help="left graph file")
        q.add_argument("-p", type=integer, required=True, help="left attachment vertex")
        q.add_argument("-j", "--join-input", required=True, help="right graph file")
        q.add_argument("-q", type=integer, required=True, help="right attachment vertex")
        q.add_argument("-o", "--output", required=True)
        q.add_argument("-f", "--format", choices=["edgelist", "dot"], default="edgelist")
        q.set_defaults(func=_cmd_transform)

    p = sub.add_parser("verify", help="run the formula-vs-oracle sweeps")
    p.add_argument("--all", action="store_true", help="run every sweep (the default)")
    p.add_argument("--family", help="restrict to one family's sweeps")
    p.add_argument("--window", default="default", help='e.g. "basic=32,pairs=50"')
    p.add_argument("--seed", type=integer, default=DEFAULT_SEED)
    p.add_argument(
        "--experiment-min-degree",
        action="store_true",
        help="also report (without asserting) the shadow rule on "
        "min-degree-1 but possibly disconnected graphs",
    )
    p.add_argument("-o", "--output", default=".", help="directory for records.csv/json")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("vuln", help="single-edit vulnerability measures")
    p.add_argument("measure", choices=["link", "vertex", "additional"])
    p.add_argument("-i", "--input", required=True)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=_cmd_vuln)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
