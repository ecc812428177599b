"""CLI subcommands: round trips, formats, exit codes."""

import json
import time
import tracemalloc
from pathlib import Path

import pytest

from closegraph import vulnerability
from closegraph.cli import _closeness_json, main
from closegraph.generators import gen_random_connected
from closegraph.graph import MAX_ORDER, Graph, format_edgelist, graph_closeness, parse_edgelist

DATA = Path(__file__).parent / "data"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_to_stdout(capsys):
    code, out, _ = run(capsys, "gen", "path:3")
    assert code == 0
    assert out == "3 2\n0 1\n1 2\n"


def test_gen_closeness_round_trip(tmp_path, capsys):
    path = tmp_path / "lollipop.edges"
    code, _, _ = run(capsys, "gen", "lollipop:3,2", "-o", str(path))
    assert code == 0
    code, out, _ = run(capsys, "closeness", "-i", str(path))
    assert code == 0
    assert "total: 7/2^0  (= 7)" in out


def test_gen_file_matches_in_memory(tmp_path, capsys):
    from closegraph.generators import parse_family_spec, generate
    from closegraph.graph import graph_closeness, parse_edgelist

    for text in ("path:7", "cycle:6", "star:5", "complete:4",
                 "lollipop:4,3", "tadpole:5,2", "broom:3,4", "bistar:4,3"):
        path = tmp_path / "g.edges"
        code, _, _ = run(capsys, "gen", text, "-o", str(path))
        assert code == 0
        from_file = graph_closeness(parse_edgelist(path.read_text())).total
        in_memory = graph_closeness(generate(parse_family_spec(text))).total
        assert from_file == in_memory


def test_closeness_per_vertex_json(tmp_path, capsys):
    path = tmp_path / "p3.edges"
    run(capsys, "gen", "path:3", "-o", str(path))
    code, out, _ = run(
        capsys, "closeness", "-i", str(path), "--per-vertex", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["total"] == "5/2^1"
    assert payload["per_vertex"][1]["closeness"] == "1/2^0"
    # edge-list files carry no labels, so parsed graphs use the index
    assert payload["per_vertex"][0]["label"] == "0"


def _closeness_payload(g, per_vertex):
    report = graph_closeness(g)
    payload = {"order": g.order, "total": report.total.canonical()}
    if per_vertex:
        payload["per_vertex"] = [
            {"vertex": i, "label": g.labels[i], "closeness": c.canonical()}
            for i, c in enumerate(report.per_vertex)
        ]
    return payload


@pytest.mark.parametrize("per_vertex", [False, True], ids=["total", "per_vertex"])
@pytest.mark.parametrize(
    "g",
    [Graph.from_edges(0, []), Graph.from_edges(1, []), gen_random_connected(1100, 2400, seed=5)],
    ids=["order0", "order1", "random1100"],
)
def test_closeness_json_is_json_dumps_text(tmp_path, capsys, g, per_vertex):
    """`closeness --format json` writes exactly the bytes of
    json.dumps(payload, indent=2) plus a newline."""
    path = tmp_path / "g.edges"
    path.write_text(format_edgelist(g))
    flags = ["--per-vertex"] if per_vertex else []
    code, out, _ = run(capsys, "closeness", "-i", str(path), *flags, "--format", "json")
    assert code == 0
    parsed = parse_edgelist(path.read_text())
    assert out == json.dumps(_closeness_payload(parsed, per_vertex), indent=2) + "\n"


def test_closeness_json_escapes_labels_as_json_dumps():
    labels = ['a"b', "back\\slash", "é", "tab\there", " ", "K:0"]
    g = Graph.from_edges(len(labels), [(0, 1), (1, 2), (3, 4)], labels)
    text = _closeness_json(g, graph_closeness(g), per_vertex=True)
    assert text == json.dumps(_closeness_payload(g, True), indent=2)


@pytest.mark.parametrize(
    "stem, fmt, suffix",
    [
        # the json cases keep the ids they had before csv and text were pinned
        pytest.param(stem, fmt, suffix, id=stem if fmt == "json" else f"{stem}-{fmt}")
        for fmt, suffix in [("json", "json"), ("csv", "csv"), ("text", "txt")]
        for stem in ["path60_chords6_seed0", "rand60_m240_seed0", "barbell4_5_plus1"]
    ],
)
def test_closeness_json_pinned(capsys, stem, fmt, suffix):
    """`closeness --per-vertex` on a long-diameter, a short-diameter and
    a disconnected graph prints exactly the text committed beside each,
    in json, csv and text."""
    code, out, _ = run(capsys, "closeness", "-i", str(DATA / f"{stem}.edges"),
                       "--per-vertex", "--format", fmt)
    assert code == 0
    assert out == (DATA / f"{stem}.closeness.{suffix}").read_text()


def test_closeness_csv(tmp_path, capsys):
    path = tmp_path / "p2.edges"
    run(capsys, "gen", "path:2", "-o", str(path))
    code, out, _ = run(capsys, "closeness", "-i", str(path), "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["vertex,label,closeness", "total,,1/2^0"]


def test_transform_line_golden_value(tmp_path, capsys):
    # triangle with a pendant edge; its line graph has closeness 11/2
    src = tmp_path / "k3b.edges"
    src.write_text("4 4\n0 1\n0 2\n1 2\n2 3\n")
    out_path = tmp_path / "line.edges"
    code, _, _ = run(capsys, "transform", "line", "-i", str(src), "-o", str(out_path))
    assert code == 0
    code, out, _ = run(capsys, "closeness", "-i", str(out_path))
    assert code == 0
    assert "total: 11/2^1  (= 5.5)" in out
    origins = json.loads((tmp_path / "line.edges.origins.json").read_text())
    assert origins == [["edge", [0, 1]], ["edge", [0, 2]], ["edge", [1, 2]], ["edge", [2, 3]]]


def test_transform_shadow(tmp_path, capsys):
    src = tmp_path / "p5.edges"
    run(capsys, "gen", "path:5", "-o", str(src))
    out_path = tmp_path / "shadow.edges"
    code, _, _ = run(capsys, "transform", "shadow", "-i", str(src), "-o", str(out_path))
    assert code == 0
    assert out_path.read_text().splitlines()[0] == "10 16"
    code, out, _ = run(capsys, "closeness", "-i", str(out_path))
    assert "total: 27/2^0  (= 27)" in out


def test_transform_bridge_join(tmp_path, capsys):
    left = tmp_path / "k3.edges"
    right = tmp_path / "p2.edges"
    run(capsys, "gen", "complete:3", "-o", str(left))
    run(capsys, "gen", "path:2", "-o", str(right))
    out_path = tmp_path / "joined.edges"
    code, _, _ = run(
        capsys, "transform", "bridge-join",
        "-i", str(left), "-p", "0", "-j", str(right), "-q", "0", "-o", str(out_path),
    )
    assert code == 0
    code, out, _ = run(capsys, "closeness", "-i", str(out_path))
    assert "total: 7/2^0" in out


def test_transform_coalesce(tmp_path, capsys):
    left = tmp_path / "a.edges"
    right = tmp_path / "b.edges"
    run(capsys, "gen", "path:2", "-o", str(left))
    run(capsys, "gen", "path:2", "-o", str(right))
    out_path = tmp_path / "merged.edges"
    code, _, _ = run(
        capsys, "transform", "coalesce",
        "-i", str(left), "-p", "0", "-j", str(right), "-q", "0", "-o", str(out_path),
    )
    assert code == 0
    assert out_path.read_text().splitlines()[0] == "3 2"


def test_gen_dot_format(capsys):
    code, out, _ = run(capsys, "gen", "star:3", "-f", "dot")
    assert code == 0
    assert out.startswith("graph G {")
    assert 'label="S:0"' in out


def test_vuln_text_and_json(tmp_path, capsys):
    src = tmp_path / "c3.edges"
    run(capsys, "gen", "cycle:3", "-o", str(src))
    code, out, _ = run(capsys, "vuln", "link", "-i", str(src))
    assert code == 0
    assert "value:     5/2^1  (= 2.5)" in out
    assert "witnesses: (0,1) (0,2) (1,2)" in out
    assert "evaluated: 3 of 3 candidates" in out
    assert "bounded:" not in out  # deletions have no bound
    code, out, _ = run(capsys, "vuln", "vertex", "-i", str(src), "--format", "json")
    payload = json.loads(out)
    assert payload["measure"] == "vertex_residual"
    assert payload["value"] == "1/2^0"
    code, out, _ = run(capsys, "vuln", "additional", "-i", str(DATA / "path60_chords6_seed0.edges"))
    assert code == 0
    assert "evaluated: 39 of 1705 candidates\nbounded: 313 of 1705 candidates\n" in out


def test_oversized_header_exit_2(tmp_path, capsys):
    path = tmp_path / "huge.edges"
    path.write_text("100000000 0\n")
    code, _, err = run(capsys, "closeness", "-i", str(path))
    assert code == 2
    assert "line 1: header declares 100000000 vertices" in err


@pytest.mark.parametrize("value", ["abc", "0", "1_0", "+3", "\u0663"])
def test_verify_bad_jobs_exit_2(tmp_path, capsys, monkeypatch, value):
    monkeypatch.setenv("CLOSEGRAPH_JOBS", value)
    code, _, err = run(capsys, "verify", "--family", "cycle", "-o", str(tmp_path))
    assert code == 2
    assert err.startswith("error: CLOSEGRAPH_JOBS must be")


def test_verify_small_window(tmp_path, capsys):
    out_dir = tmp_path / "records"
    code, out, _ = run(
        capsys, "verify", "--all",
        "--window", "basic=8,complete=5,m=4,n=3,bistar_n=4,bridged=6,"
        "shadow_cases=5,shadow_order=6,pairs=5,pair_order=5",
        "-o", str(out_dir),
    )
    assert code == 0
    assert "0 failed" in out
    assert (out_dir / "records.csv").exists()
    assert (out_dir / "records.json").exists()


def test_verify_experiment_is_reported_not_counted(tmp_path, capsys):
    code, out, _ = run(
        capsys, "verify", "--experiment-min-degree",
        "--window", "basic=1,complete=1,m=1,n=1,bistar_n=1,bridged=1,shadow_cases=3,pairs=1",
        "-o", str(tmp_path),
    )
    assert code == 0
    rows = (tmp_path / "records.csv").read_text().splitlines()[1:]
    experiments = [row for row in rows if row.startswith("experiment_shadow_min_degree,")]
    assert len(experiments) == 3
    assert out.splitlines() == [
        f"{len(rows) - 3} checks, 0 failed; records in {tmp_path}",
        "experiment report: 3/3 cases agree (not asserted)",
    ]


def test_verify_family_filter(tmp_path, capsys):
    code, out, _ = run(
        capsys, "verify", "--family", "star",
        "--window", "basic=6,bridged=4", "-o", str(tmp_path),
    )
    assert code == 0
    rows = (tmp_path / "records.csv").read_text().splitlines()[1:]
    assert rows and all(row.split(",")[0].split(":")[0].endswith(("star", "star_leaf", "star_center")) for row in rows)


def test_verify_window_above_cap_exit_2(tmp_path, capsys, monkeypatch):
    import closegraph.cli as cli_module

    def refuse(*args, **kwargs):
        raise AssertionError("the sweep started")

    monkeypatch.setattr(Graph, "from_edges", classmethod(refuse))
    monkeypatch.setattr(cli_module, "run_all", refuse)
    out_dir = tmp_path / "records"
    code, _, err = run(capsys, "verify", "--window", "complete=1000000", "-o", str(out_dir))
    assert code == 2
    assert err == "error: window value complete=1000000 must be from 1 to 96 (4x its default)\n"
    assert not out_dir.exists()


def test_verify_failure_exits_1(tmp_path, capsys, monkeypatch):
    from closegraph.dyadic import Dyadic
    from closegraph.verify import VerificationRecord
    import closegraph.cli as cli_module

    bad = VerificationRecord("C_path", 3, None, Dyadic(5, 1), Dyadic(2), False)
    monkeypatch.setattr(cli_module, "run_all", lambda **kw: [bad])
    code, out, err = run(capsys, "verify", "-o", str(tmp_path))
    assert code == 1
    assert "1 failed" in out
    assert "first failure: C_path p1=3" in err
    assert "5/2^1" in err
    rows = (tmp_path / "records.csv").read_text().splitlines()
    assert rows[1].endswith("false")


@pytest.mark.parametrize(
    "argv",
    [
        ("gen", "wheel:5"),
        ("gen", "cycle:2"),
        ("gen", "lollipop:3"),
        ("closeness", "-i", "/nonexistent/file"),
        ("verify", "--window", "bogus=1", "-o", "."),
        ("verify", "--family", "wheel", "-o", "."),
        ("gen", "path:1_0"),
        ("gen", "path:+3"),
        ("gen", "path:\u0663"),
        ("verify", "--window", "basic=1_6", "-o", "."),
        ("verify", "--window", "basic=+3", "-o", "."),
        ("verify", "--window", "basic=\u0663", "-o", "."),
    ],
)
def test_validation_errors_exit_2(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "error:" in err


def test_bad_graph_file_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.edges"
    bad.write_text("2 1\n0 0\n")
    code, _, err = run(capsys, "closeness", "-i", str(bad))
    assert code == 2
    assert "line 2" in err


def test_bridge_join_bad_index_exit_2(tmp_path, capsys):
    left = tmp_path / "a.edges"
    run(capsys, "gen", "path:2", "-o", str(left))
    code, _, err = run(
        capsys, "transform", "bridge-join",
        "-i", str(left), "-p", "9", "-j", str(left), "-q", "0",
        "-o", str(tmp_path / "x.edges"),
    )
    assert code == 2
    assert "out of range" in err


@pytest.mark.parametrize("text", ["+0", "\u0660", "0_0"])
@pytest.mark.parametrize(
    "command, option",
    [("bridge-join", "-p"), ("bridge-join", "-q"), ("coalesce", "-p"), ("coalesce", "-q"),
     ("verify", "--seed")],
)
def test_integer_options_take_only_ascii_digits(tmp_path, capsys, command, option, text):
    """-p, -q and --seed follow the rule of every integer given as text:
    ASCII digits with an optional '-'. argparse exits 2 on any other
    text before anything runs."""
    if command == "verify":
        argv = ["verify", "--window", "basic=3", "--seed", text, "-o", str(tmp_path)]
    else:
        graph_file = str(DATA / "lollipop4_3.edges")
        ends = {"-p": "0", "-q": "0", option: text}
        argv = ["transform", command, "-i", graph_file, "-p", ends["-p"],
                "-j", graph_file, "-q", ends["-q"], "-o", str(tmp_path / "x.edges")]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {option}: invalid integer value" in err
    assert "_parse_int" not in err
    assert not any(tmp_path.iterdir())


def _bounded_run(capsys, *argv):
    """Run the CLI, returning its exit code, stderr, tracemalloc peak and wall time."""
    tracemalloc.start()
    start = time.perf_counter()
    try:
        code, _, err = run(capsys, *argv)
        seconds = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return code, err, peak, seconds


def test_gen_over_size_limit_exit_2(capsys):
    # K_100000 would have about 5 * 10**9 edges
    code, err, peak, seconds = _bounded_run(capsys, "gen", "complete:100000")
    assert code == 2
    assert err == f"error: complete:100000 has more than {MAX_ORDER} vertices or edges\n"
    assert peak < 256 * 1024 and seconds < 1.0  # the peak includes building the parser


def test_vuln_over_order_cap_exit_2(tmp_path, capsys):
    n = vulnerability.MAX_ORDER + 1
    path = tmp_path / "long.edges"
    path.write_text(f"{n} {n - 1}\n" + "".join(f"{i} {i + 1}\n" for i in range(n - 1)))
    code, err, peak, seconds = _bounded_run(capsys, "vuln", "additional", "-i", str(path))
    assert code == 2
    assert err == f"error: vulnerability measures take at most {n - 1} vertices, got {n}\n"
    # parsing the file takes a few hundred KiB; _Balls would take about 200 MiB
    assert peak < 2 * 1024 * 1024 and seconds < 1.0


def test_transform_line_over_size_limit_exit_2(tmp_path, capsys):
    # L(S_1500) is K_1499, with 1,122,751 edges
    src, out_path = tmp_path / "star.edges", tmp_path / "line.edges"
    src.write_text("1500 1499\n" + "".join(f"0 {v}\n" for v in range(1, 1500)))
    code, err, peak, seconds = _bounded_run(capsys, "transform", "line", "-i", str(src), "-o", str(out_path))
    assert code == 2
    assert err == "error: line graph would have 1122751 edges, more than the limit of 1048576\n"
    assert not out_path.exists()
    # parsing the star takes a few hundred KiB; its line graph would take about 280 MiB
    assert peak < 2 * 1024 * 1024 and seconds < 1.0


PINNED_GEN = {"lollipop4_3": "lollipop:4,3", "bistar4_3": "bistar:4,3"}


@pytest.mark.parametrize("name", sorted(PINNED_GEN))
@pytest.mark.parametrize("fmt, suffix", [("edgelist", "edges"), ("dot", "dot")])
def test_gen_output_pinned(capsys, name, fmt, suffix):
    code, out, _ = run(capsys, "gen", PINNED_GEN[name], "-f", fmt)
    assert code == 0
    assert out == (DATA / f"{name}.{suffix}").read_text()


@pytest.mark.parametrize("op", ["line", "shadow", "bridge-join", "coalesce"])
def test_transform_output_pinned(tmp_path, capsys, op):
    source = str(DATA / "path60_chords6_seed0.edges")
    join = ["-p", "0", "-j", source, "-q", "59"] if op in ("bridge-join", "coalesce") else []
    out_path = tmp_path / f"{op}.dot"
    code, _, _ = run(capsys, "transform", op, "-i", source, *join, "-f", "dot", "-o", str(out_path))
    assert code == 0
    pinned = DATA / f"path60_chords6_seed0.{op}.dot"
    assert out_path.read_text() == pinned.read_text()
    sidecar = Path(f"{out_path}.origins.json")
    assert sidecar.read_text() == Path(f"{pinned}.origins.json").read_text()


def test_usage_error_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["transform"])
    assert exc.value.code == 2
