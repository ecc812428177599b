"""Sweep harness: record shapes, determinism, parallel equivalence."""

import re

import pytest

from closegraph.dyadic import Dyadic
from closegraph.generators import FAMILIES
from closegraph.verify import (
    _WINDOW_KEYS,
    SweepWindow,
    VerificationRecord,
    build_tasks,
    failures,
    parse_window,
    run_all,
    write_csv,
    write_json,
)

SMALL = SweepWindow(
    basic_max=10, complete_max=6, m_max=5, n_max=4, bistar_n_max=5,
    bridged_max=7, shadow_cases=10, shadow_max_order=7,
    pair_cases=10, pair_max_order=6,
)


@pytest.fixture(scope="module")
def small_records():
    return run_all(window=SMALL, seed=99)


def test_small_window_all_pass(small_records):
    assert small_records
    assert failures(small_records) == []


def test_expected_check_kinds_present(small_records):
    kinds = {r.check for r in small_records}
    for want in (
        "C_path", "C_cycle", "C_star", "C_complete",
        "C_lollipop", "C_tadpole", "C_broom", "C_bistar",
        "CL_path", "CL_cycle", "CL_star", "CL_complete",
        "CL_lollipop", "CL_tadpole", "CL_broom", "CL_bistar",
        "CLB_path", "CLB_cycle", "CLB_star_leaf", "CLB_star_center", "CLB_complete",
        "CB_path", "CB_cycle", "CB_star_leaf", "CB_star_center", "CB_complete",
        "C_shadow:complete", "C_shadow:star", "C_shadow:path", "C_shadow:random",
        "rule_bridge:random", "rule_coalesce:random",
        "rule_bridge:C_lollipop", "rule_line_bridge:CL_bistar",
    ):
        assert want in kinds, want


def test_tadpole_covers_both_parities(small_records):
    parities = {r.p1 % 2 for r in small_records if r.check == "C_tadpole"}
    assert parities == {0, 1}


def test_deterministic_across_runs(small_records):
    again = run_all(window=SMALL, seed=99)
    assert [r.to_row() for r in again] == [r.to_row() for r in small_records]


def test_seed_changes_random_cases_only(small_records):
    other = run_all(window=SMALL, seed=100)
    fixed = lambda recs: [r.to_row() for r in recs if "random" not in r.check]
    assert fixed(other) == fixed(small_records)
    randoms = lambda recs: [r.to_row() for r in recs if "random" in r.check]
    assert randoms(other) != randoms(small_records)


def test_parallel_matches_serial(small_records):
    parallel = run_all(window=SMALL, seed=99, jobs=2)
    assert [r.to_row() for r in parallel] == [r.to_row() for r in small_records]


def test_records_share_values_and_names(small_records):
    # a passing record holds one Dyadic for both values, and records of one
    # check share one name object, so pickled records unpickle compactly
    assert all((r.formula is r.oracle) == r.passed for r in small_records)
    names = {}
    assert all(names.setdefault(r.check, r.check) is r.check for r in small_records)


def test_jobs_env_var_honored(small_records, monkeypatch):
    from closegraph.verify import JOBS_ENV_VAR

    monkeypatch.setenv(JOBS_ENV_VAR, "2")
    records = run_all(window=SMALL, seed=99)
    assert [r.to_row() for r in records] == [r.to_row() for r in small_records]


class _RecordingPool:
    """Stands in for multiprocessing.Pool: records the worker count it was
    asked for and maps in this process, so no worker is ever started."""

    sizes: list = []

    def __init__(self, processes):
        self.sizes.append(processes)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def imap(self, fn, items, chunksize=1):
        return map(fn, items)


@pytest.fixture
def recording_pool(monkeypatch):
    import multiprocessing

    monkeypatch.setattr(multiprocessing, "Pool", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    return _RecordingPool


def test_jobs_clamped_to_cores_and_tasks(small_records, recording_pool, monkeypatch):
    import os

    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    records = run_all(window=SMALL, seed=99, jobs=10_000)
    assert recording_pool.sizes == [3]
    assert [r.to_row() for r in records] == [r.to_row() for r in small_records]

    monkeypatch.setattr(os, "cpu_count", lambda: 10_000)
    tasks = list(build_tasks(SMALL, seed=99, families={"cycle"}))
    run_all(window=SMALL, seed=99, families={"cycle"}, jobs=10_000)
    assert recording_pool.sizes == [3, len(tasks)]

    monkeypatch.setattr(os, "cpu_count", lambda: None)
    run_all(window=SMALL, seed=99, families={"cycle"}, jobs=4)
    assert recording_pool.sizes == [3, len(tasks)]  # one core: serial


@pytest.mark.parametrize(
    "value, message",
    [
        ("abc", "CLOSEGRAPH_JOBS must be an integer, got 'abc'"),
        ("2.5", "CLOSEGRAPH_JOBS must be an integer"),
        ("", "CLOSEGRAPH_JOBS must be an integer"),
        ("0", "CLOSEGRAPH_JOBS must be at least 1, got 0"),
        ("-3", "CLOSEGRAPH_JOBS must be at least 1, got -3"),
        ("1_0", "CLOSEGRAPH_JOBS must be an integer, got '1_0'"),
        ("+3", r"CLOSEGRAPH_JOBS must be an integer, got '\+3'"),
        ("\u0663", "CLOSEGRAPH_JOBS must be an integer, got '\u0663'"),
    ],
)
def test_bad_jobs_env_var_rejected(value, message, recording_pool, monkeypatch):
    from closegraph.verify import JOBS_ENV_VAR

    monkeypatch.setenv(JOBS_ENV_VAR, value)
    with pytest.raises(ValueError, match=message):
        run_all(window=SMALL, seed=99, families={"cycle"})
    assert recording_pool.sizes == []


@pytest.mark.parametrize("families", [{"wheel"}, {"cycle", "wheel"}])
def test_unknown_family_rejected(families):
    message = f"unknown family 'wheel'; choose from {FAMILIES}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run_all(window=SMALL, seed=99, families=families, jobs=1)


def test_jobs_argument_below_one_rejected():
    with pytest.raises(ValueError, match="jobs must be at least 1, got 0"):
        run_all(window=SMALL, seed=99, families={"cycle"}, jobs=0)


def test_family_filter():
    # each family's pendant-bridge cases; composites get both composition rules
    bridged = {"path": ["path"], "cycle": ["cycle"], "star": ["star_leaf", "star_center"],
               "complete": ["complete"]}
    for family in ("path", "cycle", "star", "complete",
                   "lollipop", "tadpole", "broom", "bistar"):
        records = run_all(window=SMALL, seed=99, families={family})
        want = {f"C_{family}", f"CL_{family}"}
        want |= {f"{kind}_{case}" for case in bridged.get(family, []) for kind in ("CLB", "CB")}
        if family not in bridged:
            want |= {f"rule_bridge:C_{family}", f"rule_line_bridge:CL_{family}"}
        assert {r.check for r in records} == want, family


def test_records_pinned_for_small_window(tmp_path):
    # the record order and bytes of one small sweep with every check kind,
    # the min-degree experiment included
    import hashlib

    records = run_all(window=SMALL, seed=99, experiment_min_degree=True)
    assert len(records) == 358
    write_csv(records, tmp_path / "records.csv")
    write_json(records, tmp_path / "records.json")
    digest = lambda name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
    assert digest("records.csv") == (
        "14e86a7d188592592a24cc1a374c9c451eb70568213443e2cefc71c743a67f31"
    )
    assert digest("records.json") == (
        "497a36b5b3e94525f95e71b2d11b0c688003951258955638ee673345faf8af3c"
    )


def test_experiment_records_reported_not_asserted():
    records = run_all(window=SMALL, seed=99, experiment_min_degree=True)
    experiments = [r for r in records if r.check == "experiment_shadow_min_degree"]
    assert len(experiments) == SMALL.shadow_cases
    # the shadow rule extends to min-degree-1 graphs, so these agree...
    assert all(r.passed for r in experiments)
    # ...but even a failing experiment would not count as a failure
    fake = VerificationRecord(
        "experiment_shadow_min_degree", 0, None, Dyadic(1), Dyadic(2), False
    )
    assert failures(records + [fake]) == []


def test_failures_picks_up_bad_records(small_records):
    fake = VerificationRecord("C_path", 3, None, Dyadic(1), Dyadic(2), False)
    assert failures(small_records + [fake]) == [fake]


def test_csv_and_json_output(tmp_path, small_records):
    csv_path = tmp_path / "records.csv"
    json_path = tmp_path / "records.json"
    write_csv(small_records, csv_path)
    write_json(small_records, json_path)
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "family,p1,p2,formula,oracle,pass"
    assert len(lines) == len(small_records) + 1
    first = lines[1].split(",")
    assert first[0] == "C_path" and first[5] == "true"
    Dyadic.parse(first[3])  # canonical dyadic round-trips

    import json as jsonlib

    payload = jsonlib.loads(json_path.read_text())
    assert len(payload) == len(small_records)
    assert set(payload[0]) == {"family", "p1", "p2", "formula", "oracle", "pass"}


@pytest.mark.parametrize("count", [0, 1, None])
def test_write_json_matches_json_dump(tmp_path, small_records, count):
    import json as jsonlib

    records = small_records if count is None else small_records[:count]
    path, expected = tmp_path / "records.json", tmp_path / "expected.json"
    write_json(records, path)
    with open(expected, "w") as fh:
        jsonlib.dump([rec.to_json() for rec in records], fh, indent=2)
        fh.write("\n")
    assert path.read_bytes() == expected.read_bytes()


def test_parse_window():
    assert parse_window("default") == SweepWindow()
    assert parse_window("") == SweepWindow()
    window = parse_window("basic=12,pairs=5,shadow_order=6")
    assert window.basic_max == 12
    assert window.pair_cases == 5
    assert window.shadow_max_order == 6
    for bad in ("nope=3", "basic", "basic=x", "basic=0"):
        with pytest.raises(ValueError):
            parse_window(bad)
    assert parse_window(" basic = 12 ").basic_max == 12


@pytest.mark.parametrize("item", ["basic=1_6", "basic=+3", "basic=\u0663"])
def test_parse_window_takes_only_ascii_integers(item):
    message = f"bad window value in {item!r}: expected an integer"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        parse_window(item)


@pytest.mark.parametrize("key, field", sorted(_WINDOW_KEYS.items()))
def test_parse_window_caps_each_value_at_four_times_its_default(key, field, monkeypatch):
    from closegraph.graph import Graph

    def refuse(*args, **kwargs):
        raise AssertionError("a graph was built")

    monkeypatch.setattr(Graph, "from_edges", classmethod(refuse))
    cap = 4 * getattr(SweepWindow(), field)
    assert getattr(parse_window(f"{key}={cap}"), field) == cap
    for bad in (cap + 1, 10 ** 9, 0):
        message = rf"^window value {key}={bad} must be from 1 to {cap} \(4x its default\)$"
        with pytest.raises(ValueError, match=message):
            parse_window(f"basic=2,{key}={bad}")


def test_task_list_deterministic():
    a = list(build_tasks(SMALL, seed=42))
    b = list(build_tasks(SMALL, seed=42))
    assert a == b
