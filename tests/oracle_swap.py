"""Every pin is also what the slow references give.

Run from anywhere, with the package importable (installed, or with
PYTHONPATH=src):

    python tests/oracle_swap.py          # the default sweep and every pin
    python tests/oracle_swap.py --deep   # the deep sweep alone

The record hashes and the files under tests/data were written by the
package's bitset kernels. This script rebuilds each of them with the
per-source BFS of tests/closeness_reference.py in place of those kernels:

* the default sweep, verify.run_all at jobs=1 with verify.graph_closeness
  and verify._total_closeness swapped for the reference, and
  verify._line_closeness for the reference on the built line graph, must
  write records.csv and records.json with the hashes in bench/oracle.py
  (BASELINE_SHA256);
* with --deep, the same swap on the deep sweep, every window value at
  2x its default, at jobs=2, must give tests/data/records-deep.sha256
  instead, and nothing else is checked;
* tests/vuln_reference.py, the exhaustive single-edit search, which
  closes every edited graph with the reference, must give every
  tests/data/*.vuln-*.json;
* ``closegraph closeness --per-vertex`` with the reference must give every
  tests/data/*.closeness.{json,csv,txt}.

It prints one line per pin and exits 1 if any pin differs. It reads the
pins and writes none of them; it needs only the standard library.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

TESTS = Path(__file__).resolve().parent
DATA = TESTS / "data"
sys.path[:0] = [str(TESTS), str(TESTS.parent / "bench")]

import closeness_reference  # noqa: E402
import oracle  # noqa: E402
import vuln_reference  # noqa: E402
from closegraph import cli, verify  # noqa: E402
from closegraph.graph import parse_edgelist  # noqa: E402


def reference_total(g):
    return closeness_reference.graph_closeness(g).total


def swept(pins, window, jobs):
    """(pin, whether it holds) for the record hashes pins, {file name:
    digest}, of the sweep over window with the references swapped in; the
    forked workers of jobs > 1 inherit the swap."""
    verify.graph_closeness = closeness_reference.graph_closeness
    verify._total_closeness = reference_total
    verify._line_closeness = closeness_reference.line_closeness
    records = verify.run_all(window, jobs=jobs)
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        verify.write_csv(records, out / "records.csv")
        verify.write_json(records, out / "records.json")
        for name, digest in sorted(pins.items()):
            yield f"sweep {name}", hashlib.sha256((out / name).read_bytes()).hexdigest() == digest


def sweep():
    """(pin, whether it holds) for the default sweep's record hashes."""
    yield from swept(oracle.BASELINE_SHA256, verify.SweepWindow(), 1)


def deep_sweep():
    """(pin, whether it holds) for the deep sweep's record hashes, the
    window of CI's deep sweep step."""
    default = verify.SweepWindow()
    window = verify.SweepWindow(
        **{f.name: 2 * getattr(default, f.name) for f in dataclasses.fields(default)}
    )
    rows = (DATA / "records-deep.sha256").read_text().split("\n")
    pins = {name: digest for digest, name in map(str.split, filter(None, rows))}
    yield from swept(pins, window, 2)


def vulnerability():
    """(pin, whether it holds) for every vulnerability json pin."""
    measures = {
        "link": vuln_reference.link_residual,
        "vertex": vuln_reference.vertex_residual,
        "additional": vuln_reference.additional_closeness,
    }
    for pin in sorted(DATA.glob("*.vuln-*.json")):
        stem, measure = pin.name[: -len(".json")].split(".vuln-")
        g = parse_edgelist((DATA / f"{stem}.edges").read_text())
        got = json.dumps(measures[measure](g).to_json(), indent=2) + "\n"
        yield pin.name, got == pin.read_text()


def closeness():
    """(pin, whether it holds) for every closeness output pin."""
    cli.graph_closeness = closeness_reference.graph_closeness
    formats = {"json": "json", "csv": "csv", "txt": "text"}
    for pin in sorted(DATA.glob("*.closeness.*")):
        stem, suffix = pin.name.split(".closeness.")
        argv = ["closeness", "-i", str(DATA / f"{stem}.edges"), "--per-vertex",
                "--format", formats[suffix]]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = cli.main(argv)
        yield pin.name, status == 0 and out.getvalue() == pin.read_text()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--deep", action="store_true",
                        help="check the deep sweep's record hashes alone")
    deep = parser.parse_args(argv).deep
    differ = []
    for check in (deep_sweep,) if deep else (sweep, vulnerability, closeness):
        for pin, holds in check():
            print(f"{'ok' if holds else 'DIFFERS':<8} {pin}", flush=True)
            if not holds:
                differ.append(pin)
    if differ:
        print(f"{len(differ)} pins differ from the references: {', '.join(differ)}")
        return 1
    print("every pin is what the references give")
    return 0


if __name__ == "__main__":
    sys.exit(main())
