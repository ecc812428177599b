"""Every pin is also what the slow references give.

Run from anywhere, with the package importable (installed, or with
PYTHONPATH=src):

    python tests/oracle_swap.py

The record hashes and the files under tests/data were written by the
package's bitset kernels. This script rebuilds each of them with the
per-source BFS of tests/closeness_reference.py in place of those kernels:

* the default sweep, verify.run_all at jobs=1 with verify.graph_closeness
  and verify._total_closeness swapped for the reference, must write
  records.csv and records.json with the hashes in bench/oracle.py
  (BASELINE_SHA256);
* tests/vuln_reference.py, the exhaustive single-edit search, which
  closes every edited graph with the reference, must give every
  tests/data/*.vuln-*.json;
* ``closegraph closeness --per-vertex`` with the reference must give every
  tests/data/*.closeness.{json,csv,txt}.

It prints one line per pin and exits 1 if any pin differs. It reads the
pins and writes none of them; it needs only the standard library.
"""

from __future__ import annotations

import contextlib
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


def sweep():
    """(pin, whether it holds) for the default sweep's record hashes."""
    verify.graph_closeness = closeness_reference.graph_closeness
    verify._total_closeness = reference_total
    records = verify.run_all(jobs=1)
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        verify.write_csv(records, out / "records.csv")
        verify.write_json(records, out / "records.json")
        for name, digest in sorted(oracle.BASELINE_SHA256.items()):
            yield f"sweep {name}", hashlib.sha256((out / name).read_bytes()).hexdigest() == digest


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


def main() -> int:
    differ = []
    for check in (sweep, vulnerability, closeness):
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
