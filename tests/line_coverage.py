"""Every statement of src/closegraph that tier-1 never runs is allowlisted.

Run from anywhere, with the test dependencies installed and the package
importable from this checkout (installed with ``pip install -e .``, or
with PYTHONPATH=src):

    python tests/line_coverage.py

It runs tier-1, pytest on tests/ with Hypothesis seeded by 0, in this
process, under a trace function that follows only frames whose code lies
in src/closegraph. Each module's executable lines are the line numbers in
the line tables of its compiled code, nested code objects included. A
line never traced is charged to the innermost statement that holds it.
Code run in child processes (the sweep's worker pool, ``python -m``) is
not followed.

Each never-run statement needs an entry in line_coverage_allowlist.txt,
beside this script: a line "<file>: <statement>", the statement's text up
to its first nested statement with each source line stripped and joined by
one space, then its reason on the indented lines below. Entries are keyed
by text, not line number, so an edit elsewhere in the file leaves them
valid; a statement whose text occurs twice needs two entries.

The script exits 1 if tier-1 fails, if a never-run statement has no entry,
or if an entry matches no never-run statement. It needs only the standard
library besides pytest.
"""

from __future__ import annotations

import ast
import sys
import threading
import time
from collections import Counter
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent
PACKAGE = ROOT / "src" / "closegraph"
ALLOWLIST = TESTS / "line_coverage_allowlist.txt"


def run_tier1() -> tuple[int, set[tuple[str, int]]]:
    """pytest's exit status on tier-1, and the (file, line) pairs it ran
    in the package."""
    prefix = f"{PACKAGE}/"
    ran: set[tuple[str, int]] = set()
    add = ran.add

    def local(frame, event, arg):
        add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def call(frame, event, arg):
        if frame.f_code.co_filename.startswith(prefix):
            return local(frame, event, arg)
        return None

    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(call)
    sys.settrace(call)
    try:
        status = pytest.main([
            "-q", "-p", "no:cacheprovider", "--hypothesis-seed=0",
            "--rootdir", str(ROOT), str(TESTS),
        ])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status), ran


def executable_lines(code) -> set[int]:
    """The lines of code's instructions and of every code object in it."""
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if isinstance(const, type(code)):
            lines |= executable_lines(const)
    return lines


def first_line(node) -> int:
    """The first line of a statement, its decorators included."""
    return min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])


def statement_text(node, source: list[str]) -> str:
    """node's text up to its first nested statement, on one line."""
    first = first_line(node)
    inner = [c.lineno for c in ast.iter_child_nodes(node) if isinstance(c, ast.stmt)]
    last = max(first, min(inner) - 1) if inner else node.end_lineno
    return " ".join(line.strip() for line in source[first - 1:last])


def never_run(path: Path, ran: set[tuple[str, int]]) -> list[tuple[int, str]]:
    """(line, text) of each statement in path with an executable line that
    never ran, in line order."""
    text = path.read_text()
    source = text.splitlines()
    tree = ast.parse(text, str(path))
    owner = {}
    # ast.walk yields outer nodes before inner ones, so the innermost wins
    for node in ast.walk(tree):
        if isinstance(node, (ast.stmt, ast.excepthandler)):
            for line in range(first_line(node), node.end_lineno + 1):
                owner[line] = node
    name = str(path)
    missed = {}
    for line in executable_lines(compile(text, name, "exec")):
        if (name, line) not in ran:
            node = owner[line]
            missed[node.lineno] = statement_text(node, source)
    return sorted(missed.items())


def read_allowlist() -> Counter:
    """The allowlisted (file, statement) keys, each counted once per entry.
    Raises ValueError on an entry without a reason."""
    entries: Counter = Counter()
    pending = None  # the line of an entry whose reason has not come yet
    for number, line in enumerate(ALLOWLIST.read_text().splitlines(), 1):
        if line.startswith("#") or not line.strip():
            continue
        if line[0].isspace():  # a line of the reason of the entry above
            if not entries:
                raise ValueError(f"{ALLOWLIST.name}:{number}: a reason without an entry")
            pending = None
            continue
        if pending is not None:  # the entry above has no reason
            break
        file, sep, statement = line.partition(": ")
        if not sep:
            raise ValueError(f"{ALLOWLIST.name}:{number}: expected '<file>: <statement>'")
        entries[file, statement.strip()] += 1
        pending = number
    if pending is not None:
        raise ValueError(f"{ALLOWLIST.name}:{pending}: an entry without a reason")
    return entries


def main() -> int:
    try:
        allowed = read_allowlist()
    except ValueError as exc:
        print(exc)
        return 1
    start = time.perf_counter()
    status, ran = run_tier1()
    seconds = time.perf_counter() - start
    if status != 0:
        print(f"tier-1 failed under the trace (pytest exit {status})")
        return 1
    imported = Path(sys.modules["closegraph"].__file__).resolve().parent
    if imported != PACKAGE:
        print(f"closegraph was imported from {imported}, not from {PACKAGE}")
        return 1
    unlisted = []
    found: Counter = Counter()
    for path in sorted(PACKAGE.rglob("*.py")):
        file = path.relative_to(ROOT).as_posix()
        for line, statement in never_run(path, ran):
            found[file, statement] += 1
            if found[file, statement] > allowed[file, statement]:
                unlisted.append(f"{file}:{line}: {statement}")
    stale = [f"{f}: {s}" for (f, s), n in sorted(allowed.items()) for _ in range(n - found[f, s])]
    for entry in unlisted:
        print(f"never run, not allowlisted: {entry}")
    for entry in stale:
        print(f"allowlisted, but not a never-run statement: {entry}")
    total = sum(found.values())
    print(f"statements tier-1 never runs: {total} ({seconds:.0f} s traced)")
    if unlisted or stale:
        print(f"{len(unlisted)} not allowlisted, {len(stale)} stale entries in {ALLOWLIST.name}")
        return 1
    print(f"every one is allowlisted in {ALLOWLIST.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
