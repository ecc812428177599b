"""Mutation checks: each mutant breaks the package in one small way, and
the tests it names must catch it.

Run from anywhere, with the test dependencies installed:

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # only these

Each mutant replaces one exact text, which must occur exactly once, in
one file of a temporary copy of src/ and tests/, then runs only its
named tests there with pytest -x (Hypothesis derandomized). The script
exits 1 if a mutant survives, if its old text no longer matches (a
refactor must restate the mutant, not drop it), or if a named test
fails, or is not found, on the unchanged copy. It needs only the
standard library; pytest runs in a subprocess.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repository root
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids, one of which must fail


GRAPH = "src/closegraph/graph.py"
TRANSFORMS = "src/closegraph/transforms.py"
GENERATORS = "src/closegraph/generators.py"
VULNERABILITY = "src/closegraph/vulnerability.py"
KERNEL_TESTS = "tests/test_closeness_kernel.py"
GENERATOR_TESTS = "tests/test_generators.py"
GRAPH_TESTS = "tests/test_graph.py"
GUARD = "tests/test_trusted_construction.py"
VULN_TESTS = "tests/test_vulnerability.py"

MUTANTS = (
    # the level loop, graph._levels
    Mutant(
        "gate-bits-a-level-late", GRAPH,
        "                    new[w] |= ball[u] & bits\n",
        "                    new[w] |= old[u] & bits\n",
        (f"{KERNEL_TESTS}::test_deletion_lanes_on_a_theta_pull",),
    ),
    Mutant(
        "gates-read-the-next-ball", GRAPH,
        "                    new[w] |= ball[u] & bits\n",
        "                    new[w] |= new[u] & bits\n",
        (f"{KERNEL_TESTS}::test_deletion_lanes_on_a_theta_pull",),
    ),
    Mutant(
        "gate-growth-not-seen", GRAPH,
        "            if gates:\n",
        "            if new == ball:\n                return\n            if gates:\n",
        (f"{KERNEL_TESTS}::test_levels_yield_the_balls_of_each_distance",),
    ),
    Mutant(
        "cut-vertex-forwards-its-own-lanes", GRAPH,
        "                    new[x] &= mask\n",
        "                    new[x] &= full\n",
        (f"{KERNEL_TESTS}::test_a_cut_vertex_never_takes_its_own_lanes",),
    ),
    Mutant(
        "two-entry-tuple-ors-its-first-entry-only", GRAPH,
        "                new[v] |= at[x] | at[y]\n",
        "                new[v] |= at[x]\n",
        (f"{KERNEL_TESTS}::test_all_sources_pull",),
    ),
    Mutant(
        "loop-stops-when-a-ball-stalls", GRAPH,
        "            yield old, ball\n",
        "            yield old, ball\n"
        "            if any(map(operator.eq, ball, old)):\n"
        "                return\n",
        (f"{KERNEL_TESTS}::test_a_ball_that_skips_a_level_stays_pending",),
    ),
    Mutant(
        "live-filter-keeps-only-full-vertices", GRAPH,
        "        live = [v for v in live if ball[v] != full]\n",
        "        live = [v for v in live if ball[v] == full]\n",
        (f"{KERNEL_TESTS}::test_live_lists_rebuilt_in_every_block_of_a_disconnected_graph",),
    ),
    Mutant(
        "later-block-added-unshifted", GRAPH,
        "num[v] += c << (d - k)",
        "num[v] += c",
        (f"{KERNEL_TESTS}::test_matches_reference_on_multi_block_graphs",),
    ),
    Mutant(
        "balls-seeded-without-own-bit", GRAPH,
        "_levels(adj, seed, (1 << n) - 1)",
        "_levels(adj, [0] * n, (1 << n) - 1)",
        (f"{KERNEL_TESTS}::test_balls_match_the_bfs_distances",),
    ),
    Mutant(
        "ripple-add-without-carry-in", GRAPH,
        "                acc[p] = half ^ c\n",
        "                acc[p] = half\n",
        (f"{KERNEL_TESTS}::test_deletion_sums_match_the_kernel_on_each_cut_adjacency",),
    ),
    # the edge-list reader and DOT output
    Mutant(
        "bulk-read-falls-back-to-int-without-range-check", GRAPH,
        "    except KeyError:  # out of range, leading zeros, '-0' or not a number\n"
        "        return None\n",
        "    except KeyError:\n"
        "        try:\n"
        "            ends = list(map(int, fields))\n"
        "        except ValueError:\n"
        "            return None\n",
        (f"{GRAPH_TESTS}::test_bulk_read_agrees_with_the_line_scan",),
    ),
    Mutant(
        "bulk-read-without-duplicate-check", GRAPH,
        "    if sum(map(len, map(set, adj))) != 2 * m:  # a duplicate edge\n        return None\n",
        "",
        (f"{GRAPH_TESTS}::test_bulk_read_agrees_with_the_line_scan",),
    ),
    Mutant(
        "unescaped-dot-labels", GRAPH,
        r"""        quoted = label.replace("\\", "\\\\").replace('"', '\\"')""" "\n",
        "        quoted = label\n",
        (f"{GRAPH_TESTS}::test_dot_labels_are_quoted_strings_on_a_shadow_of_a_shadow",),
    ),
    # trusted construction in the transforms and generators
    Mutant(
        "line-vertex-keeps-itself", TRANSFORMS,
        "        del nbrs[i : i + 2]\n",
        "        del nbrs[i : i + 1]\n",
        (f"{GUARD}::test_transforms_build_what_from_edges_builds",),
    ),
    Mutant(
        "shadow-copies-adjacent", TRANSFORMS,
        "    adj = [nbrs + [n + w for w in nbrs] for nbrs in g.adj]\n",
        "    adj = [nbrs + [n + w for w in nbrs] + [n + u] for u, nbrs in enumerate(g.adj)]\n",
        (f"{GUARD}::test_transforms_build_what_from_edges_builds",),
    ),
    Mutant(
        "one-sided-bridge", TRANSFORMS,
        "    adj[n1 + q].insert(0, p)\n",
        "",
        (f"{GUARD}::test_transforms_build_what_from_edges_builds",),
    ),
    Mutant(
        "unsorted-path", GENERATORS,
        "            del adj[0][0], adj[-1][-1]\n",
        "            del adj[0][0], adj[-1][-1]\n"
        "            adj[1:-1] = [[i + 1, i - 1] for i in range(1, n - 1)]\n",
        (f"{GUARD}::test_every_family_builds_what_from_edges_builds",),
    ),
    # random connected graphs: each sampled position maps to its spare
    # pair (on ints, bisect_right(a, x - 1) is bisect_left(a, x))
    Mutant(
        "tree-pairs-before-by-bisect-left", GENERATORS,
        "            p = i + bisect_right(before, i)\n",
        "            p = i + bisect_right(before, i - 1)\n",
        (f"{GENERATOR_TESTS}::test_random_connected_draws_what_listing_drew",),
    ),
    Mutant(
        "row-by-bisect-left", GENERATORS,
        "            u = bisect_right(rows, p) - 1\n",
        "            u = bisect_right(rows, p - 1) - 1\n",
        (f"{GENERATOR_TESTS}::test_random_connected_draws_what_listing_drew",),
    ),
    Mutant(
        "tree-pair-position-off-by-one", GENERATORS,
        "[rows[u] + v - u - 1 for u, v in edges]",
        "[rows[u] + v - u for u, v in edges]",
        (f"{GENERATOR_TESTS}::test_random_connected_draws_what_listing_drew",),
    ),
    Mutant(
        "bridge-join-mutates-its-input", TRANSFORMS,
        "    adj[p] = [*g1.adj[p], n1 + q]\n",
        "    adj[p].append(n1 + q)\n",
        (f"{GUARD}::test_transforms_build_what_from_edges_builds",),
    ),
    # line graphs read through their clique cover, and totals by level counts
    Mutant(
        "pull-skips-hub-reads", GRAPH,
        "ball + [reduce(operator.or_, map(ball.__getitem__, c)) for c in hubs]",
        "ball + [0] * len(hubs)",
        (f"{KERNEL_TESTS}::test_line_graphs_read_through_their_cover_match_plain_adjacency",),
    ),
    Mutant(
        "hub-keeps-one-member", GRAPH,
        "[reduce(operator.or_, map(ball.__getitem__, c)) for c in hubs]",
        "[ball[c[0]] for c in hubs]",
        (f"{KERNEL_TESTS}::test_line_graphs_read_through_their_cover_match_plain_adjacency",),
    ),
    Mutant(
        "hub-read-from-the-next-level", GRAPH,
        "                new[v] |= at[x] | at[y]\n",
        "                new[v] |= at[x] | at[y]\n"
        "                at[y] |= new[v] if y >= n else 0\n",
        (f"{KERNEL_TESTS}::test_line_graphs_read_through_their_cover_match_plain_adjacency",),
    ),
    Mutant(
        "dropped-hubs-not-renumbered", GRAPH,
        "[rank.get(x, x) for x in scan[v]]",
        "scan[v]",
        (f"{KERNEL_TESTS}::test_cover_and_totals_across_block_boundaries",),
    ),
    Mutant(
        "hubs-miss-one-endpoint-star", TRANSFORMS,
        "                scan.append([hu, hv])\n",
        "                scan.append([hu])\n",
        (f"{GUARD}::test_line_graph_cover_reproduces_its_adjacency",
         f"{KERNEL_TESTS}::test_line_graphs_read_through_their_cover_match_plain_adjacency"),
    ),
    Mutant(
        "cover-scan-drops-a-neighbour", TRANSFORMS,
        "if j != k] + [hu or hv])",
        "if j > k] + [hu or hv])",
        (f"{GUARD}::test_line_graph_cover_reproduces_its_adjacency",
         f"{KERNEL_TESTS}::test_line_graphs_read_through_their_cover_match_plain_adjacency"),
    ),
    Mutant(
        "totals-keep-only-the-last-block", GRAPH,
        "        total += Dyadic(",
        "        total = Dyadic(",
        (f"{KERNEL_TESTS}::test_totals_match_the_per_vertex_kernel",),
    ),
    Mutant(
        "totals-drop-the-last-level", GRAPH,
        "enumerate(levels, 1):\n            size",
        "enumerate(list(levels)[:-1], 1):\n            size",
        (f"{KERNEL_TESTS}::test_totals_match_the_per_vertex_kernel",),
    ),
    Mutant(
        "totals-count-a-full-last-block", GRAPH,
        "        seen = min(width, n - lo)\n",
        "        seen = width\n",
        (f"{KERNEL_TESTS}::test_totals_match_the_per_vertex_kernel",),
    ),
    # the vulnerability state: only-parent sets by counting, gains from the balls
    Mutant(
        "parents-counted-once", VULNERABILITY,
        "                twice |= once & mine\n",
        "                twice |= mine\n",
        (f"{VULN_TESTS}::test_matches_exhaustive_search",
         f"{VULN_TESTS}::test_bitset_rests_match_the_distance_rows"),
    ),
    Mutant(
        "only-parent-ignores-the-others", VULNERABILITY,
        "                only[y, v] = mine & ~twice\n",
        "                only[y, v] = mine\n",
        (f"{VULN_TESTS}::test_bitset_rests_match_the_distance_rows",),
    ),
    # the deletion losses: a rest spanning two entry groups reruns every
    # hit source, counted once; the terms of a deleted vertex come off
    Mutant(
        "spanning-rest-rerun-alone", VULNERABILITY,
        "        return hit, True\n",
        "        return rest, False\n",
        (f"{VULN_TESTS}::test_every_deletion_total_matches_the_rescanned_total",
         f"{VULN_TESTS}::test_matches_exhaustive_search_with_many_entry_groups"),
    ),
    Mutant(
        "whole-hit-set-counted-twice", VULNERABILITY,
        "(1 if whole else 2) * loss",
        "2 * loss",
        (f"{VULN_TESTS}::test_every_deletion_total_matches_the_rescanned_total",
         f"{VULN_TESTS}::test_matches_exhaustive_search"),
    ),
    Mutant(
        "vertex-terms-left-in-the-rest", VULNERABILITY,
        "                loss -= self._within(cut, rest)\n",
        "",
        (f"{VULN_TESTS}::test_every_deletion_total_matches_the_rescanned_total",
         f"{VULN_TESTS}::test_matches_exhaustive_search"),
    ),
    Mutant(
        "gain-counts-the-old-ball", VULNERABILITY,
        "& ~ball_s[k]",
        "& ball_s[k]",
        (f"{VULN_TESTS}::test_additional_path3", f"{VULN_TESTS}::test_matches_exhaustive_search"),
    ),
    Mutant(
        "settled-at-the-near-component", VULNERABILITY,
        "ball_far[top].bit_count()",
        "balls[near][top].bit_count()",
        (f"{VULN_TESTS}::test_additions_joining_two_components",
         f"{VULN_TESTS}::test_matches_exhaustive_search"),
    ),
)


def pytest_status(copy: Path, tests) -> int:
    """pytest's exit status on tests in copy: 0 all passed, 1 one failed."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [
        sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
        "--hypothesis-seed=0", *tests,
    ]
    return subprocess.run(command, cwd=copy, env=env, capture_output=True).returncode


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    names = parser.parse_args(argv).names
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        parser.error(f"unknown mutants: {', '.join(sorted(unknown))}")
    chosen = [m for m in MUTANTS if not names or m.name in names]
    faults = []
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", "*.pyc")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part, ignore=ignore)
        shutil.copy2(ROOT / "pyproject.toml", copy)
        tests = sorted({t for m in chosen for t in m.tests})
        if pytest_status(copy, tests) != 0:
            print("the named tests do not all pass on the unchanged code")
            return 1
        for m in chosen:
            path = copy / m.file
            text = path.read_text()
            count = text.count(m.old)
            if count != 1:
                verdict = f"STALE (old text found {count} times in {m.file})"
            else:
                path.write_text(text.replace(m.old, m.new))
                status = pytest_status(copy, m.tests)
                path.write_text(text)
                verdict = {0: "SURVIVED", 1: "killed"}.get(status, f"ERROR (pytest exit {status})")
            print(f"{verdict:<10} {m.name}", flush=True)
            if verdict != "killed":
                faults.append(m.name)
    if faults:
        print(f"{len(faults)} of {len(chosen)} mutants not killed: {', '.join(faults)}")
        return 1
    print(f"all {len(chosen)} mutants killed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
