"""Golden corpus: the stdout bytes of fixed CLI runs, compared byte for byte.

Each case runs ``hamb`` in a temporary copy of ``tests/golden/`` (the reports
name their input and output paths, so the paths must stay relative, and
``gen --out`` must not write into the corpus) and compares stdout with the
file of the case's name.  After a deliberate output change, rewrite the
expected files with ``python tests/test_golden.py`` and say so in CHANGES.md.
"""
from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path

import pytest

from conftest import run_cli

GOLDEN = Path(__file__).resolve().parent / "golden"

# Estimate trial counts span several kernel blocks; the seeds cover one-word,
# two-word and five-word SeedSequence entropy.  k11.txt is undirected K11,
# whose bregman fields pin the summation order of the undirected bound;
# n17.txt is past the largest n that ``bounds`` counts exactly; the isolated-*
# inputs have a zero-degree vertex, so their bregman cap is 0.
CASES = {
    "estimate-ascending-directed.txt": (
        "estimate", "--input", "directed.txt", "--trials", "700", "--seed", "5",
    ),
    "estimate-ascending-undirected.json": (
        "estimate", "--input", "undirected.txt", "--trials", "600", "--seed", "0", "--json",
    ),
    "estimate-follow-path-directed.json": (
        "estimate", "--input", "directed.txt", "--trials", "900", "--seed", "1099511627783",
        "--policy", "follow-path:2", "--json",
    ),
    "estimate-follow-path-undirected.txt": (
        "estimate", "--input", "undirected.txt", "--trials", "800", "--seed", "3",
        "--policy", "follow-path:2",
    ),
    "estimate-table-directed.txt": (
        "estimate", "--input", "directed.txt", "--trials", "600", "--seed", str(2**130 + 3),
        "--policy", "table:table11.txt",
    ),
    "estimate-table-undirected.json": (
        "estimate", "--input", "undirected.txt", "--trials", "700", "--seed", "12",
        "--policy", "table:table11.txt", "--json",
    ),
    "estimate-ascending-undirected-2600.txt": (
        "estimate", "--input", "undirected.txt", "--trials", "2600", "--seed", "41",
    ),
    "estimate-ascending-directed-5000.json": (
        "estimate", "--input", "directed.txt", "--trials", "5000", "--seed", str(2**40 + 7), "--json",
    ),
    "estimate-follow-path-directed-2600.json": (
        "estimate", "--input", "directed.txt", "--trials", "2600", "--seed", "8",
        "--policy", "follow-path:7", "--json",
    ),
    "estimate-follow-path-undirected-5000.txt": (
        "estimate", "--input", "undirected.txt", "--trials", "5000", "--seed", "2026",
        "--policy", "follow-path:1",
    ),
    "estimate-table-directed-5000.txt": (
        "estimate", "--input", "directed.txt", "--trials", "5000", "--seed", "19",
        "--policy", "table:table11.txt",
    ),
    "estimate-table-undirected-2600.json": (
        "estimate", "--input", "undirected.txt", "--trials", "2600", "--seed", str(12 * 10**21),
        "--policy", "table:table11.txt", "--json",
    ),
    "exact-dp-directed.txt": ("exact", "--input", "directed.txt", "--method", "dp"),
    "exact-dp-undirected.json": ("exact", "--input", "undirected.txt", "--method", "dp", "--json"),
    "exact-brute-directed.json": ("exact", "--input", "small-directed.txt", "--method", "brute", "--json"),
    "exact-brute-undirected.txt": ("exact", "--input", "small-undirected.txt", "--method", "brute"),
    "exact-permanent-directed.txt": ("exact", "--input", "directed.txt", "--method", "permanent"),
    "exact-permanent-undirected.txt": ("exact", "--input", "undirected.txt", "--method", "permanent"),
    "bounds-directed.txt": ("bounds", "--input", "directed.txt"),
    "bounds-directed.json": ("bounds", "--input", "directed.txt", "--json"),
    "bounds-undirected.txt": ("bounds", "--input", "undirected.txt"),
    "bounds-undirected.json": ("bounds", "--input", "undirected.txt", "--json"),
    "bounds-k11.txt": ("bounds", "--input", "k11.txt"),
    "bounds-n17.txt": ("bounds", "--input", "n17.txt"),
    "bounds-isolated-undirected.txt": ("bounds", "--input", "isolated-undirected.txt"),
    "bounds-isolated-directed.json": ("bounds", "--input", "isolated-directed.json", "--json"),
    "compare-complete.csv": ("compare", "--family", "complete", "--n", "3..10"),
    "compare-complete.json": ("compare", "--family", "complete", "--n", "3..10", "--json"),
    "compare-cycle.csv": ("compare", "--family", "cycle", "--n", "3..20"),
    "compare-cycle.json": ("compare", "--family", "cycle", "--n", "3..20", "--json"),
    "compare-gnp.csv": ("compare", "--family", "gnp", "--n", "3..12", "--p", "0.5", "--seed", "7"),
    "compare-gnp.json": ("compare", "--family", "gnp", "--n", "3..12", "--p", "0.5", "--seed", "7", "--json"),
    "gen-gnp-text.txt": (
        "gen", "--model", "gnp", "--n", "9", "--p", "0.4", "--seed", "11", "--out", "g.txt",
    ),
    "gen-complete-object.json": (
        "gen", "--model", "complete", "--n", "5", "--kind", "digraph", "--format", "object",
        "--out", "g.json", "--json",
    ),
    "selftest.txt": ("selftest",),
}


def _stdout(name: str) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copytree(GOLDEN, tmp, dirs_exist_ok=True)
        res = run_cli(*CASES[name], cwd=tmp)
    assert res.returncode == 0, res.stderr
    return res.stdout


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_golden(name):
    assert _stdout(name).encode() == (GOLDEN / name).read_bytes()


if __name__ == "__main__":
    for case in sorted(CASES):
        (GOLDEN / case).write_bytes(_stdout(case).encode())
        print(f"wrote {GOLDEN / case}", file=sys.stderr)
