"""Golden corpus: the stdout bytes of fixed CLI runs, compared byte for byte.

Each case runs ``hamb`` inside ``tests/golden/`` (the reports name their input
path, so the path must stay relative) and compares stdout with the file of the
case's name.  After a deliberate output change, rewrite the expected files with
``python tests/test_golden.py`` and say so in CHANGES.md.
"""
from __future__ import annotations

import sys
from pathlib import Path

import pytest

from conftest import run_cli

GOLDEN = Path(__file__).resolve().parent / "golden"

# Trial counts span several kernel blocks; the seeds cover one-word, two-word
# and five-word SeedSequence entropy.
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
}


def _stdout(name: str) -> str:
    res = run_cli(*CASES[name], cwd=GOLDEN)
    assert res.returncode == 0, res.stderr
    return res.stdout


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_golden(name):
    assert _stdout(name).encode() == (GOLDEN / name).read_bytes()


if __name__ == "__main__":
    for case in sorted(CASES):
        (GOLDEN / case).write_bytes(_stdout(case).encode())
        print(f"wrote {GOLDEN / case}", file=sys.stderr)
