"""Shared helpers: path setup, the exhaustive graph iterators of
``hamb.selftest``, CLI runner, hypothesis strategies."""
from __future__ import annotations

import os
import pathlib
import subprocess
import sys

from hypothesis import strategies as st

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

from hamb.graphs import DiGraph, UndiGraph, build_undigraph  # noqa: E402
from hamb.selftest import all_digraphs, all_undigraphs  # noqa: E402,F401


def run_cli(
    *args: str, env_extra: dict[str, str] | None = None, cwd=None, entry: tuple[str, ...] = ("-m", "hamb")
) -> subprocess.CompletedProcess:
    """Run ``python -m hamb *args`` in a child process; ``entry`` replaces ``-m hamb``."""
    env = os.environ.copy()
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    env.update(env_extra or {})
    return subprocess.run(
        [sys.executable, *entry, *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
    )


@st.composite
def digraphs(draw, min_n: int = 1, max_n: int = 6) -> DiGraph:
    n = draw(st.integers(min_n, max_n))
    mask = draw(st.integers(0, (1 << (n * n)) - 1))
    rows = tuple(
        (mask >> (n * u)) & (((1 << n) - 1) & ~(1 << u))
        for u in range(n)
    )
    return DiGraph(n, rows)


@st.composite
def undigraphs(draw, min_n: int = 1, max_n: int = 7) -> UndiGraph:
    n = draw(st.integers(min_n, max_n))
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    mask = draw(st.integers(0, (1 << len(pairs)) - 1))
    return build_undigraph(n, [p for i, p in enumerate(pairs) if mask >> i & 1])
