"""Built-in verification suites behind the ``selftest`` CLI command.

Every suite draws its graphs deterministically, so repeated runs agree.  The
invariant suite re-checks stored adjacency data rather than trusting the
constructors, which is what lets the negative-control hook (a graph with a
corrupted diagonal, injected past validation) actually fail.
"""
from __future__ import annotations

import math
from typing import Callable

import numpy as np

from . import exact
from .bounds import bregman_bound, minc_bound, symmetric_product_value
from .estimator import RowOrderPolicy
from .graphs import (
    DiGraph,
    UndiGraph,
    build_undigraph,
    degrees,
    gen_family,
    gen_gnp,
    is_symmetric,
    row_sums,
    to_symmetric_digraph,
)
from .io import parse_graph, serialize_graph

Emit = Callable[[str], None]


def _corrupted_digraph() -> DiGraph:
    """A DiGraph with a diagonal one, injected past constructor validation."""
    bad = object.__new__(DiGraph)
    object.__setattr__(bad, "n", 3)
    object.__setattr__(bad, "rows", (0b011, 0b100, 0b010))
    return bad


def all_undigraphs(n: int):
    """Every simple undirected graph on n labeled vertices (2^C(n,2))."""
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    for mask in range(1 << len(pairs)):
        yield build_undigraph(n, [p for i, p in enumerate(pairs) if mask >> i & 1])


def all_digraphs(n: int):
    """Every simple digraph on n labeled vertices (2^(n(n-1)) of them)."""
    cells = [(u, v) for u in range(n) for v in range(n) if u != v]
    for mask in range(1 << len(cells)):
        rows = [0] * n
        for i, (u, v) in enumerate(cells):
            if mask >> i & 1:
                rows[u] |= 1 << v
        yield DiGraph(n, tuple(rows))


def _graph_battery() -> list[DiGraph | UndiGraph]:
    graphs: list[DiGraph | UndiGraph] = []
    for n in (3, 4, 5, 6):
        for family in ("complete", "cycle", "path"):
            for kind in ("undirected", "symmetric-digraph", "digraph"):
                graphs.append(gen_family(family, n, kind))
    for seed in range(12):
        n = 4 + seed % 6
        graphs.append(gen_gnp(n, 0.4, seed, kind=("undirected", "symmetric-digraph", "digraph")[seed % 3]))
    return graphs


def _suite_graph_invariants(fault: DiGraph | None) -> tuple[bool, str]:
    graphs = _graph_battery()
    if fault is not None:
        graphs.append(fault)
    for g in graphs:
        if isinstance(g, DiGraph):
            for u in range(g.n):
                if g.rows[u] >> u & 1:
                    return False, f"diagonal entry set at vertex {u + 1}"
        else:
            d = to_symmetric_digraph(g)
            if not is_symmetric(d):
                return False, "doubled image is not symmetric"
            if row_sums(d) != degrees(g):
                return False, "doubled image row sums do not match degrees"
        for fmt in ("text", "object"):
            if parse_graph(serialize_graph(g, fmt), fmt) != g:
                return False, f"{fmt} round-trip mismatch"
    return True, f"{len(graphs)} graphs"


def _suite_oracle_agreement() -> tuple[bool, str]:
    # Past SMALL_N: the numpy kernels against the pure-Python counters.
    g = gen_gnp(13, 0.5, 13, kind="digraph")
    for residue, small in ((exact._ham_dp_residue, exact._ham_dp_small),
                           (exact._permanent_residue, exact._permanent_small)):
        if exact._from_residues(g, residue) != small(g):
            return False, f"numpy kernel/pure mismatch on {g!r}"
    checked = 0
    for g in all_digraphs(4):
        if exact.ham_dp(g) != exact.ham_bruteforce(g):
            return False, f"dp/brute mismatch on {g!r}"
        checked += 1
    rng = np.random.default_rng(2024)
    for _ in range(50):
        n = int(rng.integers(5, 9))
        g = gen_gnp(n, float(rng.uniform(0.2, 0.8)), int(rng.integers(0, 2**32)), kind="digraph")
        if exact.ham_dp(g) != exact.ham_bruteforce(g):
            return False, f"dp/brute mismatch on {g!r}"
        if exact.ham_dp(g) > exact.permanent_ryser(g):
            return False, f"cycle count exceeds permanent on {g!r}"
        checked += 1
    return True, f"{checked} digraphs"


def _policies_for(n: int, rng: np.random.Generator) -> list[RowOrderPolicy]:
    policies = [RowOrderPolicy.ascending()]
    policies.extend(RowOrderPolicy.follow_path(s) for s in range(1, n + 1))
    for _ in range(2):
        table = [
            [int(rng.integers(1, n - i + 1)) for _ in range(n)]
            for i in range(n)
        ]
        policies.append(RowOrderPolicy.from_table(table))
    return policies


def _suite_unbiasedness() -> tuple[bool, str]:
    rng = np.random.default_rng(7)
    checked = 0
    graphs = [to_symmetric_digraph(g) for g in all_undigraphs(4)]
    for seed in range(10):
        n = 5 + seed % 2
        graphs.append(gen_gnp(n, 0.55, 1000 + seed, kind="symmetric-digraph"))
    for g in graphs:
        want = exact.ham_dp(g)
        for policy in _policies_for(g.n, rng):
            got = exact.estimator_expectation(g, policy)
            if got != want:
                return False, f"expectation {got} != count {want} under {policy.describe()}"
        checked += 1
    return True, f"{checked} graphs, ascending+follow-path+tables"


def _suite_bound_validity() -> tuple[bool, str]:
    checked = 0
    for seed in range(200):
        n = 3 + seed % 8
        kind = ("digraph", "symmetric-digraph")[seed % 2]
        g = gen_gnp(n, 0.3 + 0.06 * (seed % 9), 5000 + seed, kind=kind)
        ham = exact.ham_dp(g)
        perm = exact.permanent_ryser(g)
        r = row_sums(g)
        if ham > perm:
            return False, f"cycle count exceeds permanent (seed {seed})"
        if perm > minc_bound(r).exact:
            return False, f"permanent exceeds minc bound (seed {seed})"
        if perm > 0 and math.log(perm) > bregman_bound(r).log_upper + 1e-9:
            return False, f"permanent exceeds bregman bound (seed {seed})"
        if is_symmetric(g) and g.n >= 3 and ham > symmetric_product_value(r):
            return False, f"cycle count exceeds symmetric bound (seed {seed})"
        checked += 1
    return True, f"{checked} graphs"


def _suite_dominance() -> tuple[bool, str]:
    rng = np.random.default_rng(99)
    for _ in range(2000):
        n = int(rng.integers(3, 51))
        r = [int(rng.integers(0, n)) for _ in range(n)]
        if symmetric_product_value(r) > minc_bound(r).exact:
            return False, f"dominance violated for {r}"
    return True, "2000 degree sequences"


def run_selftest(corrupt_diagonal: bool = False, emit: Emit = print) -> bool:
    """Run every suite, print one line each, return overall success."""
    fault = _corrupted_digraph() if corrupt_diagonal else None
    suites = [
        ("graph-invariants", lambda: _suite_graph_invariants(fault)),
        ("oracle-agreement", _suite_oracle_agreement),
        ("unbiasedness", _suite_unbiasedness),
        ("bound-validity", _suite_bound_validity),
        ("dominance", _suite_dominance),
    ]
    all_ok = True
    for name, suite in suites:
        ok, detail = suite()
        all_ok &= ok
        emit(f"{name}: {'PASS' if ok else 'FAIL'} ({detail})")
    emit(f"selftest: {'PASS' if all_ok else 'FAIL'}")
    return all_ok
