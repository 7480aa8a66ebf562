"""Built-in verification suites behind the ``selftest`` CLI command.

Every suite draws its graphs deterministically, from seeded
:class:`hamb.pcg.Stream` generators, so repeated runs agree.  The invariant suite re-checks stored adjacency data rather than
trusting the constructors, so a graph injected past validation (say, a
digraph with a diagonal one) makes it fail.
"""
from __future__ import annotations

from typing import Callable, Iterator

from . import exact
from .bounds import bregman_bound, minc_bound, symmetric_product_value
from .estimator import RowOrderPolicy
from .graphs import (
    DiGraph,
    UndiGraph,
    build_undigraph,
    gen_family,
    gen_gnp,
    is_symmetric,
    row_sums,
)
from .io import parse_graph, serialize_graph
from .pcg import Stream

Emit = Callable[[str], None]


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


def _suite_graph_invariants() -> tuple[bool, str]:
    graphs = _graph_battery()
    for g in graphs:
        for u in range(g.n):
            if g.rows[u] >> u & 1:
                return False, f"diagonal entry set at vertex {u + 1}"
        if isinstance(g, UndiGraph) and not is_symmetric(g):
            return False, "undirected rows are not symmetric"
        for fmt in ("text", "object"):
            if parse_graph(serialize_graph(g, fmt), fmt) != g:
                return False, f"{fmt} round-trip mismatch"
    return True, f"{len(graphs)} graphs"


def _suite_oracle_agreement() -> tuple[bool, str]:
    # Past SMALL_N: the numpy kernels against the pure-Python counters.
    g = gen_gnp(13, 0.5, 13, kind="digraph")
    for kernel, small in ((exact._ham_dp_numpy, exact._ham_dp_small), (exact.permanent_ryser, exact._permanent_small)):
        if kernel(g) != small(g):
            return False, f"numpy kernel/pure mismatch on {g!r}"
    checked = 0
    for g in all_digraphs(4):
        if exact.ham_dp(g) != exact.ham_bruteforce(g):
            return False, f"dp/brute mismatch on {g!r}"
        checked += 1
    rng = Stream(2024)
    for _ in range(50):
        n = 5 + rng.integers(4)
        g = gen_gnp(n, 0.2 + (0.8 - 0.2) * rng.random(), rng.integers(2**32), kind="digraph")
        ham = exact.ham_dp(g)
        if ham != exact.ham_bruteforce(g):
            return False, f"dp/brute mismatch on {g!r}"
        if ham > exact.permanent_ryser(g):
            return False, f"cycle count exceeds permanent on {g!r}"
        checked += 1
    return True, f"{checked} digraphs"


def _policies_for(n: int, rng: Stream) -> list[RowOrderPolicy]:
    policies = [RowOrderPolicy.ascending()]
    policies.extend(RowOrderPolicy.follow_path(s) for s in range(1, n + 1))
    for _ in range(2):
        table = [[1 + x for x in rng.integers(n - i, size=n)] for i in range(n)]
        policies.append(RowOrderPolicy.from_table(table))
    return policies


def _suite_unbiasedness() -> tuple[bool, str]:
    rng = Stream(7)
    checked = 0
    graphs = list(all_undigraphs(4))
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
        if perm > bregman_bound(r).integer_cap:
            return False, f"permanent exceeds bregman bound (seed {seed})"
        if is_symmetric(g) and g.n >= 3 and ham > symmetric_product_value(r):
            return False, f"cycle count exceeds symmetric bound (seed {seed})"
        checked += 1
    return True, f"{checked} graphs"


def _degree_sequences() -> Iterator[list[int]]:
    """2000 seeded degree sequences, n in 3..50, degrees in 0..n-1."""
    rng = Stream(99)
    for _ in range(2000):
        n = 3 + rng.integers(48)
        yield rng.integers(n, size=n)


def _suite_dominance() -> tuple[bool, str]:
    for r in _degree_sequences():
        if symmetric_product_value(r) > minc_bound(r).exact:
            return False, f"dominance violated for {r}"
    return True, "2000 degree sequences"


def run_selftest(emit: Emit = print) -> bool:
    """Run every suite, print one line each, return overall success."""
    suites = [
        ("graph-invariants", _suite_graph_invariants),
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
