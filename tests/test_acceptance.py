"""Acceptance suite: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Each test prints its PASS line only after all of its assertions
held, so the printed lines mirror the pytest verdicts.
"""
from __future__ import annotations

import math
import time
from fractions import Fraction

import numpy as np

from hamb import (
    RowOrderPolicy,
    bregman_bound,
    contract,
    estimate,
    gen_family,
    gen_gnp,
    minc_bound,
    symmetric_bound,
    symmetric_product_value,
    to_symmetric_digraph,
    undirected_bounds,
)
from hamb.io import parse_graph, serialize_graph
from hamb.exact import estimator_expectation, ham_bruteforce, ham_dp, ham_undirected, permanent_ryser
from hamb.graphs import is_symmetric, row_sums

from conftest import all_digraphs, all_undigraphs, run_cli


def _report(number: int, label: str, detail: str) -> None:
    print(f"ACCEPTANCE {number} ({label}): PASS [{detail}]")


def test_c01_oracle_agreement_exhaustive():
    started = time.perf_counter()
    checked = 0
    for g in all_digraphs(4):
        assert ham_dp(g) == ham_bruteforce(g)
        checked += 1
    assert checked == 4096
    rng = np.random.default_rng(101)
    for _ in range(200):
        n = int(rng.integers(5, 10))
        g = gen_gnp(n, float(rng.uniform(0.2, 0.8)), int(rng.integers(0, 2**32)), "digraph")
        assert ham_dp(g) == ham_bruteforce(g)
        checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    _report(1, "oracle agreement, exhaustive n=4 plus 200 random n<=9", f"{checked} digraphs, {elapsed:.1f}s")


def _policy_battery(n: int, rng: np.random.Generator) -> list[RowOrderPolicy]:
    policies = [RowOrderPolicy.ascending()]
    policies.extend(RowOrderPolicy.follow_path(s) for s in range(1, n + 1))
    for _ in range(3):
        policies.append(
            RowOrderPolicy.from_table(
                [[int(rng.integers(1, n - i + 1)) for _ in range(n)] for i in range(n)]
            )
        )
    return policies


def test_c02_unbiasedness_exact():
    started = time.perf_counter()
    rng = np.random.default_rng(202)
    graphs = [to_symmetric_digraph(g) for g in all_undigraphs(4)]
    assert len(graphs) == 64
    while len(graphs) < 64 + 50:
        n = 5 + len(graphs) % 2
        graphs.append(gen_gnp(n, float(rng.uniform(0.3, 0.8)), int(rng.integers(0, 2**32)), "symmetric-digraph"))
    pairs = 0
    for g in graphs:
        want = Fraction(ham_dp(g))
        for policy in _policy_battery(g.n, rng):
            assert estimator_expectation(g, policy) == want
            pairs += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0
    _report(2, "unbiasedness, exact rational expectation", f"{pairs} graph/policy pairs, {elapsed:.1f}s")


def test_c03_unbiasedness_statistical():
    started = time.perf_counter()
    k7 = gen_family("complete", 7, "symmetric-digraph")
    truth = ham_dp(k7)
    assert truth == 720
    report = estimate(k7, RowOrderPolicy.ascending(), 100_000, 2718)
    assert abs(float(report.mean) - truth) <= 5 * report.standard_error
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    _report(3, "unbiasedness, statistical on complete 7-vertex graph", f"mean {report.mean}, {elapsed:.1f}s")


def test_c04_bound_validity():
    rng = np.random.default_rng(404)
    kinds = ("digraph", "symmetric-digraph", "undirected")
    violations = 0
    for t in range(500):
        n = int(rng.integers(3, 13))
        g = gen_gnp(n, float(rng.uniform(0.15, 0.9)), int(rng.integers(0, 2**32)), kinds[t % 3])
        d = to_symmetric_digraph(g) if kinds[t % 3] == "undirected" else g
        ham = ham_dp(d)
        perm = permanent_ryser(d)
        r = row_sums(d)
        if ham > perm:
            violations += 1
        if Fraction(perm) > minc_bound(r).exact:
            violations += 1
        if perm > 0 and math.log(perm) > bregman_bound(r).log_upper + math.log1p(1e-9):
            violations += 1
        if is_symmetric(d) and d.n >= 3 and Fraction(ham) > symmetric_product_value(r):
            violations += 1
    assert violations == 0
    _report(4, "bound validity on 500 mixed random graphs", "0 violations")


def test_c05_dominance():
    rng = np.random.default_rng(505)
    for _ in range(10_000):
        n = int(rng.integers(3, 51))
        r = [int(rng.integers(0, n)) for _ in range(n)]
        assert symmetric_product_value(r) <= minc_bound(r).exact
    _report(5, "dominance over the minc bound", "10000 degree sequences, exact")


def test_c06_low_degree_large_n_instance():
    # degree-5 rows on 100 vertices: the product bound beats bregman in log space
    new_log = 100 * math.log(5) - 99 * math.log(2)
    breg_log = 100 * math.log(math.factorial(5)) / 5
    assert abs(new_log - 92.32) < 0.01
    assert abs(breg_log - 95.75) < 0.01
    assert new_log < breg_log
    r = (5,) * 100
    sym = symmetric_product_value(r)
    assert math.log(sym.numerator) - math.log(sym.denominator) < bregman_bound(r).log_upper
    _report(6, "degree<=5, n=100 comparison instance", f"{new_log:.2f} < {breg_log:.2f}")


def test_c07_undirected_transformation():
    checked = 0
    for n in (3, 4, 5):
        for g in all_undigraphs(n):
            assert 2 * ham_undirected(g) == ham_dp(to_symmetric_digraph(g))
            checked += 1
    rng = np.random.default_rng(707)
    for _ in range(100):
        n = int(rng.integers(3, 10))
        g = gen_gnp(n, float(rng.uniform(0.2, 0.9)), int(rng.integers(0, 2**32)), "undirected")
        assert 2 * ham_undirected(g) == ham_dp(to_symmetric_digraph(g))
        checked += 1
    _report(7, "undirected count = half the doubled directed count", f"{checked} graphs, exact")


def test_c08_tightness_family():
    for n in range(3, 13):
        undirected = gen_family("cycle", n, "undirected")
        doubled = to_symmetric_digraph(undirected)
        assert symmetric_bound(doubled).exact == 2
        assert ham_dp(doubled) == 2
        assert undirected_bounds(undirected).symmetric.exact == 1
        assert ham_undirected(undirected) == 1
    _report(8, "cycle-graph tightness family", "n=3..12, bounds equal the counts")


def test_c09_contraction_expansion():
    rng = np.random.default_rng(909)
    for _ in range(100):
        n = int(rng.integers(2, 8))
        g = gen_gnp(n, float(rng.uniform(0.2, 0.9)), int(rng.integers(0, 2**32)), "digraph")
        want = ham_dp(g)
        for k1 in range(1, n + 1):
            got = sum(
                ham_dp(contract(g, k1, j))
                for j in range(1, n + 1)
                if j != k1 and g.has_arc(k1, j)
            )
            assert got == want
    _report(9, "contraction expansion identity at every pivot", "100 digraphs, exact")


def test_c10_cli_determinism_and_round_trip(tmp_path):
    out = tmp_path / "g.txt"
    res = run_cli("gen", "--model", "gnp", "--n", "12", "--p", "0.4", "--seed", "31",
                  "--kind", "symmetric-digraph", "--out", str(out))
    assert res.returncode == 0
    parsed = parse_graph(out.read_text())
    assert parsed == gen_gnp(12, 0.4, 31, "symmetric-digraph")
    assert serialize_graph(parsed) == out.read_text()

    args = ("estimate", "--input", str(out), "--trials", "300", "--seed", "8",
            "--policy", "follow-path:3")
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout

    selftest = run_cli("selftest")
    assert selftest.returncode == 0, selftest.stdout + selftest.stderr
    _report(10, "CLI round-trip, byte-identical replay, selftest", "exit 0")
