"""Bound formulas, upward rounding, dominance, tightness families."""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

from hamb.bounds import (
    bregman_bound,
    digraph_bounds,
    dominance_compare,
    minc_bound,
    symmetric_bound,
    symmetric_product_value,
    undirected_bounds,
)
from hamb.exact import ham_dp, ham_undirected, permanent_ryser
from hamb.graphs import (
    build_digraph,
    build_undigraph,
    gen_family,
    gen_gnp,
    is_symmetric,
    row_sums,
    to_symmetric_digraph,
)


class TestMinc:
    def test_regular_two(self):
        b = minc_bound((2, 2, 2))
        assert b.exact == Fraction(27, 8)
        assert b.integer_cap == 3

    def test_regular_three(self):
        assert minc_bound((3, 3, 3, 3)).exact == 16

    def test_zero_row_factor(self):
        # each row contributes (r_i + 1) / 2; a zero row gives the factor 1/2
        assert minc_bound((0, 2)).exact == Fraction(3, 4)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            minc_bound((1, -1))


class TestBregman:
    def test_regular_two(self):
        b = bregman_bound((2, 2, 2))
        want = 1.5 * math.log(2.0)  # log of 2^(3/2)
        assert want <= b.log_upper <= want * (1 + 1e-9)
        assert abs(math.exp(b.log_upper) - 2.828427) < 1e-5
        assert b.integer_cap == 2

    def test_regular_three(self):
        b = bregman_bound((3, 3, 3, 3))
        assert abs(math.exp(b.log_upper) - 10.90272) < 1e-4

    def test_all_ones(self):
        b = bregman_bound((1, 1, 1))
        assert math.exp(b.log_upper) == pytest.approx(1.0, abs=1e-9)
        assert b.integer_cap == 1

    def test_zero_row_pins_cap(self):
        b = bregman_bound((0, 3, 3))
        assert b.integer_cap == 0
        assert b.exact is None

    def test_log_is_upper(self):
        # the rounded log must dominate the true log sum
        for r in [(2, 3, 4), (5,) * 10, (1, 63), tuple(range(1, 20))]:
            true_log = sum(math.log(math.factorial(x)) / x for x in r if x > 0)
            assert bregman_bound(r).log_upper >= true_log


class TestSymmetricBound:
    def test_cycle_is_tight(self):
        g = gen_family("cycle", 4, "symmetric-digraph")
        b = symmetric_bound(g)
        assert b.exact == 2
        assert ham_dp(g) == 2

    def test_k4(self):
        b = symmetric_bound(gen_family("complete", 4, "symmetric-digraph"))
        assert b.exact == Fraction(81, 8)
        assert b.integer_cap == 10

    def test_triangle_tight(self):
        g = gen_family("cycle", 3, "symmetric-digraph")
        assert symmetric_bound(g).exact == 2 == ham_dp(g)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            symmetric_bound(build_digraph(3, [(1, 2), (2, 3), (3, 1)]))

    def test_rejects_small_n(self):
        with pytest.raises(ValueError, match="n >= 3"):
            symmetric_bound(gen_family("complete", 2, "symmetric-digraph"))


class TestUndirectedBounds:
    def test_cycle_second_bound_tight(self):
        rep = undirected_bounds(gen_family("cycle", 5, "undirected"))
        assert rep.symmetric.exact == 1
        assert ham_undirected(gen_family("cycle", 5, "undirected")) == 1

    def test_k4_values(self):
        rep = undirected_bounds(gen_family("complete", 4, "undirected"))
        assert rep.minc.exact == 8
        assert rep.symmetric.exact == Fraction(81, 16)
        assert abs(math.exp(rep.bregman.log_upper) - 5.45136) < 1e-4
        assert ham_undirected(gen_family("complete", 4, "undirected")) == 3

    def test_star_capped_at_zero(self):
        star = build_undigraph(4, [(1, 2), (1, 3), (1, 4)])
        rep = undirected_bounds(star)
        assert rep.symmetric.exact == Fraction(3, 16)
        assert rep.symmetric.integer_cap == 0
        assert ham_undirected(star) == 0

    def test_minimum_prefers_symmetric_on_tie_order(self):
        rep = undirected_bounds(gen_family("complete", 4, "undirected"))
        assert rep.applicable_minimum == "symmetric"

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            undirected_bounds(build_undigraph(2, [(1, 2)]))


class TestDigraphBounds:
    def test_symmetric_slot_presence(self):
        sym = gen_family("complete", 4, "symmetric-digraph")
        assert digraph_bounds(sym).symmetric is not None
        asym = build_digraph(3, [(1, 2), (2, 3), (3, 1)])
        assert digraph_bounds(asym).symmetric is None

    def test_minimum_name_valid(self):
        rep = digraph_bounds(gen_family("complete", 5, "symmetric-digraph"))
        assert rep.applicable_minimum in ("symmetric", "bregman", "minc")


class TestDominance:
    def test_regular_two(self):
        rec = dominance_compare((2, 2, 2))
        assert rec.symmetric.exact == 2
        assert rec.minc.exact == Fraction(27, 8)
        assert rec.new_le_minc

    def test_regular_three(self):
        rec = dominance_compare((3, 3, 3, 3))
        assert rec.symmetric.exact == Fraction(81, 8)
        assert rec.minc.exact == 16
        assert rec.new_le_minc

    def test_degree_five_at_n_100(self):
        rec = dominance_compare((5,) * 100)
        assert rec.new_le_minc and rec.new_le_bregman

    def test_minc_dominance_random(self):
        rng = np.random.default_rng(55)
        for _ in range(500):
            n = int(rng.integers(1, 40))
            r = [int(rng.integers(0, n)) for _ in range(n)]
            assert symmetric_product_value(r) <= minc_bound(r).exact


@pytest.mark.parametrize("fn", [minc_bound, bregman_bound, symmetric_product_value, dominance_compare])
@pytest.mark.parametrize(
    "degrees",
    [(1.9, 2), (2.5, 2, 2), ("3", 3, 3), (True, 2, 2), (np.int64(2), 2, 2), (1, -1)],
    ids=["float", "half", "str", "bool", "numpy-int", "negative"],
)
def test_degrees_must_be_plain_ints(fn, degrees):
    # int() would truncate 2.5 to 2 and put the symmetric value below the true
    # product; a degree is a Python int, never a bool, float, str or numpy int.
    with pytest.raises(ValueError, match="degree must be an integer >= 0"):
        fn(degrees)


class TestRoundingSoundness:
    def test_exact_bounds_have_dominating_logs(self):
        rng = np.random.default_rng(66)
        for _ in range(200):
            n = int(rng.integers(1, 60))
            r = [int(rng.integers(0, n)) for _ in range(n)]
            for b in (minc_bound(r), dominance_compare(r).symmetric):
                if b.exact == 0:
                    assert b.log_upper == float("-inf")
                    continue
                assert b.integer_cap == math.floor(b.exact)
                # the rounded log dominates the true log, so exp(log_upper)
                # dominates the exact value
                assert b.log_upper >= math.log(b.exact.numerator) - math.log(b.exact.denominator)
                if b.log_upper <= 700.0:
                    assert Fraction(math.exp(b.log_upper)) >= b.exact


class TestValiditySweep:
    def test_counts_below_all_bounds(self):
        rng = np.random.default_rng(77)
        for t in range(120):
            n = int(rng.integers(3, 11))
            kind = ("digraph", "symmetric-digraph")[t % 2]
            g = gen_gnp(n, float(rng.uniform(0.2, 0.9)), int(rng.integers(0, 2**32)), kind)
            ham = ham_dp(g)
            perm = permanent_ryser(g)
            r = row_sums(g)
            assert ham <= perm
            assert Fraction(perm) <= minc_bound(r).exact
            if perm > 0:
                assert math.log(perm) <= bregman_bound(r).log_upper + 1e-9
            if is_symmetric(g) and n >= 3:
                assert Fraction(ham) <= symmetric_product_value(r)

    def test_undirected_count_below_all_three_bounds(self):
        rng = np.random.default_rng(78)
        for _ in range(100):
            n = int(rng.integers(3, 11))
            g = gen_gnp(n, float(rng.uniform(0.2, 0.9)), int(rng.integers(0, 2**32)), "undirected")
            count = ham_undirected(g)
            rep = undirected_bounds(g)
            assert Fraction(count) <= rep.minc.exact
            assert Fraction(count) <= rep.symmetric.exact
            if count > 0:
                assert math.log(count) <= rep.bregman.log_upper + 1e-9


class TestTightnessFamily:
    def test_cycles(self):
        for n in range(3, 13):
            undirected = gen_family("cycle", n, "undirected")
            doubled = to_symmetric_digraph(undirected)
            assert symmetric_bound(doubled).exact == 2 == ham_dp(doubled)
            assert undirected_bounds(undirected).symmetric.exact == 1 == ham_undirected(undirected)
