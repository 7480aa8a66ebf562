"""Exact counters: brute force vs subset DP, the permanent, the undirected
reduction, and the decision-tree expectation oracle."""
from __future__ import annotations

import itertools
import math
import tracemalloc
import warnings
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings

from hamb import exact
from hamb.bounds import bregman_bound
from hamb.errors import GraphSizeError
from hamb.estimator import RowOrderPolicy
from hamb.exact import (
    estimator_expectation,
    ham_bruteforce,
    ham_dp,
    ham_undirected,
    permanent_ryser,
)
from hamb.graphs import (
    ContractedMatrix,
    DiGraph,
    build_digraph,
    build_undigraph,
    contract,
    gen_family,
    gen_gnp,
    to_symmetric_digraph,
)

from conftest import all_digraphs, digraphs


def permanent_by_permutation_sum(m) -> int:
    """Independent oracle: the defining sum over all permutations."""
    n = m.n
    total = 0
    for sigma in itertools.permutations(range(n)):
        prod = 1
        for i in range(n):
            prod *= m.rows[i] >> sigma[i] & 1
            if not prod:
                break
        total += prod
    return total


class TestHamBruteforce:
    def test_symmetrized_triangle(self):
        assert ham_bruteforce(gen_family("cycle", 3, "symmetric-digraph")) == 2

    def test_complete_symmetric_k4(self):
        # (4-1)! orderings, all arcs present
        assert ham_bruteforce(gen_family("complete", 4, "symmetric-digraph")) == 6

    def test_directed_three_cycle(self):
        assert ham_bruteforce(build_digraph(3, [(1, 2), (2, 3), (3, 1)])) == 1

    def test_single_vertex(self):
        assert ham_bruteforce(build_digraph(1, [])) == 0

    def test_contracted_one_by_one(self):
        assert ham_bruteforce(ContractedMatrix(1, (1,))) == 1

    def test_size_cap(self):
        with pytest.raises(GraphSizeError, match="10"):
            ham_bruteforce(build_digraph(11, []))

    def test_complete_digraph_at_the_limit(self):
        assert ham_bruteforce(gen_family("complete", 10, "digraph")) == math.factorial(9)

    def test_matches_dp_on_every_contracted_matrix_to_n3(self):
        # Diagonal ones included (512 matrices at n = 3): a path never steps
        # onto a vertex it has visited, so only a 1x1 matrix's diagonal counts.
        for n in (1, 2, 3):
            for rows in itertools.product(range(1 << n), repeat=n):
                m = ContractedMatrix(n, rows)
                assert ham_bruteforce(m) == ham_dp(m), m


class TestHamDp:
    def test_symmetrized_triangle(self):
        assert ham_dp(gen_family("cycle", 3, "symmetric-digraph")) == 2

    def test_complete_symmetric_k4(self):
        assert ham_dp(gen_family("complete", 4, "symmetric-digraph")) == 6

    def test_directed_path_has_no_cycle(self):
        assert ham_dp(build_digraph(3, [(1, 2), (2, 3)])) == 0

    def test_complete_digraph_factorials(self):
        # K18's layer 13 holds 12! in every entry, the most a uint32 layer
        # holds; K19's layer 14 holds 13!, past 2^32, over two chunks.
        for n in range(2, 20):
            assert ham_dp(gen_family("complete", n, "symmetric-digraph")) == math.factorial(n - 1)

    def test_size_cap(self):
        with pytest.raises(GraphSizeError, match="24"):
            ham_dp(build_digraph(25, []))

    def test_zero_row_runs_no_kernel(self, monkeypatch):
        # A vertex with no out-arc closes no cycle, so no layer is built.
        g = gen_gnp(14, 0.5, 3, "digraph")
        monkeypatch.setattr(exact, "_ham_dp_numpy", None)
        assert ham_dp(DiGraph(14, (*g.rows[:4], 0, *g.rows[5:]))) == 0

    def test_matches_bruteforce_exhaustively_to_n4(self):
        # ham_dp takes the pure path here; the second leg runs the numpy kernel.
        for n in (1, 2, 3, 4):
            for g in all_digraphs(n):
                want = ham_bruteforce(g)
                assert ham_dp(g) == want
                assert n == 1 or exact._ham_dp_numpy(g) == want

    @settings(max_examples=60, deadline=None)
    @given(digraphs(max_n=7))
    def test_matches_bruteforce(self, g):
        assert ham_dp(g) == ham_bruteforce(g)

    def test_layers_count_paths(self):
        # Row w of layer L: the paths from vertex 1 through exactly S that end
        # at w, for each L-subset S of vertices 2..n holding w, S ascending.
        # A layer is read as it is yielded: building the next one empties it.
        g = gen_gnp(7, 0.6, 4, "digraph")
        k = g.n - 1

        def paths(s, w):
            inner = [v for v in range(k) if s >> v & 1 and v != w]
            total = 0
            for order in itertools.permutations(inner):
                walk = (-1, *order, w)
                total += all(g.rows[a + 1] >> b + 1 & 1 for a, b in zip(walk, walk[1:]))
            return total

        for size, layer in enumerate(exact._ham_dp_layers(g), 1):
            subsets = sorted(s for s in range(1 << k) if s.bit_count() == size)
            for w in range(k):
                assert np.concatenate(layer[w]).tolist() == [paths(s, w) for s in subsets if s >> w & 1]

    @pytest.mark.parametrize("chunk", [1, 7, 100])
    def test_small_chunks_cross_segment_boundaries(self, monkeypatch, chunk):
        # Chunks that split the layers' segments at every offset must give the
        # counts of the 4096-subset chunks and the Python DP.
        graphs = [gen_gnp(13, 0.6, 1, "digraph"), gen_gnp(14, 0.5, 3, "digraph")]
        want = [exact._ham_dp_small(g) for g in graphs]
        monkeypatch.setattr(exact, "_LAYER_CHUNK", chunk)
        for g, count in zip(graphs, want):
            assert ham_dp(g) == count

    def test_layers_stream_in_memory(self):
        # Only about one layer and one chunk are alive: at n = 18 the largest
        # layer, L = 9, holds 17 x C(16, 8) entries and a chunk's block
        # 17 x 4096, both uint32 (0.83 and 0.27 MiB).  With the chunk's masks
        # this kernel peaks at ~1.50 MiB here (numpy 2.4).  In uint64 it
        # peaked at ~2.78 MiB, one that also keeps the last chunk's arrays
        # bound while the next chunk allocates at ~3.12 MiB, and one that
        # also keeps two whole layers at ~5.2 MiB.
        g = gen_gnp(18, 0.5, 3, "digraph")
        ham_dp(g)  # numpy's own first-call allocations stay outside the trace
        tracemalloc.start()
        try:
            assert ham_dp(g) == 159667765
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.7 * 2**20, peak

    @pytest.mark.parametrize(("n", "narrow"), [(13, ()), (18, range(6, 14)), (19, range(6, 14))])
    def test_layer_widths(self, n, narrow):
        # Layer L is uint32 when (L-1)! < 2^32 and layer L-1 spans more than
        # one 4096-subset chunk, and uint64 otherwise up to n = 22: the chunk
        # rule binds at n = 13 and 18, and at n = 19 the factorial rule keeps
        # layer 14 wide.
        g = gen_gnp(n, 0.5, 3, "digraph")
        got = [{seg.dtype for row in layer for seg in row} for layer in exact._ham_dp_layers(g)]
        assert got == [{np.dtype(np.uint32 if size in narrow else np.uint64)} for size in range(1, n)]

    def test_k24_less_one_arc_is_exact_in_one_pass(self, monkeypatch):
        # 22! of K24's 23! cycles take the arc 2 -> 3.  Without it, a layer's
        # entries are not all equal, as K24's are.  Layers 22-23 hold up to
        # 21! and 22!, past 2^64, as Python integers; a wrapping add would warn.
        g = build_digraph(24, [(u, v) for u in range(1, 25) for v in range(1, 25) if u != v and (u, v) != (2, 3)])
        widths, layers = [], exact._ham_dp_layers

        def recorded(m):
            for layer in layers(m):
                widths.append({seg.dtype for row in layer for seg in row})
                yield layer

        monkeypatch.setattr(exact, "_ham_dp_layers", recorded)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert ham_dp(g) == math.factorial(23) - math.factorial(22)
        assert widths == [{np.dtype(np.uint32 if size in range(5, 14) else object if size >= 22 else np.uint64)}
                          for size in range(1, 24)]

    def test_chunk_blocks_die_before_the_next_allocates(self, monkeypatch):
        # Each chunk's k x chunk block comes from numpy.zeros; every earlier
        # one must be unreferenced when the next is requested, across layers
        # too (at n = 15 each layer is one chunk).
        blocks = []
        zeros = np.zeros

        def tracked(*args, **kwargs):
            alive = [ref for ref in blocks if ref() is not None]
            assert not alive, f"{len(alive)} earlier block(s) alive at block {len(blocks)}"
            block = zeros(*args, **kwargs)
            blocks.append(weakref.ref(block))
            return block

        g = gen_gnp(15, 0.5, 3, "digraph")
        want = exact._ham_dp_small(g)
        monkeypatch.setattr(np, "zeros", tracked)
        assert exact._ham_dp_numpy(g) == want
        assert len(blocks) >= g.n - 2

    def test_layer_masks_are_ascending_layers(self):
        for k in range(9):
            got = [layer.tolist() for layer in exact._layer_masks(k)]
            assert got == [sorted(s for s in range(1 << k) if s.bit_count() == size) for size in range(1, k + 1)]


class TestPermanent:
    def test_matches_permutation_sum_exhaustively_to_n4(self):
        # Every 0/1 matrix to n = 3, diagonal included as a ContractedMatrix
        # may hold it, and every digraph on 4 vertices.  permanent_ryser takes
        # the pure path here; the second leg runs the numpy kernel, whose
        # residue modulo 2^64 is the permanent at this size.
        matrices = [ContractedMatrix(n, tuple(bits >> n * i & (1 << n) - 1 for i in range(n)))
                    for n in (1, 2, 3) for bits in range(1 << n * n)]
        for m in (*matrices, *all_digraphs(4)):
            want = permanent_by_permutation_sum(m)
            assert permanent_ryser(m) == want, m
            assert exact._permanent_residue(m, 0) == want, m

    def test_all_ones_3x3(self):
        assert permanent_ryser(ContractedMatrix(3, (0b111,) * 3)) == 6

    def test_derangements(self):
        # J - I adjacency: permanent counts derangements
        assert permanent_ryser(gen_family("complete", 3, "symmetric-digraph")) == 2
        assert permanent_ryser(gen_family("complete", 4, "symmetric-digraph")) == 9

    def test_empty_row_kills_permanent(self):
        assert permanent_ryser(build_digraph(3, [(1, 2), (2, 1)])) == 0

    @settings(max_examples=60, deadline=None)
    @given(digraphs(max_n=6))
    def test_matches_permutation_sum(self, g):
        assert permanent_ryser(g) == permanent_by_permutation_sum(g)

    @settings(max_examples=40, deadline=None)
    @given(digraphs(max_n=6))
    def test_cycle_count_never_exceeds_one_factor_count(self, g):
        assert ham_dp(g) <= permanent_ryser(g)

    def test_size_cap(self):
        with pytest.raises(GraphSizeError, match="24"):
            permanent_ryser(build_digraph(25, []))

    @pytest.mark.parametrize("n", [5, 8, exact.SMALL_N, exact.SMALL_N + 1, 14, 16])
    def test_undigraph_is_counted_as_its_image(self, n):
        # Both sides of SMALL_N: the pure path reads the rows, the numpy kernel unpacks them.
        g = gen_gnp(n, 0.6, n, "undirected")
        assert permanent_ryser(g) == permanent_ryser(DiGraph(g.n, g.rows)) > 0

    def test_d21_exceeds_two_to_the_64(self):
        # perm(J - I) for n = 21 counts derangements: above 2^64, and so is
        # K21's Bregman cap (~2^64.1), so a prime pass and CRT are needed.
        assert permanent_ryser(gen_family("complete", 21, "symmetric-digraph")) == 18795307255050944540

    @settings(max_examples=40, deadline=None)
    @given(digraphs(max_n=6))
    def test_prime_pass_matches_permutation_sum(self, g):
        want = permanent_by_permutation_sum(g)
        for p in (2, 3, 7):
            assert exact._permanent_residue(g, p) == want % p


def test_permanent_high_column_chunks(monkeypatch):
    # Two low columns per chunk: the other columns index the high table.
    monkeypatch.setattr(exact, "_CHUNK_BITS", 2)
    graphs = [*all_digraphs(3), *(gen_gnp(n, 0.6, n, "digraph") for n in range(4, 8))]
    for g in graphs:
        want = permanent_by_permutation_sum(g)
        for p in (0, 7):
            assert exact._permanent_residue(g, p) == want % (p or 1 << 64)


class TestSmallCounters:
    """The pure-Python counters (n <= SMALL_N) against the numpy kernels."""

    @settings(max_examples=40, deadline=None)
    @given(digraphs(min_n=5, max_n=12))
    def test_pure_equals_numpy_kernel(self, g):
        assert exact._ham_dp_small(g) == exact._ham_dp_numpy(g)
        assert exact._permanent_small(g) == exact._permanent_residue(g, 0)

    @pytest.mark.parametrize("kind", ["digraph", "symmetric-digraph"])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_pure_equals_narrowed_kernel(self, kind, seed):
        # At n = 16 the kernel builds layers 7-10 in uint32; no selftest
        # count, at n = 13, reaches a uint32 layer.
        g = gen_gnp(16, 0.5, seed, kind)
        assert exact._ham_dp_small(g) == exact._ham_dp_numpy(g)

    @pytest.mark.parametrize("n", range(exact.SMALL_N - 1, exact.SMALL_N + 3))
    def test_complete_digraph_on_both_paths(self, n):
        g = gen_family("complete", n, "symmetric-digraph")
        derangements = sum((-1) ** i * math.factorial(n) // math.factorial(i) for i in range(n + 1))
        assert exact._ham_dp_small(g) == exact._ham_dp_numpy(g) == math.factorial(n - 1)
        assert exact._permanent_small(g) == exact._permanent_residue(g, 0) == derangements


def test_selftest_runs_numpy_kernels(monkeypatch):
    from hamb.selftest import run_selftest

    calls = {name: 0 for name in ("_ham_dp_numpy", "_permanent_residue")}
    for name in calls:
        def counted(*args, kernel=getattr(exact, name), name=name):
            calls[name] += 1
            return kernel(*args)
        monkeypatch.setattr(exact, name, counted)
    assert run_selftest(emit=lambda line: None)
    assert all(calls.values()), calls


class TestResidueArithmetic:
    def test_prime_moduli(self):
        p = exact._PRIME
        assert p % 2 and p < 2**49 and all(pow(a, p - 1, p) == 1 for a in (2, 3, 5, 7))
        # The all-ones n x n matrix has the largest Bregman cap, n! rounded up,
        # so one pass modulo 2^64 and one modulo p cover every permanent to
        # DP_MAX_N.
        cap = bregman_bound((exact.DP_MAX_N,) * exact.DP_MAX_N).integer_cap
        assert math.factorial(exact.DP_MAX_N) <= cap < 2**80 < 2**64 * p

    @pytest.mark.parametrize("n", [16, 21, 23])
    def test_complete_digraph_is_exact_and_quiet(self, n):
        g = gen_family("complete", n, "symmetric-digraph")
        derangements = sum((-1) ** i * math.factorial(n) // math.factorial(i) for i in range(n + 1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert ham_dp(g) == math.factorial(n - 1)
            assert permanent_ryser(g) == derangements


class TestContractionExpansion:
    """ham(A) = sum over j != k1 of a[k1,j] * ham(A'(k1, j)), any pivot."""

    def expand(self, g, k1):
        return sum(
            ham_dp(contract(g, k1, j))
            for j in range(1, g.n + 1)
            if j != k1 and g.rows[k1 - 1] >> (j - 1) & 1
        )

    @settings(max_examples=50, deadline=None)
    @given(digraphs(min_n=2, max_n=6))
    def test_expansion_matches_every_pivot(self, g):
        want = ham_dp(g)
        for k1 in range(1, g.n + 1):
            assert self.expand(g, k1) == want

    def test_expansion_on_triangle(self):
        g = gen_family("cycle", 3, "symmetric-digraph")
        assert self.expand(g, 1) == 2


class TestHamUndirected:
    def test_cycle_graph(self):
        assert ham_undirected(gen_family("cycle", 5, "undirected")) == 1

    def test_complete_k4(self):
        assert ham_undirected(gen_family("complete", 4, "undirected")) == 3

    def test_path(self):
        assert ham_undirected(gen_family("path", 3, "undirected")) == 0

    def test_small_n_rejected(self):
        with pytest.raises(ValueError, match="n >= 3"):
            ham_undirected(build_undigraph(2, [(1, 2)]))

    def test_brute_method_agrees(self):
        g = gen_gnp(7, 0.6, 11, "undirected")
        assert ham_undirected(g, method="brute") == ham_undirected(g)

    def test_halving_is_exact(self):
        rng = np.random.default_rng(40)
        for _ in range(30):
            n = int(rng.integers(3, 9))
            g = gen_gnp(n, float(rng.uniform(0.2, 0.9)), int(rng.integers(0, 2**32)), "undirected")
            assert 2 * ham_undirected(g) == ham_dp(to_symmetric_digraph(g))


class TestEstimatorExpectation:
    def test_triangle_ascending(self):
        g = gen_family("cycle", 3, "symmetric-digraph")
        assert estimator_expectation(g, RowOrderPolicy.ascending()) == 2

    def test_k4_follow_path(self):
        g = gen_family("complete", 4, "symmetric-digraph")
        assert estimator_expectation(g, RowOrderPolicy.follow_path(1)) == 6

    def test_directed_path_is_zero(self):
        g = build_digraph(3, [(1, 2), (2, 3)])
        for policy in (RowOrderPolicy.ascending(), RowOrderPolicy.follow_path(2)):
            assert estimator_expectation(g, policy) == 0

    def test_exact_rational_probabilities(self):
        # every branch probability is a product of 1/|W| terms
        g = gen_gnp(5, 0.6, 2, "symmetric-digraph")
        total = estimator_expectation(g, RowOrderPolicy.ascending())
        assert isinstance(total, Fraction)
        assert total == ham_dp(g)

    def test_size_cap(self):
        with pytest.raises(GraphSizeError, match="8"):
            estimator_expectation(build_digraph(9, []), RowOrderPolicy.ascending())

    def test_matches_count_for_all_policies_on_random_graphs(self):
        rng = np.random.default_rng(31)
        for t in range(25):
            n = int(rng.integers(2, 8))
            kind = ("digraph", "symmetric-digraph")[t % 2]
            g = gen_gnp(n, float(rng.uniform(0.25, 0.9)), int(rng.integers(0, 2**32)), kind)
            want = ham_dp(g)
            policies = [RowOrderPolicy.ascending()]
            policies += [RowOrderPolicy.follow_path(s) for s in range(1, n + 1)]
            for _ in range(2):
                policies.append(
                    RowOrderPolicy.from_table(
                        [[int(rng.integers(1, n - i + 1)) for _ in range(n)] for i in range(n)]
                    )
                )
            for policy in policies:
                assert estimator_expectation(g, policy) == want
