"""Randomized trials, policies, branch enumeration, Monte Carlo aggregation."""
from __future__ import annotations

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamb import (
    PolicyError,
    RowOrderPolicy,
    build_digraph,
    enumerate_branches,
    estimate,
    gen_family,
    gen_gnp,
    trial_stream,
    trial_with_policy,
)
from hamb import estimator
from hamb.exact import ham_dp

from conftest import all_digraphs, digraphs


class TestRowOrderPolicy:
    def test_describe(self):
        assert RowOrderPolicy.ascending().describe() == "ascending"
        assert RowOrderPolicy.follow_path(3).describe() == "follow-path:3"
        assert RowOrderPolicy.from_table([[1]]).describe().startswith("table:1x1:")

    def test_table_entry_out_of_range(self):
        with pytest.raises(PolicyError, match=r"\(2,1\)"):
            RowOrderPolicy.from_table([[1, 2], [2, 1]])

    def test_table_must_be_square(self):
        with pytest.raises(PolicyError, match="expected 2"):
            RowOrderPolicy.from_table([[1, 2], [1]])

    def test_follow_path_needs_positive_start(self):
        with pytest.raises(PolicyError):
            RowOrderPolicy.follow_path(0)

    def test_follow_path_rejects_bool_start(self):
        with pytest.raises(PolicyError, match="True"):
            RowOrderPolicy.follow_path(True)

    @pytest.mark.parametrize("entry", [True, 1.0])
    def test_table_rejects_non_int_entry(self, entry):
        with pytest.raises(PolicyError, match=rf"\(1,1\) = {entry}"):
            RowOrderPolicy("table", table=((entry,),))
        with pytest.raises(PolicyError, match=rf"\(1,1\) = {entry}"):
            RowOrderPolicy.from_table([[entry]])

    def test_ascending_takes_no_params(self):
        with pytest.raises(PolicyError):
            RowOrderPolicy("ascending", start=1)

    def test_unknown_kind(self):
        with pytest.raises(PolicyError):
            RowOrderPolicy("zigzag")


class TestTrials:
    def test_triangle_every_trial_is_two(self):
        g = gen_family("cycle", 3, "symmetric-digraph")
        for t in range(20):
            out = trial_with_policy(g, RowOrderPolicy.ascending(), trial_stream(1, t))
            assert out.value == 2
            assert out.p_factors == (2, 1, 1)
            assert out.witness is not None and out.witness.is_cycle_of(g)

    def test_directed_cycle_deterministic(self):
        g = build_digraph(3, [(1, 2), (2, 3), (3, 1)])
        out = trial_with_policy(g, RowOrderPolicy.ascending(), trial_stream(0, 0))
        assert out.value == 1
        assert out.p_factors == (1, 1, 1)
        assert out.witness.vertices == (1, 2, 3)

    def test_isolated_vertex_always_zero(self):
        g = build_digraph(4, [(1, 2), (2, 3), (3, 1)])  # vertex 4 isolated
        for t in range(10):
            out = trial_with_policy(g, RowOrderPolicy.ascending(), trial_stream(5, t))
            assert out.value == 0
            assert out.witness is None
            assert out.p_factors[-1] == 0 or 0 in out.p_factors

    def test_value_is_product_of_factors(self):
        g = gen_gnp(6, 0.6, 8, "symmetric-digraph")
        for t in range(30):
            out = trial_with_policy(g, RowOrderPolicy.follow_path(2), trial_stream(9, t))
            prod = 1
            for p in out.p_factors:
                prod *= p
            assert out.value == prod
            assert len(out.p_factors) == g.n

    def test_follow_path_first_factor_is_start_out_degree(self):
        g = gen_family("complete", 4, "symmetric-digraph")
        out = trial_with_policy(g, RowOrderPolicy.follow_path(1), trial_stream(2, 0))
        assert out.value == 6
        assert out.p_factors == (3, 2, 1, 1)

    @settings(max_examples=40, deadline=None)
    @given(digraphs(max_n=6))
    def test_witness_soundness(self, g):
        for t in range(5):
            out = trial_with_policy(g, RowOrderPolicy.ascending(), trial_stream(13, t))
            if out.value > 0:
                assert out.witness is not None
                assert out.witness.is_cycle_of(g)
            else:
                assert out.witness is None


class TestPolicyEquivalence:
    def test_all_ones_table_replays_ascending(self):
        # the ascending order written down as an explicit table
        g = gen_gnp(6, 0.5, 33, "symmetric-digraph")
        ones = RowOrderPolicy.from_table([[1] * g.n for _ in range(g.n)])
        for t in range(50):
            a = trial_with_policy(g, RowOrderPolicy.ascending(), trial_stream(4, t))
            b = trial_with_policy(g, ones, trial_stream(4, t))
            assert a == b


class TestPolicyGraphMismatch:
    def test_table_size_mismatch(self):
        g = gen_family("complete", 4, "symmetric-digraph")
        five = RowOrderPolicy.from_table([[1] * 5 for _ in range(5)])
        with pytest.raises(PolicyError, match="n=4"):
            trial_with_policy(g, five, trial_stream(0, 0))

    def test_follow_path_start_out_of_range(self):
        g = gen_family("complete", 3, "symmetric-digraph")
        with pytest.raises(PolicyError, match="out of range"):
            trial_with_policy(g, RowOrderPolicy.follow_path(9), trial_stream(0, 0))

    def test_mismatch_raises_in_estimate_too(self):
        g = gen_family("complete", 3, "symmetric-digraph")
        with pytest.raises(PolicyError):
            estimate(g, RowOrderPolicy.follow_path(4), 10, 0)


class TestBranches:
    def test_probabilities_sum_to_one(self):
        g = gen_gnp(6, 0.5, 12, "digraph")
        for policy in (RowOrderPolicy.ascending(), RowOrderPolicy.follow_path(3)):
            assert sum(p for p, _ in enumerate_branches(g, policy)) == 1

    def test_positive_branches_biject_with_cycles(self):
        g = gen_gnp(5, 0.7, 3, "symmetric-digraph")
        count = ham_dp(g)
        rng = np.random.default_rng(0)
        policies = [RowOrderPolicy.ascending(), RowOrderPolicy.follow_path(2)]
        policies.append(
            RowOrderPolicy.from_table(
                [[int(rng.integers(1, g.n - i + 1)) for _ in range(g.n)] for i in range(g.n)]
            )
        )
        for policy in policies:
            seen = set()
            for prob, out in enumerate_branches(g, policy):
                if out.value > 0:
                    assert prob == Fraction(1, out.value)
                    assert out.witness.is_cycle_of(g)
                    assert out.witness not in seen
                    seen.add(out.witness)
            assert len(seen) == count

    def test_follow_path_branches_walk_from_start(self):
        # A follow-path branch is a self-avoiding walk from the start: read
        # off its witness from s, each step picks one of the current vertex's
        # unvisited out-neighbours, so the branch has probability
        # 1 / prod(counts).  Only g is consulted, neither trial kernel.
        for n in range(1, 5):
            for g in all_digraphs(n):
                for s in range(1, n + 1):
                    for prob, out in enumerate_branches(g, RowOrderPolicy.follow_path(s)):
                        if out.value == 0:
                            continue
                        vs = out.witness.vertices
                        walk = vs[vs.index(s):] + vs[:vs.index(s)]
                        counts = 1
                        for i, v in enumerate(walk[:-1]):
                            counts *= sum(g.has_arc(v, w) for w in range(1, n + 1) if w not in walk[:i + 1])
                        assert prob == Fraction(1, counts), (g, s, walk)
                        assert out.value == counts and out.witness.is_cycle_of(g)


class TestEstimate:
    def test_triangle_mean_exact(self):
        g = gen_family("cycle", 3, "symmetric-digraph")
        report = estimate(g, RowOrderPolicy.ascending(), 25, 17)
        assert report.mean == 2
        assert report.sample_variance == 0
        assert report.standard_error == 0.0
        assert report.zero_fraction == 0.0

    def test_no_cycle_means_zero(self):
        g = build_digraph(4, [(1, 2), (2, 3), (3, 4)])
        report = estimate(g, RowOrderPolicy.ascending(), 40, 1)
        assert report.mean == 0
        assert report.zero_fraction == 1.0

    def test_deterministic_replay(self):
        g = gen_gnp(8, 0.5, 77, "symmetric-digraph")
        a = estimate(g, RowOrderPolicy.follow_path(5), 500, 99)
        b = estimate(g, RowOrderPolicy.follow_path(5), 500, 99)
        assert a == b

    def test_mean_is_sum_over_trials(self):
        g = gen_gnp(7, 0.6, 5, "digraph")
        report = estimate(g, RowOrderPolicy.ascending(), 137, 4)
        assert report.mean == Fraction(report.sum, report.trials)

    def test_single_trial_variance_zero(self):
        g = gen_family("cycle", 4, "symmetric-digraph")
        report = estimate(g, RowOrderPolicy.ascending(), 1, 0)
        assert report.sample_variance == 0

    def test_trials_must_be_positive(self):
        g = gen_family("cycle", 3, "symmetric-digraph")
        for trials in (0, -3, True, 2.0):
            with pytest.raises(ValueError, match="trials"):
                estimate(g, RowOrderPolicy.ascending(), trials, 0)

    def test_trials_capped_at_uint64(self):
        # Trial indices are uint64; a larger count is refused before any work.
        g = gen_family("cycle", 3, "symmetric-digraph")
        assert estimator.MAX_TRIALS == 2**64
        for trials in (2**64 + 1, 10**30):
            with pytest.raises(ValueError, match="2\\^64"):
                estimate(g, RowOrderPolicy.ascending(), trials, 0)

    def test_seed_must_be_non_negative(self):
        g = gen_family("cycle", 3, "symmetric-digraph")
        for seed in (-1, True, False, 1.0):
            with pytest.raises(ValueError, match="seed"):
                estimate(g, RowOrderPolicy.ascending(), 5, seed)

    def test_trial_stream_rejects_bools_and_negatives(self):
        for seed, t in ((True, 0), (0, True), (-1, 0), (0, -1)):
            with pytest.raises(ValueError):
                trial_stream(seed, t)

    def test_statistical_agreement_with_exact_count(self):
        g = gen_gnp(8, 0.6, 101, "symmetric-digraph")
        truth = ham_dp(g)
        assert truth > 0
        report = estimate(g, RowOrderPolicy.ascending(), 20_000, 7)
        assert report.standard_error > 0
        assert abs(float(report.mean) - truth) <= 5 * report.standard_error


def _policies(n: int, seed: int) -> list[RowOrderPolicy]:
    """ascending, a follow-path start and a random table, all picked by ``seed``."""
    rng = random.Random(seed)
    table = [[rng.randint(1, n - i) for _ in range(n)] for i in range(n)]
    return [
        RowOrderPolicy.ascending(),
        RowOrderPolicy.follow_path(1 + seed % n),
        RowOrderPolicy.from_table(table),
    ]


def _scalar_values(g, policy, seed, trials: range) -> list[int]:
    return [trial_with_policy(g, policy, trial_stream(seed, t)).value for t in trials]


def _lockstep_values(g, policy, seed, trials: range):
    """Every trial's value from the lockstep blocks, zeros included, lazily."""
    for size, values in estimator._block_values(g, policy, seed, trials):
        assert all(values.values()) and set(values) <= set(range(size)), values
        yield from (values.get(b, 0) for b in range(size))


LOCKSTEP_SEEDS = (0, 5, 3001, 2**40 + 7, 12 * 10**21)
# Vertex 8 is entered only from vertex 7, so a walk from vertex 2 can end
# only at its last draw (step 6): at a vertex other than 7, with only 8 left.
# A walk that ran on past its end would move to vertex 1, whose arc to the
# start closes it.
LATE_ENDS = build_digraph(8, [(u, v) for u in range(1, 9) for v in range(1, 9) if u != v and (v < 8 or u == 7)])
# Even steps (from 0) expand the top row of every trial, by a slice; odd steps
# pick per trial by the column chosen before, and 1 sits beside other entries.
MIXED_TABLE = [[1] * 8 if i % 2 == 0 else [1 + (i * j) % (8 - i) for j in range(8)] for i in range(8)]


class TestLockstep:
    """The lockstep kernel behind ``estimate`` against the scalar reference path."""

    def test_every_digraph_up_to_four_vertices(self):
        trials = range(8)
        for n in range(1, 5):
            for i, g in enumerate(all_digraphs(n)):
                seed = LOCKSTEP_SEEDS[i % len(LOCKSTEP_SEEDS)]
                for policy in _policies(n, i):
                    got = list(_lockstep_values(g, policy, seed, trials))
                    assert got == _scalar_values(g, policy, seed, trials), (g, policy, seed)

    @settings(max_examples=60, deadline=None)
    @given(digraphs(max_n=7), st.sampled_from(LOCKSTEP_SEEDS), st.integers(0, 2**32 - 100))
    def test_hypothesis_digraphs(self, g, seed, first):
        trials = range(first, first + 40)
        for policy in _policies(g.n, seed + first):
            got = list(_lockstep_values(g, policy, seed, trials))
            assert got == _scalar_values(g, policy, seed, trials)

    @pytest.mark.parametrize("g", [
        gen_family("complete", 64, "digraph"),
        gen_gnp(64, 0.5, 11, "symmetric-digraph"),
    ], ids=["complete", "gnp"])
    def test_vertex_cap(self, g):
        # Up to 63 candidates per draw: the widest uint8 labels, ranks and
        # widths, and all 63 uint32 words of a trial's stream.
        trials = range(estimator._BLOCK - 64, estimator._BLOCK + 64)
        for policy in _policies(64, 17):
            got = list(_lockstep_values(g, policy, 2**40 + 7, trials))
            assert got == _scalar_values(g, policy, 2**40 + 7, trials), policy.kind
            assert any(got), policy.kind

    def test_slice_and_mask_deletes_in_one_block(self):
        g = gen_gnp(8, 0.7, 3, "symmetric-digraph")
        policy = RowOrderPolicy.from_table(MIXED_TABLE)
        trials = range(estimator._BLOCK - 300, estimator._BLOCK + 300)
        got = list(_lockstep_values(g, policy, 3001, trials))
        assert got == _scalar_values(g, policy, 3001, trials)
        assert 0 < got.count(0) < len(got)

    def test_one_trial_ends_after_steps_where_none_do(self):
        # The block's first six draws end no trial, so they skip the
        # compaction; the last ends exactly one, which must then drop out.
        policy = RowOrderPolicy.follow_path(2)
        trials = range(estimator._BLOCK, estimator._BLOCK + 4)
        outcomes = [trial_with_policy(LATE_ENDS, policy, trial_stream(3001, t)) for t in trials]
        assert [o.p_factors.index(0) for o in outcomes if not o.value] == [6]
        assert list(_lockstep_values(LATE_ENDS, policy, 3001, trials)) == [o.value for o in outcomes]

    def test_block_starts_walk_lazily(self):
        # A range far past 2^64 costs only the blocks that are read.
        g = gen_gnp(6, 0.7, 3, "symmetric-digraph")
        for policy in _policies(6, 7):
            got = list(itertools.islice(_lockstep_values(g, policy, 7, range(10**30)), 5))
            assert got == _scalar_values(g, policy, 7, range(5))
            top = range(2**64 - 3, 2**64)  # the last trial indices a uint64 holds
            assert list(_lockstep_values(g, policy, 7, top)) == _scalar_values(g, policy, 7, top)

    @pytest.mark.parametrize("seed", [0, 5, 2**32 - 1, 2**32, 2**40 + 7, 2**64 + 3, 12 * 10**21, 2**130 + 3])
    def test_stream_words_match_numpy(self, seed):
        trials = [*range(20), 2**32 - 2, 2**32 - 1, 2**32, 2**32 + 1, 2**64 - 1]
        got = estimator._stream_words(seed, np.array(trials, dtype=np.uint64), 6)
        for row, t in zip(got, trials):
            ss = np.random.SeedSequence(entropy=seed, spawn_key=(t,))
            assert row.tolist() == np.random.PCG64(ss).random_raw(6).tolist()

    def test_rejected_draws_replay_on_scalar_path(self, monkeypatch):
        # Zeroing the low half of a trial's first word makes Lemire's method
        # reject its first draw (width 6 from vertex 1, and 2**32 % 6 != 0);
        # that trial must be replayed from its real stream on the scalar path.
        g = gen_gnp(8, 0.7, 3, "symmetric-digraph")
        assert bin(g.rows[0]).count("1") == 6
        policy = RowOrderPolicy.follow_path(1)
        want = _scalar_values(g, policy, 9, range(600))
        real_words = estimator._stream_words
        replayed = []

        def words(seed, trials, count):
            out = real_words(seed, trials, count)
            out[trials % 7 == 0, 0] &= np.uint64(0xFFFFFFFF00000000)
            return out

        def counting_stream(seed, t):
            replayed.append(t)
            return trial_stream(seed, t)

        monkeypatch.setattr(estimator, "_stream_words", words)
        monkeypatch.setattr(estimator, "trial_stream", counting_stream)
        report = estimate(g, policy, 600, 9)
        assert replayed == list(range(0, 600, 7))
        assert report.sum == sum(want)
        total_sq = sum(v * v for v in want)
        assert report.sample_variance == (total_sq - Fraction(report.sum**2, 600)) / 599
