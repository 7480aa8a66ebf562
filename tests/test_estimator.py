"""Randomized trials, policies, branch enumeration, Monte Carlo aggregation."""
from __future__ import annotations

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamb import estimator
from hamb.errors import PolicyError
from hamb.estimator import (
    RowOrderPolicy,
    TrialOutcome,
    enumerate_branches,
    estimate,
    trial_stream,
    trial_with_policy,
)
from hamb.exact import ham_dp
from hamb.graphs import DiGraph, build_digraph, gen_family, gen_gnp

from conftest import all_digraphs, digraphs, run_cli, undigraphs


def _is_witness(w, g) -> bool:
    """``w`` is a plain tuple naming a Hamiltonian cycle of ``g``'s rows, from vertex 1."""
    return (type(w) is tuple and w[:1] == (1,) and sorted(w) == list(range(1, g.n + 1))
            and all(g.rows[u - 1] >> (v - 1) & 1 for u, v in zip(w, w[1:] + w[:1])))


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
            assert _is_witness(out.witness, g)

    def test_directed_cycle_deterministic(self):
        g = build_digraph(3, [(1, 2), (2, 3), (3, 1)])
        out = trial_with_policy(g, RowOrderPolicy.ascending(), trial_stream(0, 0))
        assert out.value == 1
        assert out.p_factors == (1, 1, 1)
        assert out.witness == (1, 2, 3)

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
    @given(st.one_of(digraphs(max_n=6), undigraphs(min_n=3, max_n=7)))
    def test_witness_soundness(self, g):
        for t in range(5):
            out = trial_with_policy(g, RowOrderPolicy.ascending(), trial_stream(13, t))
            if out.value > 0:
                assert _is_witness(out.witness, g)
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

    def test_each_branch_runs_one_trial(self, monkeypatch):
        calls = 0
        run = estimator._run

        def counting_run(*args):
            nonlocal calls
            calls += 1
            return run(*args)

        monkeypatch.setattr(estimator, "_run", counting_run)
        for n in range(1, 5):
            for i, g in enumerate(all_digraphs(n)):
                for policy in _policies(n, i):
                    calls = 0
                    probs = [p for p, _ in enumerate_branches(g, policy)]
                    assert calls == len(probs) and sum(probs) == 1, (g, policy)

    def test_witnesses_are_vertex_tuples(self):
        # A branch or trial of non-zero value names its cycle as a plain tuple
        # of 1-based vertices from vertex 1; one of value 0 names none.
        graphs = [(g, n, i) for n in range(1, 5) for i, g in enumerate(all_digraphs(n))]
        graphs += [(gen_gnp(7, 0.6, 3, kind), 7, 3) for kind in ("undirected", "digraph")]
        for g, n, i in graphs:
            for policy in _policies(n, i):
                outcomes = [out for _, out in enumerate_branches(g, policy)]
                outcomes += [trial_with_policy(g, policy, trial_stream(i, t)) for t in range(3)]
                for out in outcomes:
                    assert _is_witness(out.witness, g) if out.value else out.witness is None, (g, policy, out)

    def test_trial_can_end_at_the_closing_arc(self):
        # The path 1 -> 2 -> 3 offers one arc at each draw and no arc home, so
        # every trial ends at the last step, whose 1x1 matrix is the closing arc.
        g = build_digraph(3, [(1, 2), (2, 3)])
        dead = TrialOutcome(value=0, witness=None, p_factors=(1, 1, 0))
        ones = RowOrderPolicy.from_table([[1] * 3] * 3)
        for policy in (RowOrderPolicy.ascending(), RowOrderPolicy.follow_path(1), ones):
            assert [trial_with_policy(g, policy, trial_stream(0, t)) for t in range(5)] == [dead] * 5
            assert list(enumerate_branches(g, policy)) == [(1, dead)]

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
                    assert _is_witness(out.witness, g)
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
                        vs = out.witness
                        walk = vs[vs.index(s):] + vs[:vs.index(s)]
                        counts = 1
                        for i, v in enumerate(walk[:-1]):
                            counts *= sum(g.rows[v - 1] >> (w - 1) & 1 for w in range(1, n + 1) if w not in walk[:i + 1])
                        assert prob == Fraction(1, counts), (g, s, walk)
                        assert out.value == counts and _is_witness(out.witness, g)


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

    @settings(max_examples=15, deadline=None)
    @given(undigraphs(min_n=3, max_n=8), st.integers(0, 2**64))
    def test_undigraph_is_estimated_as_its_image(self, g, seed):
        # An UndiGraph holds its doubled image's rows, and estimate reads them as they are.
        image = DiGraph(g.n, g.rows)
        for policy in _policies(g.n, seed):
            assert estimate(g, policy, 50, seed) == estimate(image, policy, 50, seed), policy

    def test_undigraph_is_estimated_as_its_image_across_blocks(self):
        g = gen_gnp(20, 0.4, 3, "undirected")
        image = DiGraph(g.n, g.rows)
        trials = estimator._BLOCK + 100
        for policy in _policies(g.n, 3):
            report = estimate(g, policy, trials, 11)
            assert report == estimate(image, policy, trials, 11) and report.sum, policy

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

    def test_fractions_loads_after_the_last_block(self):
        # The exact report is built once every block's arrays are gone, so
        # fractions (with decimal and numbers) adds nothing to the kernel's
        # peak memory; the report's mean and variance stay Fractions.
        script = """if True:
            import sys
            from hamb import estimator
            from hamb.graphs import gen_family
            print(sorted({"fractions", "decimal"} & set(sys.modules)))
            real, seen = estimator._block_values, []

            def blocks(*args):
                for block in real(*args):
                    seen.append("fractions" in sys.modules)
                    yield block

            estimator._block_values = blocks
            g = gen_family("complete", 6, "digraph")
            report = estimator.estimate(g, estimator.RowOrderPolicy.ascending(), 5000, 3)
            from fractions import Fraction
            print(seen, type(report.mean) is Fraction, type(report.sample_variance) is Fraction)
        """
        res = run_cli(entry=("-c", script))
        assert res.returncode == 0, res.stderr
        assert res.stdout.splitlines() == ["[]", "[False, False, False] True True"]

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
    first = trials.start
    for values in estimator._block_values(g, policy, seed, trials):
        size = min((first // estimator._BLOCK + 1) * estimator._BLOCK, trials.stop) - first
        assert all(values.values()) and set(values) <= set(range(size)), values
        yield from (values.get(b, 0) for b in range(size))
        first += size


LOCKSTEP_SEEDS = (0, 5, 3001, 2**40 + 7, 12 * 10**21)
# Vertex 8 is entered only from vertex 7, so a walk from vertex 2 can end
# only at its last draw (step 6): at a vertex other than 7, with only 8 left.
# A walk that ran on past its end would move to vertex 1, whose arc to the
# start closes it.
LATE_ENDS = build_digraph(8, [(u, v) for u in range(1, 9) for v in range(1, 9) if u != v and (v < 8 or u == 7)])
# Even steps (from 0) expand the top row of every trial, by a slice; odd steps
# pick per trial by the column chosen before, and 1 sits beside other entries.
MIXED_TABLE = [[1] * 8 if i % 2 == 0 else [1 + (i * j) % (8 - i) for j in range(8)] for i in range(8)]


class TestReferenceStream:
    """``trial_stream`` is a ``hamb.pcg.Stream``; numpy's spawned generator is its oracle."""

    @pytest.mark.parametrize("seed", [*LOCKSTEP_SEEDS, 2**130 + 3])
    def test_trial_with_policy_equals_numpy_generator(self, seed):
        g = gen_gnp(12, 0.6, 5, "digraph")
        values = []
        for t in [*range(20), 2**32 - 1, 2**32, 2**64 - 1]:
            for policy in _policies(g.n, t):
                ss = np.random.SeedSequence(entropy=seed, spawn_key=(t,))
                want = trial_with_policy(g, policy, np.random.Generator(np.random.PCG64(ss)))
                assert trial_with_policy(g, policy, trial_stream(seed, t)) == want, (t, policy)
                values.append(want.value)
        assert 0 < values.count(0) < len(values)


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
        # Up to 63 candidates per draw: the widest rows and labels, uint64
        # masks and uint8 widths, and all 63 uint32 words of a trial's stream.
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

    @pytest.mark.parametrize("policy", _policies(10, 3)[::2], ids=["ascending", "table"])
    def test_trials_that_end_sit_before_live_ones(self, policy):
        # Each trial's candidates follow those of the trials before it in the
        # block's flat candidate list, so a trial that ends at a draw, ahead of
        # one that goes on, must still take its (empty) place there.
        g = gen_gnp(10, 0.4, 3, "digraph")
        outcomes = [trial_with_policy(g, policy, trial_stream(9, t)) for t in range(64)]
        ends = [o.p_factors.index(0) if not o.value else g.n for o in outcomes]
        assert any(e < g.n - 1 and e < max(ends[i + 1:], default=0) for i, e in enumerate(ends))
        assert list(_lockstep_values(g, policy, 9, range(64))) == [o.value for o in outcomes]

    def test_walk_enters_the_top_bit(self):
        # Vertex 64 is bit 63 of the walk's uint64 masks: the top bit of the
        # top byte lane.  A walk from vertex 1 that closes a cycle entered it.
        g = gen_gnp(64, 0.5, 11, "symmetric-digraph")
        policy = RowOrderPolicy.follow_path(1)
        outcomes = [trial_with_policy(g, policy, trial_stream(7, t)) for t in range(128)]
        assert any(o.witness for o in outcomes)
        assert list(_lockstep_values(g, policy, 7, range(128))) == [o.value for o in outcomes]

    def test_block_starts_walk_lazily(self):
        # A range far past 2^64 costs only the blocks that are read.
        g = gen_gnp(6, 0.7, 3, "symmetric-digraph")
        for policy in _policies(6, 7):
            got = list(itertools.islice(_lockstep_values(g, policy, 7, range(10**30)), 5))
            assert got == _scalar_values(g, policy, 7, range(5))
            top = range(2**64 - 3, 2**64)  # the last trial indices a uint64 holds
            assert list(_lockstep_values(g, policy, 7, top)) == _scalar_values(g, policy, 7, top)

    def test_rejected_draws_replay_on_scalar_path(self, monkeypatch):
        # Zeroing the low half of a trial's first word makes Lemire's method
        # reject its first draw (width 6 from vertex 1, and 2**32 % 6 != 0);
        # that trial must be replayed from its real stream on the scalar path.
        g = gen_gnp(8, 0.7, 3, "symmetric-digraph")
        assert bin(g.rows[0]).count("1") == 6
        policy = RowOrderPolicy.follow_path(1)
        want = _scalar_values(g, policy, 9, range(600))
        real_words = estimator.stream_words
        replayed = []

        def words(seed, trials, count):
            out = real_words(seed, trials, count)
            out[trials % 7 == 0, 0] &= np.uint64(0xFFFFFFFF00000000)
            return out

        def counting_stream(seed, t):
            replayed.append(t)
            return trial_stream(seed, t)

        monkeypatch.setattr(estimator, "stream_words", words)
        monkeypatch.setattr(estimator, "trial_stream", counting_stream)
        report = estimate(g, policy, 600, 9)
        assert replayed == list(range(0, 600, 7))
        assert report.sum == sum(want)
        total_sq = sum(v * v for v in want)
        assert report.sample_variance == (total_sq - Fraction(report.sum**2, 600)) / 599

    @pytest.mark.parametrize("policy", [
        RowOrderPolicy.ascending(),
        RowOrderPolicy.from_table(MIXED_TABLE),
    ], ids=["ascending", "table"])
    def test_rejected_draws_skipped_in_the_matrix_kernel(self, monkeypatch, policy):
        # Zeroing the low half of a trial's second word makes Lemire's method
        # reject its third draw, which reads that half when the first two
        # read a uint32 each, if the third draw's width is not a power of
        # two.  By then candidate sets differ from trial to trial, and the
        # trials after a rejected one must still find their own candidates.
        g = gen_gnp(8, 0.7, 3, "symmetric-digraph")
        outcomes = [trial_with_policy(g, policy, trial_stream(9, t)) for t in range(600)]
        rejected = [t for t, o in enumerate(outcomes)
                    if t % 3 == 0 and min(o.p_factors[:2]) > 1 and o.p_factors[2] & (o.p_factors[2] - 1)]
        real_words = estimator.stream_words
        replayed = []

        def words(seed, trials, count):
            out = real_words(seed, trials, count)
            out[np.isin(trials, rejected), 1] &= np.uint64(0xFFFFFFFF00000000)
            return out

        def counting_stream(seed, t):
            replayed.append(t)
            return trial_stream(seed, t)

        monkeypatch.setattr(estimator, "stream_words", words)
        monkeypatch.setattr(estimator, "trial_stream", counting_stream)
        got = list(_lockstep_values(g, policy, 9, range(600)))
        assert replayed == rejected and len(rejected) > 20
        assert got == [o.value for o in outcomes]


class TestBroadwordSelect:
    """The follow-path kernel's popcount and select against plain Python."""

    @staticmethod
    def _check(masks):
        words, ranks, want = [], [], []
        for x in masks:
            ones = [i for i in range(64) if x >> i & 1]
            words += [x] * len(ones)
            ranks += range(len(ones))
            want += ones
        x = np.array(words, dtype=np.uint64)
        prefix = estimator._byte_prefix(x)
        assert (prefix >> np.uint64(56)).tolist() == [bin(w).count("1") for w in words]
        assert estimator._select(x, prefix, np.array(ranks, dtype=np.uint64)).tolist() == want

    def test_every_byte_in_every_lane_at_every_rank(self):
        self._check([b << 8 * lane for b in range(256) for lane in range(8)])

    def test_random_words_at_every_rank(self):
        rng = random.Random(13)
        # Sparse, balanced and dense words, then all ones and the top bit alone.
        masks = [rng.getrandbits(64) & rng.getrandbits(64) for _ in range(4000)]
        masks += [rng.getrandbits(64) for _ in range(3000)]
        masks += [rng.getrandbits(64) | rng.getrandbits(64) for _ in range(3000)]
        self._check(masks + [2**64 - 1, 1 << 63])
