"""hamb.pcg, the program's one SeedSequence/PCG64, against numpy itself."""
from __future__ import annotations

import random

import numpy as np
import pytest

from hamb.graphs import build_digraph, build_undigraph, gen_gnp, to_symmetric_digraph
from hamb.pcg import Stream, stream_words

SEEDS = [*range(301), 2**32 - 1, 2**32, 2**64, 2**128 + 5]
# (seed, t) for trial streams, Stream(seed, t): from 2**32 on, t is two spawn-key words.
SPAWNED = [(seed, t) for seed in (0, 7, 2**64, 2**130 + 3) for t in (0, 1, 19, 2**32 - 1, 2**32, 2**64 - 1)]
# Widths for integers(): 1 reads nothing, 2**32 reads a raw uint32 half, and
# 2**31 + 3 rejects almost half of its draws.
WIDTHS = [1, 2, 3, 7, 64, 2**31 + 3, 2**32 - 1, 2**32]


def _calls(seed: int, count: int):
    """A mixed sequence of (method, args, kwargs) calls, drawn from ``seed``."""
    pick = random.Random(seed)
    for _ in range(count):
        kind = pick.randrange(3)
        if kind == 0:  # the G(n, p) edge draw
            yield "random", (), {}
        else:  # a trial's draw, or a selftest row
            size = {} if kind == 1 else {"size": pick.randrange(1, 6)}
            yield "integers", (pick.choice(WIDTHS),), size


def test_stream_equals_numpy_call_by_call():
    for seed, t in [*((seed, None) for seed in SEEDS), *SPAWNED]:
        mine = Stream(seed, t)
        key = () if t is None else (t,)
        theirs = np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=key)))
        for i, (method, args, kwargs) in enumerate(_calls(seed, 120)):
            want = getattr(theirs, method)(*args, **kwargs)
            if "size" in kwargs:
                want = want.tolist()
            assert getattr(mine, method)(*args, **kwargs) == want, (seed, t, i, method, args, kwargs)


@pytest.mark.parametrize("seed", [0, 5, 2**32 - 1, 2**32, 2**40 + 7, 2**64 + 3, 12 * 10**21, 2**130 + 3])
def test_stream_words_match_numpy(seed):
    trials = [*range(20), 2**32 - 2, 2**32 - 1, 2**32, 2**32 + 1, 2**64 - 1]
    got = stream_words(seed, np.array(trials, dtype=np.uint64), 6)
    for row, t in zip(got, trials):
        ss = np.random.SeedSequence(entropy=seed, spawn_key=(t,))
        assert row.tolist() == np.random.PCG64(ss).random_raw(6).tolist()


def _numpy_gnp(n: int, p: float, seed: int, kind: str):
    """The G(n, p) construction drawn by numpy itself: candidate edges in a
    fixed order, each kept when the next ``random()`` is below p."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=seed)))
    if kind == "digraph":
        return build_digraph(n, [(u + 1, v + 1) for u in range(n) for v in range(n) if u != v and rng.random() < p])
    g = build_undigraph(n, [(u + 1, v + 1) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
    return g if kind == "undirected" else to_symmetric_digraph(g)


@pytest.mark.parametrize("kind", ["undirected", "symmetric-digraph", "digraph"])
@pytest.mark.parametrize("n", [1, 2, 20, 64])
def test_gen_gnp_equals_numpy_draw(n, kind):
    for seed in (0, 3, 7, 2**32, 2**64 + 1):
        for p in (0.0, 0.3, 0.5, 1.0):
            assert gen_gnp(n, p, seed, kind) == _numpy_gnp(n, p, seed, kind), (seed, p)


def test_integers_rejects_wide_or_empty_ranges():
    with pytest.raises(ValueError):
        Stream(0).integers(2**32 + 1)
    with pytest.raises(ValueError):
        Stream(0).integers(0)
    with pytest.raises(TypeError):  # size is keyword-only, so no (lo, hi) form is left
        Stream(0).integers(3, 3)


@pytest.mark.parametrize("seed, t, name", [(-1, None, "seed"), (True, None, "seed"), (1.0, None, "seed"),
                                           (0, -1, "trial index"), (0, True, "trial index")])
def test_stream_checks_seed_and_trial_index(seed, t, name):
    with pytest.raises(ValueError, match=f"^{name} must be an integer >= 0"):
        Stream(seed, t)
