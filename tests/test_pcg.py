"""The numpy-free SeedSequence/PCG64 replica against numpy itself."""
from __future__ import annotations

import random

import numpy as np
import pytest

from hamb import build_digraph, build_undigraph, gen_gnp, to_symmetric_digraph
from hamb.pcg import Stream

SEEDS = [*range(301), 2**32 - 1, 2**32, 2**64, 2**128 + 5]
# Widths for integers(): 1 reads nothing, 2**32 reads a raw uint32 half, and
# 2**31 + 3 rejects almost half of its draws.
WIDTHS = [1, 2, 3, 7, 64, 2**31 + 3, 2**32 - 1, 2**32]


def _calls(seed: int, count: int):
    """A mixed sequence of (method, args, kwargs) calls, drawn from ``seed``."""
    pick = random.Random(seed)
    for _ in range(count):
        kind = pick.randrange(4)
        if kind == 0:
            yield "random", (), {}
        elif kind == 1:
            yield "uniform", (pick.choice([0.0, -1.5, 0.2]), pick.choice([1.0, 0.8, 1e6])), {}
        else:
            lo = pick.randrange(-5, 50)
            size = {} if kind == 2 else {"size": pick.randrange(1, 6)}
            yield "integers", (lo, lo + pick.choice(WIDTHS)), size


def test_stream_equals_numpy_call_by_call():
    for seed in SEEDS:
        mine, theirs = Stream(seed), np.random.default_rng(seed)
        for i, (method, args, kwargs) in enumerate(_calls(seed, 120)):
            want = getattr(theirs, method)(*args, **kwargs)
            if "size" in kwargs:
                want = want.tolist()
            assert getattr(mine, method)(*args, **kwargs) == want, (seed, i, method, args, kwargs)


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
        Stream(0).integers(0, 2**32 + 1)
    with pytest.raises(ValueError):
        Stream(0).integers(3, 3)
