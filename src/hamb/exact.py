"""Exact reference computations for Hamiltonian cycle counts.

All counters return arbitrary-precision integers.  ``ham_bruteforce`` is the
literal permutation-cycle sum and serves as the independent oracle for the
subset dynamic program; both take any ``ContractedMatrix``, of which a
``DiGraph`` is one (a contracted matrix's diagonal may carry ones - those
entries can only matter for a 1x1 matrix, since a cycle product never repeats
an index).

Up to n = ``SMALL_N`` (12), ``ham_dp`` and ``permanent_ryser`` run in plain
Python, which at that size costs less than importing numpy.  The dynamic
program keeps, for each endpoint, one Python integer whose fixed-width lanes
are the path counts of every subset, so one integer addition updates all
subsets at once; the permanent is Ryser's formula, subset by subset, on the
bit rows.  Both compute in exact integers.

Above ``SMALL_N`` they are numpy kernels in fixed-width integers.
The dynamic program fills one popcount layer of (subset, endpoint) states at a
time by adding the rows of each endpoint's in-neighbours; the permanent is
Ryser's inclusion-exclusion over column subsets, taken a chunk of subsets at a
time.  Both run once in wrapping ``uint64`` arithmetic, which yields the
result modulo 2^64.  A Hamiltonian cycle is a permutation, so
count <= permanent <= the Bregman bound of :mod:`hamb.bounds`, and whenever
that bound's integer cap is below 2^64 the residue is the result.  Above it,
each kernel runs again modulo primes below 2^49, reducing after every step,
until the moduli multiply past the cap, and the residues combine by CRT.  No
step wraps in a prime pass: the dynamic program adds at most 23 residues, and
the permanent multiplies a residue by a row sum of at most 24 and sums at
most 2^12 residues at once.  For n <= 24 at most one prime is needed: no 0/1
matrix's cap exceeds 24! < 2^80.

``estimator_expectation`` walks every branch of an estimator's random
decision tree and returns the exact rational expectation, which must equal
the cycle count for any valid row-order policy.
"""
from __future__ import annotations

import itertools
import math
from collections.abc import Callable, Iterator
from fractions import Fraction
from typing import TYPE_CHECKING

from .bounds import bregman_bound
from .errors import GraphSizeError
from .graphs import Adjacency, DiGraph, UndiGraph, row_sums, to_symmetric_digraph

if TYPE_CHECKING:
    import numpy as np

    from .estimator import RowOrderPolicy

BRUTE_MAX_N = 10
DP_MAX_N = 24
EXPECTATION_MAX_N = 8
# ham_dp and permanent_ryser run in plain Python up to this n.
SMALL_N = 12
# Primes below 2^49 for the residue passes past 2^64.
_PRIMES = (2**49 - 81, 2**49 - 111)
# permanent_ryser takes 2^_CHUNK_BITS column subsets per chunk.
_CHUNK_BITS = 13


def ham_bruteforce(m: Adjacency) -> int:
    """Count directed Hamiltonian cycles by the defining permutation sum.

    Sums the product a[k1,k2] a[k2,k3] ... a[kn,k1] over all orderings of the
    remaining indices with k1 fixed to the first one; for a 1x1 matrix the
    count is the single entry.  Limited to n <= 10.
    """
    n = m.n
    if n > BRUTE_MAX_N:
        raise GraphSizeError(f"ham_bruteforce supports n <= {BRUTE_MAX_N} (factorial enumeration); got n={n}")
    rows = m.rows
    if n == 1:
        return rows[0] & 1
    total = 0
    for perm in itertools.permutations(range(1, n)):
        cur = 0
        ok = True
        for nxt in perm:
            if not rows[cur] >> nxt & 1:
                ok = False
                break
            cur = nxt
        if ok and rows[cur] & 1:
            total += 1
    return total


def ham_dp(m: Adjacency) -> int:
    """Count directed Hamiltonian cycles by subset dynamic programming.

    Counts directed paths from vertex 1 over (visited-set, endpoint) states
    and closes them with the arc back to vertex 1 at the full set, so each
    cycle is counted exactly once.  Limited to n <= 24 (2^n states).
    """
    n = m.n
    if n > DP_MAX_N:
        raise GraphSizeError(f"ham_dp supports n <= {DP_MAX_N} (2^n subset states); got n={n}")
    if n == 1:
        return m.rows[0] & 1
    if n <= SMALL_N:
        return _ham_dp_small(m)
    return _from_residues(m, _ham_dp_residue)


def permanent_ryser(m: Adjacency) -> int:
    """Exact permanent via inclusion-exclusion over column subsets.

    Each chunk fixes the high columns of a subset and takes every set of
    low columns at once, so the per-row sums are a precomputed low table
    plus one high row.  Limited to n <= 24.
    """
    n = m.n
    if n > DP_MAX_N:
        raise GraphSizeError(f"permanent_ryser supports n <= {DP_MAX_N} (2^n subsets); got n={n}")
    if n <= SMALL_N:
        return _permanent_small(m)
    return _from_residues(m, _permanent_residue)


def _ham_dp_small(m: Adjacency) -> int:
    """``ham_dp`` for 2 <= n <= ``SMALL_N``, in Python integers.

    Vertex 1 is the start, and vertices 2..n are bits 0..k-1 of a subset S.
    ``f[w]`` holds, in lane S, the paths from vertex 1 through exactly S that
    end at w.  The paths that extend to w from every S without w are the sum
    of ``f[v]`` over w's in-neighbours v, masked to the lanes without w and
    shifted up 2^w lanes, from S to S + {w}.  A lane holds k!, which bounds
    every lane of that sum (at most |S|! paths run through S), so no lane
    carries into the next.  Pass i fixes the subsets of i + 1 vertices.
    """
    rows, k = m.rows, m.n - 1
    width = math.factorial(k).bit_length() // 8 + 1
    bits = 8 * width
    # Lane S of without[w] is all ones iff w is not in S: runs of 2^w lanes.
    without = [int.from_bytes((b"\xff" * (width << w) + bytes(width << w)) * (1 << k - w - 1), "little")
               for w in range(k)]
    preds = [[v for v in range(k) if rows[v + 1] >> w + 1 & 1] for w in range(k)]
    start = [(rows[0] >> w + 1 & 1) << (bits << w) for w in range(k)]
    f = start
    for _ in range(k - 1):
        f = [start[w] + ((sum(f[v] for v in preds[w]) & without[w]) << (bits << w)) for w in range(k)]
    return sum(f[v] >> bits * ((1 << k) - 1) for v in range(k) if rows[v + 1] & 1)


def _permanent_small(m: Adjacency) -> int:
    """``permanent_ryser`` for n <= ``SMALL_N``: Ryser's formula in Python integers."""
    n = m.n
    total = 0
    for s in range(1, 1 << n):
        prod = 1
        for row in m.rows:
            prod *= (row & s).bit_count()
            if not prod:
                break
        total += -prod if (n - s.bit_count()) & 1 else prod
    return total


def _from_residues(m: Adjacency, residue: Callable[[Adjacency, int], int]) -> int:
    """The exact value of a count that ``m``'s Bregman cap bounds.

    ``residue(m, 0)`` is the count modulo 2^64 and ``residue(m, p)`` the count
    modulo p.  Hamiltonian cycles are permutations with no zero entry, so
    count <= permanent <= cap; passes run, and combine by CRT, only until the
    moduli multiply past the cap (none when a zero row pins it to 0).
    """
    cap = bregman_bound(row_sums(m)).integer_cap
    count, modulus = 0, 1
    for p in (0,) + _PRIMES:
        if cap < modulus:
            break
        q = p or 1 << 64
        count += modulus * ((residue(m, p) - count) * pow(modulus, -1, q) % q)
        modulus *= q
    return count


def _ham_dp_residue(m: Adjacency, p: int) -> int:
    """Hamiltonian cycles of ``m`` (n >= 2) modulo p, or modulo 2^64 if p = 0.

    Vertex 1 is the start.  The table for popcount layer L has one row per
    endpoint w in 2..n and one column per L-subset of 2..n in ascending
    order; entry (w, S) counts the paths from vertex 1 through exactly S
    that end at w.  Adding the rows of w's in-neighbours gives, for every
    (L-1)-subset T, the paths that extend to w; those with w outside T fill
    the columns of the L-subsets S = T + {w}.  Dropping bit w from the
    subsets that hold it keeps their order, so the layers' bit masks say
    where every sum goes.  Only two layers are alive at a time.
    """
    import numpy as np

    rows = m.rows
    k = m.n - 1
    preds = [[v for v in range(k) if rows[v + 1] >> w + 1 & 1] for w in range(k)]
    prev = np.diag(np.array([rows[0] >> w + 1 & 1 for w in range(k)], dtype=np.uint64))
    layers = _layer_bits(k)
    lower = next(layers)
    for bits in layers:
        sums = np.zeros_like(prev)
        for row, vs in zip(sums, preds):
            for v in vs:
                row += prev[v]
        if p:
            sums %= np.uint64(p)
        prev = np.zeros(bits.shape, dtype=np.uint64)
        prev[bits] = sums[~lower]
        lower = bits
    return sum(int(prev[v, 0]) for v in range(k) if rows[v + 1] & 1) % (p or 1 << 64)


def _permanent_residue(m: Adjacency, p: int) -> int:
    """Ryser's formula for the permanent modulo p, or modulo 2^64 if p = 0.

    perm = sum over column sets S of (-1)^(n-|S|) prod_i (row i's sum over S).
    The low ``b`` columns' subsets are sorted even-popcount first, so a
    chunk's signed sum is the difference of two slice sums.
    """
    import numpy as np

    a = np.array(m.matrix(), dtype=np.uint64)
    n = m.n
    b = min(n, _CHUNK_BITS)
    low_bits = _subset_bits(b)
    parity = low_bits.sum(axis=1) & np.uint64(1)
    low = a[:, :b] @ low_bits[np.argsort(parity, kind="stable")].T
    high_bits = _subset_bits(n - b)
    high = high_bits @ a[:, b:].T
    signs = (n - high_bits.sum(axis=1).astype(np.int64)) % 2
    half = 1 << (b - 1)
    total = 0
    for h in range(len(high)):
        sums = low + high[h][:, None]
        prod = sums[0]
        for row in sums[1:]:
            prod *= row
            if p:
                prod %= np.uint64(p)
        diff = int(prod[:half].sum()) - int(prod[half:].sum())
        total += -diff if signs[h] else diff
    return total % (p or 1 << 64)


def _subset_bits(k: int) -> np.ndarray:
    """Row s holds the k bits of s, as 0/1 uint64 (a 1 x 0 array for k = 0)."""
    import numpy as np

    return (np.arange(1 << k)[:, None] >> np.arange(k) & 1).astype(np.uint64)


def _layer_bits(k: int) -> Iterator[np.ndarray]:
    """For each subset size L >= 1, a k x C(k, L) boolean array whose column
    j holds the bits of the j-th L-subset of k elements in ascending order."""
    import numpy as np

    counts = np.zeros(1 << k, dtype=np.int8)
    masks = np.arange(1 << k)
    for j in range(k):
        counts += (masks >> j & 1).astype(np.int8)
    order = np.argsort(counts, kind="stable")
    del masks, counts
    ends = list(itertools.accumulate(math.comb(k, size) for size in range(k + 1)))
    for start, stop in zip(ends, ends[1:]):
        layer = order[start:stop]
        bits = np.empty((k, len(layer)), dtype=bool)
        for j in range(k):
            bits[j] = layer >> j & 1
        yield bits


def ham_undirected(g: UndiGraph, method: str = "dp") -> int:
    """Count undirected Hamiltonian cycles through the doubled directed image.

    Each undirected cycle corresponds to exactly two directed traversals of
    the symmetric image, so the directed count halves exactly.  Requires
    n >= 3: on fewer vertices a doubled edge is not a simple cycle.
    """
    if g.n < 3:
        raise ValueError(f"undirected cycle counting needs n >= 3, got n={g.n}")
    counter = {"dp": ham_dp, "brute": ham_bruteforce}[method]
    doubled = counter(to_symmetric_digraph(g))
    if doubled % 2:
        raise AssertionError("directed count of a symmetric image must be even")
    return doubled // 2


def estimator_expectation(g: DiGraph, policy: RowOrderPolicy) -> Fraction:
    """Exact expectation of a randomized trial under the given policy.

    Enumerates every branch of the decision tree and sums probability times
    value in exact rational arithmetic; for any valid policy this equals the
    Hamiltonian cycle count.  Limited to n <= 8.
    """
    if g.n > EXPECTATION_MAX_N:
        raise GraphSizeError(
            f"estimator_expectation supports n <= {EXPECTATION_MAX_N} (decision-tree enumeration); got n={g.n}"
        )
    from .estimator import enumerate_branches

    total = Fraction(0)
    for prob, outcome in enumerate_branches(g, policy):
        if outcome.value:
            total += prob * outcome.value
    return total
