"""Exact reference computations for Hamiltonian cycle counts.

All counters return arbitrary-precision integers.  ``ham_bruteforce`` is the
literal permutation-cycle sum and serves as the independent oracle for the
subset dynamic program; both take any ``ContractedMatrix``, of which a
``DiGraph`` is one (a contracted matrix's diagonal may carry ones - those
entries can only matter for a 1x1 matrix, since a cycle product never repeats
an index).

Up to n = ``SMALL_N`` (12), ``ham_dp`` and ``permanent_ryser`` run in plain
Python, which at that size costs less than importing numpy.  Both are subset
dynamic programs on Python integers whose fixed-width lanes hold one count
per subset, so one integer operation updates all subsets at once, in exact
integers.  The Hamiltonian program keeps one such integer per path endpoint;
the permanent places the rows one at a time, and its lanes count the ways the
rows placed so far can take exactly a set of columns.  Both share the lane
widths and masks of ``_lanes``.

Above ``SMALL_N`` they are numpy kernels in fixed-width integers.
The dynamic program fills one popcount layer of (subset, endpoint) states at a
time, and stores for each endpoint only the subsets that contain it, so no
state is a structural zero: half the entries of a full endpoint-by-subset
table.  It builds the next layer a chunk of subsets at a time by adding the
rows of each endpoint's in-neighbours; the permanent is Ryser's
inclusion-exclusion over column subsets, also taken a chunk of subsets at a
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

import functools
import itertools
import math
from collections.abc import Callable, Iterator
from typing import TYPE_CHECKING

from .errors import GraphSizeError
from .graphs import ContractedMatrix, DiGraph, UndiGraph, row_sums, to_symmetric_digraph

if TYPE_CHECKING:
    from fractions import Fraction

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
# ham_dp takes this many subsets of a layer per chunk.
_LAYER_CHUNK = 4096


def ham_bruteforce(m: ContractedMatrix) -> int:
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


def ham_dp(m: ContractedMatrix) -> int:
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


def permanent_ryser(m: ContractedMatrix) -> int:
    """Exact permanent: the number of ways each row takes a distinct column.

    Up to ``SMALL_N`` a row-by-row subset DP in Python integers; above it
    Ryser's inclusion-exclusion over column subsets in numpy, whose chunks fix
    the high columns of a subset and take every set of low columns at once,
    so the per-row sums are a precomputed low table plus one column of a high
    table.  Limited to n <= 24.
    """
    n = m.n
    if n > DP_MAX_N:
        raise GraphSizeError(f"permanent_ryser supports n <= {DP_MAX_N} (2^n subsets); got n={n}")
    if n <= SMALL_N:
        return _permanent_small(m)
    return _from_residues(m, _permanent_residue)


@functools.cache  # k <= SMALL_N
def _lanes(k: int) -> tuple[int, tuple[int, ...]]:
    """The lane width in bits for subsets of k elements, whose lanes hold up
    to k!, and ``without``: lane S of ``without[w]`` is all ones iff w is not
    in S, so it is runs of 2^w lanes."""
    width = math.factorial(k).bit_length() // 8 + 1
    without = tuple(int.from_bytes((b"\xff" * (width << w) + bytes(width << w)) * (1 << k - w - 1), "little")
                    for w in range(k))
    return 8 * width, without


def _ham_dp_small(m: ContractedMatrix) -> int:
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
    bits, without = _lanes(k)
    preds = [[v for v in range(k) if rows[v + 1] >> w + 1 & 1] for w in range(k)]
    start = [(rows[0] >> w + 1 & 1) << (bits << w) for w in range(k)]
    f = start
    for _ in range(k - 1):
        f = [start[w] + ((sum(f[v] for v in preds[w]) & without[w]) << (bits << w)) for w in range(k)]
    return sum(f[v] >> bits * ((1 << k) - 1) for v in range(k) if rows[v + 1] & 1)


def _permanent_small(m: ContractedMatrix) -> int:
    """``permanent_ryser`` for n <= ``SMALL_N``, row by row in Python integers.

    Columns are bits of a subset S.  After rows 0..i-1, lane S of ``f`` counts
    the ways those rows can take exactly the columns S, one each (lanes with
    |S| != i are 0).  Row i takes a column c of its own that S lacks: the
    lanes without c, shifted up 2^c lanes, from S to S + {c}.  A lane holds
    n!, which bounds every lane (at most |S|! ways to fill S), so no lane
    carries into the next.
    """
    n = m.n
    bits, without = _lanes(n)
    f = 1  # lane 0: no row placed, no column taken
    for row in m.rows:
        f = sum((f & without[c]) << (bits << c) for c in range(n) if row >> c & 1)
    return f >> bits * ((1 << n) - 1)


def _from_residues(m: ContractedMatrix, residue: Callable[[ContractedMatrix, int], int]) -> int:
    """The exact value of a count that ``m``'s Bregman cap bounds.

    ``residue(m, 0)`` is the count modulo 2^64 and ``residue(m, p)`` the count
    modulo p.  Hamiltonian cycles are permutations with no zero entry, so
    count <= permanent <= cap; passes run, and combine by CRT, only until the
    moduli multiply past the cap (none when a zero row pins it to 0).
    """
    from .bounds import bregman_bound

    cap = bregman_bound(row_sums(m)).integer_cap
    count, modulus = 0, 1
    for p in (0,) + _PRIMES:
        if cap < modulus:
            break
        q = p or 1 << 64
        count += modulus * ((residue(m, p) - count) * pow(modulus, -1, q) % q)
        modulus *= q
    return count


def _ham_dp_residue(m: ContractedMatrix, p: int) -> int:
    """Hamiltonian cycles of ``m`` (n >= 2) modulo p, or modulo 2^64 if p = 0.

    The last layer of ``_ham_dp_layers`` holds, for each endpoint w, the paths
    from vertex 1 through every other vertex that end at w; those whose w has
    the arc back to vertex 1 close into cycles.
    """
    rows = m.rows
    for layer in _ham_dp_layers(m, p):
        pass
    return sum(int(layer[v, 0]) for v in range(m.n - 1) if rows[v + 1] & 1) % (p or 1 << 64)


def _ham_dp_layers(m: ContractedMatrix, p: int) -> Iterator[np.ndarray]:
    """The popcount layers L = 1..n-1 of the subset DP, modulo p (2^64 if 0).

    Vertex 1 is the start, and vertices 2..n are bits 0..k-1 of a subset.
    Layer L is a k x C(k-1, L-1) table: row w has one entry per L-subset S
    that contains w, in ascending order of S, and counts the paths from
    vertex 1 through exactly S that end at w.  Layer L comes from layer L-1 a
    chunk of the (L-1)-subsets T at a time, in ascending order:

    - expand: row v's entries for the chunk's T that hold v are the next ones
      in that row, so they spread into a k x chunk block, zero elsewhere;
    - add: the rows of w's in-neighbours sum to the paths that extend to w
      from each T, reduced modulo p;
    - compress: T -> T + {w} keeps the order of the T without w, so their
      sums are the next entries of row w of layer L.

    Only two layers and one chunk are alive at a time.
    """
    import numpy as np

    rows = m.rows
    k = m.n - 1
    preds = [[v for v in range(k) if rows[v + 1] >> w + 1 & 1] for w in range(k)]
    layer = np.array([[rows[0] >> w + 1 & 1] for w in range(k)], dtype=np.uint64)
    yield layer
    weights = (1 << np.arange(k, dtype=np.int32))[:, None]
    for size, subsets in zip(range(2, k + 1), _layer_masks(k)):
        nxt = np.empty((k, math.comb(k - 1, size - 1)), dtype=np.uint64)
        # Of the first `start` T, taken[v] hold v (read from row v of layer
        # L-1) and the other start - taken[v] filled row v of layer L.
        taken = [0] * k
        for start in range(0, len(subsets), _LAYER_CHUNK):
            bits = (subsets[start:start + _LAYER_CHUNK] & weights).astype(bool)
            width = bits.shape[1]
            counts = np.count_nonzero(bits, axis=1).tolist()
            block = np.zeros(bits.shape, dtype=np.uint64)
            block[bits] = np.concatenate([layer[v, taken[v]:taken[v] + c] for v, c in enumerate(counts)])
            sums = np.zeros_like(block)
            for row, vs in zip(sums, preds):
                for v in vs:
                    row += block[v]
            if p:
                sums %= np.uint64(p)
            kept, done = sums[~bits], 0
            for w, c in enumerate(counts):
                put, rest = start - taken[w], width - c
                nxt[w, put:put + rest] = kept[done:done + rest]
                taken[w] += c
                done += rest
        layer = nxt
        yield layer


def _permanent_residue(m: ContractedMatrix, p: int) -> int:
    """Ryser's formula for the permanent modulo p, or modulo 2^64 if p = 0.

    perm = sum over column sets S of (-1)^(n-|S|) prod_i (row i's sum over S).
    Each chunk fixes the subset h of the high columns and takes every subset
    of the low ``b`` columns at once.  Both tables list even-popcount subsets
    first, so a chunk's signed sum is the difference of two slice sums.
    """
    import numpy as np

    a = np.array(m.matrix(), dtype=np.uint64)
    n = m.n
    b = min(n, _CHUNK_BITS)
    low = _subset_sums(a[:, :b])
    high = _subset_sums(a[:, b:])
    half = 1 << (b - 1)
    odd_from = max(high.shape[1] // 2, 1)
    total = 0
    for h in range(high.shape[1]):
        prod = low[0] + high[0, h]
        for i in range(1, n):
            prod *= low[i] + high[i, h]
            if p:
                prod %= np.uint64(p)
        diff = int(prod[:half].sum()) - int(prod[half:].sum())
        total += -diff if (n + (h >= odd_from)) & 1 else diff
    return total % (p or 1 << 64)


def _subset_sums(cols: np.ndarray) -> np.ndarray:
    """Each row's sums over every subset of the columns of ``cols``: the
    even-size subsets in ascending order, then the odd-size ones.  Adding
    column j to the subsets of the columns below j flips their parity and
    keeps them above those subsets, so both halves double in place."""
    import numpy as np

    n, c = cols.shape
    sums = np.zeros((n, 1 << c), dtype=np.uint64)
    if c:
        even, odd = np.split(sums, 2, axis=1)
        odd[:, 0] = cols[:, 0]
        for j in range(1, c):
            size = 1 << (j - 1)
            np.add(odd[:, :size], cols[:, j:j + 1], out=even[:, size:2 * size])
            np.add(even[:, :size], cols[:, j:j + 1], out=odd[:, size:2 * size])
    return sums


def _layer_masks(k: int) -> Iterator[np.ndarray]:
    """For each subset size L >= 1, the L-subsets of k elements as ascending
    int32 bit masks.  Those with top element t are bit t plus the
    (L-1)-subsets below t, the first C(t, L-1) masks of the layer before."""
    import numpy as np

    layer = np.zeros(1, dtype=np.int32)
    for size in range(1, k + 1):
        layer = np.concatenate([layer[:math.comb(top, size - 1)] | np.int32(1 << top) for top in range(size - 1, k)])
        yield layer


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
    from fractions import Fraction

    from .estimator import enumerate_branches

    total = Fraction(0)
    for prob, outcome in enumerate_branches(g, policy):
        if outcome.value:
            total += prob * outcome.value
    return total
