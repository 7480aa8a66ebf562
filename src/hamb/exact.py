"""Exact reference computations for Hamiltonian cycle counts.

All counters return arbitrary-precision integers.  ``ham_bruteforce`` is the
permutation-cycle sum, taken depth first over the paths from vertex 1, and
serves as the independent oracle for the subset dynamic program.  Every
counter takes any ``ContractedMatrix`` and reads its bit rows: a ``DiGraph``
is one, and so is an ``UndiGraph``, whose rows are those of its doubled
image, so a counter given one counts that image (a contracted matrix's
diagonal may carry ones - those entries can only matter for a 1x1 matrix,
since a cycle product never repeats an index).

Up to n = ``SMALL_N`` (12), ``ham_dp`` and ``permanent_ryser`` run in plain
Python, which at that size costs less than importing numpy.  Both are subset
dynamic programs on Python integers whose fixed-width lanes hold one count
per subset, so one integer operation updates all subsets at once, in exact
integers.  The Hamiltonian program keeps one such integer per path endpoint;
the permanent places the rows one at a time, and its lanes count the ways the
rows placed so far can take exactly a set of columns.  Both share the lane
widths and masks of ``_lanes``.

Above ``SMALL_N`` they are numpy kernels.
The dynamic program fills one popcount layer of (subset, endpoint) states at a
time, and stores for each endpoint only the subsets that contain it, so no
state is a structural zero: half the entries of a full endpoint-by-subset
table.  It builds the next layer a chunk of subsets at a time by adding the
rows of each endpoint's in-neighbours, and frees each layer as it reads it, so
about one layer is alive at a time.  Each layer is ``uint32``, ``uint64`` or
Python integers, wide enough for every entry it can hold (``_ham_dp_layers``
gives the rule), so no layer wraps and one pass is exact.
The permanent is Ryser's inclusion-exclusion over column subsets, also taken a
chunk of subsets at a time, whose products wrap in ``uint64`` and so yield the
result modulo 2^64.  It is at most the Bregman bound of :mod:`hamb.bounds`,
and whenever that bound's integer cap is below 2^64 the residue is the
result.  Above it, the kernel runs again modulo one prime below 2^49,
reducing after every product, and the two residues combine by CRT.  No step
wraps in the prime pass: it multiplies a residue by a row sum of at most 24
and sums at most 2^12 residues at once.  For n <= 24 one prime is enough: no
0/1 matrix's cap exceeds 24! < 2^80, and 2^64 times the prime is about
2^113.

``estimator_expectation`` walks every branch of an estimator's random
decision tree and returns the exact rational expectation, which must equal
the cycle count for any valid row-order policy.
"""
from __future__ import annotations

import functools
import math
from collections.abc import Iterator
from typing import TYPE_CHECKING

from .errors import GraphSizeError
from .graphs import ContractedMatrix, UndiGraph, row_sums

if TYPE_CHECKING:
    from fractions import Fraction

    import numpy as np

    from .estimator import RowOrderPolicy

BRUTE_MAX_N = 10
DP_MAX_N = 24
EXPECTATION_MAX_N = 8
# ham_dp and permanent_ryser run in plain Python up to this n.
SMALL_N = 12
# The prime below 2^49 for the permanent's residue pass past 2^64.
_PRIME = 2**49 - 81
# permanent_ryser takes 2^_CHUNK_BITS column subsets per chunk.
_CHUNK_BITS = 13
# ham_dp takes this many subsets of a layer per chunk.
_LAYER_CHUNK = 4096


def ham_bruteforce(m: ContractedMatrix) -> int:
    """Count directed Hamiltonian cycles by the defining permutation sum.

    Sums the product a[k1,k2] a[k2,k3] ... a[kn,k1] over all orderings of the
    remaining indices with k1 fixed to the first one, depth first: a path from
    the first index grows by each unvisited out-neighbour, so a prefix whose
    product is 0 is skipped, and a full path adds its closing entry.  For a
    1x1 matrix the count is the single entry.  Limited to n <= 10.
    """
    n = m.n
    if n > BRUTE_MAX_N:
        raise GraphSizeError(f"ham_bruteforce supports n <= {BRUTE_MAX_N} (factorial enumeration); got n={n}")
    rows, full = m.rows, (1 << n) - 1
    total = 0
    stack = [(0, 1)]  # (endpoint, visited set) of each path from index 0
    while stack:
        cur, seen = stack.pop()
        if seen == full:
            total += rows[cur] & 1
            continue
        nxt = rows[cur] & ~seen
        while nxt:
            low = nxt & -nxt
            stack.append((low.bit_length() - 1, seen | low))
            nxt ^= low
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
    return _ham_dp_numpy(m) if all(m.rows) else 0  # a vertex with no out-arc closes no cycle


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
    from .bounds import bregman_bound

    cap = bregman_bound(row_sums(m)).integer_cap
    count = _permanent_residue(m, 0) if cap else 0
    if cap >> 64:
        count += (_permanent_residue(m, _PRIME) - count) * pow(1 << 64, -1, _PRIME) % _PRIME << 64
    return count


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


def _ham_dp_numpy(m: ContractedMatrix) -> int:
    """Hamiltonian cycles of ``m`` (n >= 2) from the numpy subset DP.

    The last layer of ``_ham_dp_layers`` holds, for each endpoint w, the paths
    from vertex 1 through every other vertex that end at w; those whose w has
    the arc back to vertex 1 close into cycles.
    """
    rows = m.rows
    for layer in _ham_dp_layers(m):
        pass
    return sum(int(layer[v][0][0]) for v in range(m.n - 1) if rows[v + 1] & 1)


def _ham_dp_layers(m: ContractedMatrix) -> Iterator[list[list[np.ndarray]]]:
    """The popcount layers L = 1..n-1 of the subset DP.

    Vertex 1 is the start, and vertices 2..n are bits 0..k-1 of a subset.
    Layer L has k rows: row w has one entry per L-subset S that contains w,
    in ascending order of S, and counts the paths from vertex 1 through
    exactly S that end at w.  A row is a list of segments, which concatenate
    to its entries.  Layer L comes from layer L-1 a chunk of the
    (L-1)-subsets T at a time, in ascending order:

    - expand: row v's entries for the chunk's T that hold v are the next ones
      in that row, so they are taken off its front and spread into a
      k x chunk block, zero elsewhere;
    - add: for each w, the rows of w's in-neighbours sum to the paths that
      extend to w from each T, in one reused buffer;
    - compress: T -> T + {w} keeps the order of the T without w, so their
      sums are the next segment of row w of layer L.

    Each row of layer L-1 is read, and each row of layer L written, strictly
    in order, so a segment is freed once it has been read: what is alive is
    the unread part of one layer, the written part of the next and one chunk,
    about the larger of the two layers.  The consumer must read a layer before
    it asks for the next one, which empties it.  Every chunk array is dropped
    at the end of its chunk: one still bound while the next chunk allocates,
    or while a layer is yielded, would be a second chunk alive, and the
    process's peak RSS would hold both.

    An entry of layer L counts orderings of the L-1 vertices of S other than
    w, so it is at most (L-1)!; so is each sum of the add step, which counts
    the paths through its T that end at an in-neighbour of w.  Layer L (its
    segments, the chunk's block and the sums) therefore takes one of three
    widths, and no entry wraps:

    - ``uint32`` when (L-1)! < 2^32 (L <= 13) and layer L-1 spans more than
      one chunk.  It takes half the bytes of ``uint64``, and most of the
      middle layers, which set the peak, are of this kind.  A layer built
      from one chunk stays ``uint64``, which covers every layer for n <= 15:
      it would save less than the numpy code pages that the ``uint32`` loops
      map into the process (with every layer narrowed, an n = 13 count
      peaked ~0.03 MB higher);
    - ``uint64`` otherwise while (L-1)! < 2^64 (L <= 21);
    - ``object``, exact Python integers, above that: layers 22 and 23, at
      n = 23 and 24, which hold at most 23 x C(22, 21) = 506 entries.  Their
      sums cannot view the reused buffer, so each chunk takes a new array.
    """
    import numpy as np

    rows = m.rows
    k = m.n - 1
    preds = [[v for v in range(k) if rows[v + 1] >> w + 1 & 1] for w in range(k)]
    layer = [[np.array([rows[0] >> w + 1 & 1], dtype=np.uint64)] for w in range(k)]
    yield layer
    weights = (1 << np.arange(k, dtype=np.int32))[:, None]
    buf = np.empty(_LAYER_CHUNK, dtype=np.uint64)
    # Layer L = size + 1 is built from the C(k, size) subsets of size `size`.
    dtypes = [np.uint32 if math.comb(k, size) > _LAYER_CHUNK and math.factorial(size) < 1 << 32
              else np.uint64 if math.factorial(size) < 1 << 64 else object for size in range(1, k)]
    for dtype, subsets in zip(dtypes, _layer_masks(k)):
        nxt = [[] for _ in range(k)]
        for start in range(0, len(subsets), _LAYER_CHUNK):
            bits = (subsets[start:start + _LAYER_CHUNK] & weights).astype(bool)
            width = bits.shape[1]
            counts = np.count_nonzero(bits, axis=1).tolist()
            block = np.zeros(bits.shape, dtype=dtype)
            block[bits] = np.concatenate([seg for row, c in zip(layer, counts) for seg in _take(row, c)])
            free, sums = ~bits, np.empty(width, dtype=object) if dtype is object else buf.view(dtype)[:width]
            for w, vs in enumerate(preds):
                if counts[w] == width:
                    continue
                sums[:] = block[vs[0]] if vs else 0
                for v in vs[1:]:
                    sums += block[v]
                nxt[w].append(sums[free[w]])
            del bits, block, free, sums
        layer = nxt
        yield layer


def _take(row: list[np.ndarray], c: int) -> list[np.ndarray]:
    """Take the first c entries off the front of a row of segments."""
    out = []
    while c:
        seg = row[0]
        if len(seg) > c:
            out.append(seg[:c])
            row[0] = seg[c:]
            break
        out.append(row.pop(0))
        c -= len(seg)
    return out


def _permanent_residue(m: ContractedMatrix, p: int) -> int:
    """Ryser's formula for the permanent modulo p, or modulo 2^64 if p = 0.

    perm = sum over column sets S of (-1)^(n-|S|) prod_i (row i's sum over S).
    Each chunk fixes the subset h of the high columns and takes every subset
    of the low ``b`` columns at once.  Both tables list even-popcount subsets
    first, so a chunk's signed sum is the difference of two slice sums.
    """
    import numpy as np

    n = m.n
    a = np.array(m.rows, dtype=np.uint64)[:, None] >> np.arange(n, dtype=np.uint64) & np.uint64(1)
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
    """Count undirected Hamiltonian cycles by counting the directed ones of ``g``.

    ``g``'s rows are those of its doubled directed image, and each undirected
    cycle corresponds to exactly two directed traversals of that image, so the
    directed count halves exactly.  Requires n >= 3: on fewer vertices a
    doubled edge is not a simple cycle.
    """
    if g.n < 3:
        raise ValueError(f"undirected cycle counting needs n >= 3, got n={g.n}")
    doubled = {"dp": ham_dp, "brute": ham_bruteforce}[method](g)
    if doubled % 2:
        raise AssertionError("directed count of a symmetric image must be even")
    return doubled // 2


def estimator_expectation(g: ContractedMatrix, policy: RowOrderPolicy) -> Fraction:
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
