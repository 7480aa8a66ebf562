"""Exact reference computations for Hamiltonian cycle counts.

All counters return arbitrary-precision integers.  ``ham_bruteforce`` is the
literal permutation-cycle sum and serves as the independent oracle for the
subset dynamic program; both take any ``ContractedMatrix``, of which a
``DiGraph`` is one (a contracted matrix's diagonal may carry ones - those
entries can only matter for a 1x1 matrix, since a cycle product never repeats
an index).  The permanent is evaluated with the
inclusion-exclusion over column subsets in Gray-code order.

``estimator_expectation`` walks every branch of an estimator's random
decision tree and returns the exact rational expectation, which must equal
the cycle count for any valid row-order policy.
"""
from __future__ import annotations

import itertools
from fractions import Fraction

from .errors import GraphSizeError
from .estimator import RowOrderPolicy, enumerate_branches
from .graphs import Adjacency, DiGraph, UndiGraph, to_symmetric_digraph

BRUTE_MAX_N = 10
DP_MAX_N = 24
EXPECTATION_MAX_N = 8


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
    rows = m.rows
    if n == 1:
        return rows[0] & 1
    size = 1 << n
    dp: list[list[int] | None] = [None] * size
    dp[1] = [1] + [0] * (n - 1)
    for mask in range(1, size, 2):
        counts = dp[mask]
        if counts is None:
            continue
        for v in range(n):
            c = counts[v]
            if not c:
                continue
            avail = rows[v] & ~mask
            while avail:
                b = avail & -avail
                w = b.bit_length() - 1
                nxt = dp[mask | b]
                if nxt is None:
                    nxt = dp[mask | b] = [0] * n
                nxt[w] += c
                avail ^= b
    last = dp[size - 1]
    if last is None:
        return 0
    return sum(last[v] for v in range(n) if rows[v] & 1)


def permanent_ryser(m: Adjacency) -> int:
    """Exact permanent via inclusion-exclusion over column subsets.

    Column subsets are visited in Gray-code order so each step updates the
    per-row sums by a single column.  Limited to n <= 24.
    """
    n = m.n
    if n > DP_MAX_N:
        raise GraphSizeError(f"permanent_ryser supports n <= {DP_MAX_N} (2^n subsets); got n={n}")
    rows = m.rows
    sums = [0] * n
    gray = 0
    size = 0
    total = 0
    for k in range(1, 1 << n):
        b = k & -k
        bit = b.bit_length() - 1
        gray ^= b
        if gray & b:
            size += 1
            for i in range(n):
                sums[i] += rows[i] >> bit & 1
        else:
            size -= 1
            for i in range(n):
                sums[i] -= rows[i] >> bit & 1
        prod = 1
        for s in sums:
            if not s:
                prod = 0
                break
            prod *= s
        if prod:
            total += prod if (n - size) % 2 == 0 else -prod
    return total


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
    total = Fraction(0)
    for prob, outcome in enumerate_branches(g, policy):
        if outcome.value:
            total += prob * outcome.value
    return total
