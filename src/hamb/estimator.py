"""Randomized unbiased estimators of the directed Hamiltonian cycle count.

One trial commits to a random permutation arc by arc.  The working matrix
starts as the adjacency matrix; after a row is expanded, the chosen column is
swapped with the column sitting at the expanded row's own position and both
the row and that position are deleted.  The swap keeps one invariant alive:
for every remaining row, the column at the row's own position is exactly the
arc that would close the partial cycle too early, so excluding it makes every
surviving branch a full Hamiltonian cycle.  The trial value is the product of
the candidate-set sizes, an unbiased estimate of the cycle count: a cycle
selected with probability 1/x contributes value x.

Row order is a policy:

* ``ascending``   - always expand the top row (classic fixed order),
* ``follow-path`` - expand the endpoint of the partial cycle, i.e. a
  self-avoiding walk from the start vertex with a final closing test,
* ``table``       - look the next row position up in a fixed integer matrix,
  indexed by the step and the previously chosen column position.

Monte Carlo aggregation keeps mean and sample variance as exact rationals;
floats appear only in reporting fields.  Trial ``t`` always draws from
``trial_stream(seed, t)``: ``SeedSequence(entropy=seed, spawn_key=(t,))``
feeding PCG64.

``trial_with_policy`` runs one trial in plain Python; it is the reference path,
and ``enumerate_branches`` replays it.  ``estimate`` runs the trials in
lockstep blocks of ``_BLOCK`` = 1024 trials instead: numpy arrays hold every
trial's working state, each step draws for all live trials at once, and trials
whose candidate set empties drop out of the block.  The working rows and column
labels are ``uint8`` (n <= 64), and so is the running count that ranks each
trial's candidates.  The block computes its trials' PCG64 words itself,
following numpy's SeedSequence, PCG64 and ``Generator.integers`` algorithms,
and reads each ``uint64`` word as two ``uint32`` halves through a
little-endian view, low half first on any host, as ``integers`` consumes them.
So every trial takes exactly the value the reference path gives it and the
report equals, byte for byte, the report of running the trials one at a time.
"""
from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import PolicyError
from .graphs import CycleWitness, DiGraph, check_integer


@dataclass(frozen=True)
class RowOrderPolicy:
    """Strategy for which row the estimator expands at each step."""

    kind: str
    start: int | None = None
    table: tuple[tuple[int, ...], ...] | None = None

    def __post_init__(self):
        if self.kind == "ascending":
            if self.start is not None or self.table is not None:
                raise PolicyError("ascending policy takes no parameters")
        elif self.kind == "follow-path":
            if self.table is not None:
                raise PolicyError("follow-path policy takes no table")
            if not isinstance(self.start, int) or self.start < 1:
                raise PolicyError(f"follow-path start must be a vertex label >= 1, got {self.start!r}")
        elif self.kind == "table":
            if self.start is not None:
                raise PolicyError("table policy takes no start vertex")
            self._validate_table()
        else:
            raise PolicyError(f"unknown policy kind {self.kind!r}")

    def _validate_table(self):
        table = self.table
        if not table:
            raise PolicyError("table policy needs a non-empty square matrix")
        n = len(table)
        for i, row in enumerate(table):
            if len(row) != n:
                raise PolicyError(f"table row {i + 1} has {len(row)} entries, expected {n}")
            hi = n - i
            for j, b in enumerate(row):
                if not isinstance(b, int) or not 1 <= b <= hi:
                    raise PolicyError(
                        f"table entry ({i + 1},{j + 1}) = {b!r} outside 1..{hi}"
                    )

    @classmethod
    def ascending(cls) -> "RowOrderPolicy":
        return cls("ascending")

    @classmethod
    def follow_path(cls, start: int) -> "RowOrderPolicy":
        return cls("follow-path", start=start)

    @classmethod
    def from_table(cls, rows: Sequence[Sequence[int]]) -> "RowOrderPolicy":
        table = tuple(tuple(int(x) for x in row) for row in rows)
        return cls("table", table=table)

    def describe(self) -> str:
        if self.kind == "ascending":
            return "ascending"
        if self.kind == "follow-path":
            return f"follow-path:{self.start}"
        digest = hashlib.sha256(repr(self.table).encode()).hexdigest()[:8]
        return f"table:{len(self.table)}x{len(self.table)}:{digest}"


@dataclass(frozen=True)
class TrialOutcome:
    """One estimator run: big-integer value, optional cycle, multipliers."""

    value: int
    witness: CycleWitness | None
    p_factors: tuple[int, ...]


@dataclass(frozen=True)
class EstimateReport:
    """Aggregated Monte Carlo statistics over independent trials."""

    trials: int
    sum: int
    mean: Fraction
    sample_variance: Fraction
    standard_error: float
    zero_fraction: float
    seed: int
    policy: str


def trial_stream(seed: int, trial_index: int) -> np.random.Generator:
    """Deterministic sub-stream for one trial.

    This is the documented splittable construction:
    ``Generator(PCG64(SeedSequence(entropy=seed, spawn_key=(trial_index,))))``.
    """
    ss = np.random.SeedSequence(
        entropy=check_integer(seed, "seed"), spawn_key=(check_integer(trial_index, "trial index"),)
    )
    return np.random.Generator(np.random.PCG64(ss))


def _check_policy(g: DiGraph, policy: RowOrderPolicy) -> None:
    if policy.kind == "follow-path" and policy.start > g.n:
        raise PolicyError(f"follow-path start {policy.start} out of range for n={g.n}")
    if policy.kind == "table" and len(policy.table) != g.n:
        k = len(policy.table)
        raise PolicyError(f"table policy is {k}x{k} but the graph has n={g.n}")


def _bit_positions(x: int) -> list[int]:
    out = []
    while x:
        b = x & -x
        out.append(b.bit_length() - 1)
        x ^= b
    return out


def _cycle_order(succ: dict[int, int], n: int) -> list[int]:
    order = [0]
    cur = succ[0]
    while cur != 0 and len(order) <= n:
        order.append(cur)
        cur = succ[cur]
    if cur != 0 or len(order) != n:
        raise AssertionError("chosen arcs did not form a single full cycle")
    return order


def _run_matrix(g: DiGraph, policy: RowOrderPolicy, choose: Callable[[list[int]], int]):
    """Matrix-form trial for the table policy; ``ascending`` is the all-ones
    table, so it always expands the top row.

    Returns (p_factors_so_far, cycle_vertex_order_or_None).  ``choose`` gets
    the candidate column positions in ascending order and returns one of them.
    """
    n, adj = g.n, g.rows
    rows = list(range(n))      # remaining row vertices, by position
    labels = list(range(n))    # remaining column labels, by position
    succ: dict[int, int] = {}
    ps: list[int] = []
    k = 0                      # previously chosen column position
    table = policy.table
    for step in range(n):
        m = n - step
        gpos = (table[step][k] if table else 1) - 1
        u = rows[gpos]
        row = adj[u]
        if m == 1:
            closing = row >> labels[0] & 1
            ps.append(closing)
            if not closing:
                return ps, None
            succ[u] = labels[0]
            return ps, _cycle_order(succ, n)
        cand = [p for p in range(m) if p != gpos and row >> labels[p] & 1]
        if not cand:
            return ps, None
        J = choose(cand)
        ps.append(len(cand))
        succ[u] = labels[J]
        k = J
        labels[gpos], labels[J] = labels[J], labels[gpos]
        del rows[gpos]
        del labels[gpos]
    raise AssertionError("unreachable")


def _run_walk(g: DiGraph, start0: int, choose: Callable[[list[int]], int]):
    """Self-avoiding-walk trial for the follow-path policy.

    Step 1 offers every out-neighbor of the start; later steps offer the
    unvisited out-neighbors of the current endpoint; the last multiplier is
    the closing arc back to the start (1 or 0).
    """
    n, adj = g.n, g.rows
    visited = 1 << start0
    cur = start0
    order = [start0]
    ps: list[int] = []
    for _ in range(n - 1):
        avail = adj[cur] & ~visited
        if not avail:
            return ps, None
        cand = _bit_positions(avail)
        v = choose(cand)
        ps.append(len(cand))
        visited |= 1 << v
        order.append(v)
        cur = v
    closing = adj[cur] >> start0 & 1
    ps.append(closing)
    return ps, (order if closing else None)


def _run(g: DiGraph, policy: RowOrderPolicy, choose: Callable[[list[int]], int]):
    if policy.kind == "follow-path":
        return _run_walk(g, policy.start - 1, choose)
    return _run_matrix(g, policy, choose)


def _make_outcome(g: DiGraph, ps: list[int], cycle: list[int] | None) -> TrialOutcome:
    factors = tuple(ps) + (0,) * (g.n - len(ps))
    value = 1
    for p in factors:
        value *= p
    witness = None
    if cycle is not None:
        witness = CycleWitness.canonical([v + 1 for v in cycle], directed=True)
    return TrialOutcome(value=value, witness=witness, p_factors=factors)


def trial_with_policy(g: DiGraph, policy: RowOrderPolicy, stream: np.random.Generator) -> TrialOutcome:
    """One randomized trial under the given row-order policy."""
    _check_policy(g, policy)
    ps, cycle = _run(g, policy, lambda cand: cand[int(stream.integers(len(cand)))])
    return _make_outcome(g, ps, cycle)


class _Probe(Exception):
    """A replayed trial reached a choice point beyond its prefix."""

    def __init__(self, width: int):
        self.width = width


def _replay_chooser(prefix: tuple[int, ...], denom: list[int]):
    it = iter(prefix)

    def choose(cand: list[int]) -> int:
        try:
            idx = next(it)
        except StopIteration:
            raise _Probe(len(cand)) from None
        denom[0] *= len(cand)
        return cand[idx]

    return choose


def enumerate_branches(g: DiGraph, policy: RowOrderPolicy) -> Iterator[tuple[Fraction, TrialOutcome]]:
    """Exhaustively enumerate the estimator's random decision tree.

    Yields (probability, outcome) for every branch; the probability is the
    exact product of 1/|candidates| along the branch.  Runs the very same
    trial code, replayed along each choice prefix, so what it enumerates is
    what the randomized trials do.
    """
    _check_policy(g, policy)
    stack: list[tuple[int, ...]] = [()]
    while stack:
        prefix = stack.pop()
        denom = [1]
        try:
            ps, cycle = _run(g, policy, _replay_chooser(prefix, denom))
        except _Probe as probe:
            stack.extend(prefix + (idx,) for idx in range(probe.width - 1, -1, -1))
            continue
        yield Fraction(1, denom[0]), _make_outcome(g, ps, cycle)


# --- Lockstep kernel -------------------------------------------------------
#
# The words of ``trial_stream(seed, t)`` are computed the way numpy computes
# them: SeedSequence's entropy pool (numpy/random/bit_generator.pyx), PCG64's
# XSL-RR generator (pcg64.h), and ``Generator.integers(w)``, which is Lemire's
# method on the uint32 halves, low half first, of PCG64's raw outputs
# (distributions.c) and reads nothing when ``w == 1``.

_BLOCK = 1024  # trials per lockstep block; 2048 raises a process's peak RSS
_M32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT_HI, _PCG_MULT_LO = 0x2360ED051FC65DA4, 0x4385DF649FCCF645
# Lemire rejects a draw of width w when the low half of x * w is below 2**32 % w.
_LEMIRE_THRESHOLD = np.array([0] + [(1 << 32) % w for w in range(1, 65)], dtype=np.uint64)


def _hashmix(value, hash_const: int, mult: int = _MULT_A):
    """SeedSequence's hashmix on ints or uint64 arrays; returns the next constant too."""
    value = value ^ hash_const
    hash_const = hash_const * mult & _M32
    value = value * hash_const & _M32
    return value ^ value >> 16, hash_const


def _mix(x, y):
    value = (_MIX_L * x - _MIX_R * y) & _M32
    return value ^ value >> 16


def _absorb(pool: list, hash_const: int, word) -> tuple[list, int]:
    """Mix one entropy word past the pool size into every pool word."""
    out = []
    for p in pool:
        h, hash_const = _hashmix(word, hash_const)
        out.append(_mix(p, h))
    return out, hash_const


def _seed_pool(seed: int) -> tuple[list[int], int]:
    """SeedSequence pool after the run entropy ``seed``, shared by every trial.

    A spawn key pads the run entropy to the pool size, so the trial index is
    always absorbed after it, by :func:`_absorb`.
    """
    words = [seed >> 32 * i & _M32 for i in range(max(_POOL_SIZE, -(-seed.bit_length() // 32)))]
    hash_const = _INIT_A
    pool = []
    for word in words[:_POOL_SIZE]:
        value, hash_const = _hashmix(word, hash_const)
        pool.append(value)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                h, hash_const = _hashmix(pool[src], hash_const)
                pool[dst] = _mix(pool[dst], h)
    for word in words[_POOL_SIZE:]:
        pool, hash_const = _absorb(pool, hash_const, word)
    return pool, hash_const


def _mul_add128(hi, lo, inc_hi, inc_lo):
    """One PCG64 LCG step, state * multiplier + inc mod 2**128, on uint64 halves."""
    a0, a1 = lo & _M32, lo >> 32
    b0, b1 = _PCG_MULT_LO & _M32, _PCG_MULT_LO >> 32
    p01, p10 = a0 * b1, a1 * b0
    mid = (a0 * b0 >> 32) + (p01 & _M32) + (p10 & _M32)
    carry = a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)
    lo_out = lo * _PCG_MULT_LO + inc_lo
    hi_out = hi * _PCG_MULT_LO + lo * _PCG_MULT_HI + carry + inc_hi + (lo_out < inc_lo)
    return hi_out, lo_out


def _stream_words(seed: int, trials: np.ndarray, count: int) -> np.ndarray:
    """The first ``count`` raw outputs of ``trial_stream(seed, t)``, per row.

    Equals ``np.random.PCG64(SeedSequence(entropy=seed, spawn_key=(t,))).
    random_raw(count)`` for each uint64 ``t`` in ``trials``.
    """
    pool, hash_const = _seed_pool(seed)
    pool, next_const = _absorb(pool, hash_const, trials & _M32)
    wide = trials >> 32 != 0  # an index of 2**32 or more is a second spawn-key word
    if wide.any():
        wide_pool = _absorb(pool, next_const, trials >> 32)[0]
        pool = [np.where(wide, w, p) for p, w in zip(pool, wide_pool)]
    hash_const = _INIT_B
    state = []  # SeedSequence.generate_state(8) as uint32 words
    for i in range(8):
        value, hash_const = _hashmix(pool[i % _POOL_SIZE], hash_const, _MULT_B)
        state.append(value)
    init_hi, init_lo, seq_hi, seq_lo = (state[i] | state[i + 1] << 32 for i in range(0, 8, 2))
    inc_hi, inc_lo = seq_hi << 1 | seq_lo >> 63, seq_lo << 1 | 1
    del pool, state, seq_hi, seq_lo  # a block's (trials,) temporaries set its peak memory
    # Seeding steps the LCG from state 0 (giving inc), adds initstate and steps again.
    lo = inc_lo + init_lo
    hi, lo = _mul_add128(inc_hi + init_hi + (lo < init_lo), lo, inc_hi, inc_lo)
    out = np.empty((len(trials), count), dtype=np.uint64)
    for j in range(count):
        hi, lo = _mul_add128(hi, lo, inc_hi, inc_lo)
        x, rot = hi ^ lo, hi >> 58
        out[:, j] = x >> rot | x << (64 - rot & 63)
    return out


def _choose(cand, u32, live, pos, widths, step):
    """Draw one candidate column for every live trial, as the scalar trial does.

    ``cand`` holds each trial's candidate mask, whose true positions in
    ascending order are the scalar ``cand`` list.  Records the candidate counts
    in ``widths`` and advances ``pos``, each trial's next uint32, in place.
    Returns the mask of trials that go on, the chosen position for each of
    them, and the trials whose draw Lemire's method rejects; those are redone
    on the scalar path, which reads on in the stream.
    """
    ranks = np.cumsum(cand, axis=1, dtype=np.uint8)  # at most 64 columns
    width = ranks[:, -1]
    widths[live, step] = width
    m = np.multiply(u32[live, pos], width, dtype=np.uint64)
    rejected = (m & _M32) < _LEMIRE_THRESHOLD[width]
    pos += width > 1
    keep = (width > 0) & ~rejected
    pick = (m[keep] >> 32).astype(np.uint8)
    chosen = np.argmax(ranks[keep] > pick[:, None], axis=1)
    return keep, chosen, live[rejected]


def _walk(adj: np.ndarray, start: int, u32: np.ndarray):
    """Lockstep ``_run_walk``: per-trial visited rows; the endpoint expands."""
    blk, n = len(u32), len(adj)
    widths = np.zeros((blk, n - 1), dtype=np.uint8)
    live, pos, redo = np.arange(blk), np.zeros(blk, dtype=np.intp), []
    cur = np.full(blk, start)
    visited = np.zeros((blk, n), dtype=bool)
    visited[:, start] = True
    for step in range(n - 1):
        keep, cur, rejected = _choose(adj[cur] & ~visited, u32, live, pos, widths, step)
        redo += rejected.tolist()
        live, pos, visited = live[keep], pos[keep], visited[keep]
        visited[np.arange(len(live)), cur] = True
    return live[adj[cur, start]], widths, redo


def _expand(adj: np.ndarray, order: np.ndarray, u32: np.ndarray):
    """Lockstep ``_run_matrix``: per-trial rows and labels of the working matrix.

    ``order[step, k]`` is the 0-based row position to expand after column
    position ``k`` was chosen; ``ascending`` is the all-zeros order.
    """
    blk, n = len(u32), len(adj)
    widths = np.zeros((blk, n - 1), dtype=np.uint8)
    live, pos, redo = np.arange(blk), np.zeros(blk, dtype=np.intp), []
    rows = np.tile(np.arange(n, dtype=np.uint8), (blk, 1))
    labels = rows.copy()
    k = np.zeros(blk, dtype=np.intp)
    flat = adj.ravel()  # adj[u, label] is flat[u * n + label], and u * n + label < 2**12
    for step in range(n - 1):
        at = np.arange(len(live))
        gpos = order[step, k]
        cand = flat.take(rows[at, gpos].astype(np.uint16)[:, None] * n + labels)
        cand[at, gpos] = False
        keep, k, rejected = _choose(cand, u32, live, pos, widths, step)
        redo += rejected.tolist()
        live, pos, rows, labels, gpos = live[keep], pos[keep], rows[keep], labels[keep], gpos[keep]
        at = np.arange(len(live))
        labels[at, k] = labels[at, gpos]  # the swap, less the half that is deleted
        rest = np.ones(rows.shape, dtype=bool)
        rest[at, gpos] = False
        shape = len(live), n - step - 1
        rows, labels = rows[rest].reshape(shape), labels[rest].reshape(shape)
    return live[adj[rows[:, 0], labels[:, 0]]], widths, redo


def _block_values(g: DiGraph, policy: RowOrderPolicy, seed: int, trials: range) -> Iterator[int]:
    """``trial_with_policy(g, policy, trial_stream(seed, t)).value`` for each t, in lockstep.

    Trial ``t`` runs in block ``t // _BLOCK``.  Each draw with two or more
    candidates reads the trial's next uint32, and draws happen at steps
    0..n-2, so every read falls in the first n - 1 uint32s: the first n // 2
    raw words.  A rejected draw would read on; the trial is redone on the
    scalar path instead.
    """
    adj = np.array(g.matrix(), dtype=bool)
    if policy.kind == "follow-path":
        kernel = functools.partial(_walk, adj, policy.start - 1)
    else:
        order = np.array(policy.table or [[1] * g.n] * g.n, dtype=np.uint8) - 1
        kernel = functools.partial(_expand, adj, order)
    bounds = range((trials.start // _BLOCK + 1) * _BLOCK, trials.stop, _BLOCK)
    cuts = [trials.start, *bounds, trials.stop]
    for first, stop in zip(cuts, cuts[1:]):
        raw = _stream_words(seed, np.arange(first, stop, dtype=np.uint64), g.n // 2)
        hits, widths, redo = kernel(raw.astype("<u8", copy=False).view("<u4"))
        values = [0] * (stop - first)
        for b in hits.tolist():
            values[b] = math.prod(widths[b].tolist())
        for b in redo:
            values[b] = trial_with_policy(g, policy, trial_stream(seed, first + b)).value
        yield from values


def estimate(g: DiGraph, policy: RowOrderPolicy, trials: int, seed: int) -> EstimateReport:
    """Run independent trials and aggregate them exactly.

    Trial ``t`` uses ``trial_stream(seed, t)`` and takes the value
    ``trial_with_policy`` gives it, so the report is a pure function of
    (graph, policy, trials, seed), and its first ``k`` trials are those of
    ``estimate(g, policy, k, seed)``.
    """
    check_integer(trials, "trials", 1)
    check_integer(seed, "seed")
    _check_policy(g, policy)
    total = 0
    total_sq = 0
    zeros = 0
    for value in _block_values(g, policy, seed, range(trials)):
        total += value
        total_sq += value * value
        if value == 0:
            zeros += 1
    mean = Fraction(total, trials)
    if trials > 1:
        variance = (Fraction(total_sq) - Fraction(total * total, trials)) / (trials - 1)
    else:
        variance = Fraction(0)
    return EstimateReport(
        trials=trials,
        sum=total,
        mean=mean,
        sample_variance=variance,
        standard_error=math.sqrt(variance / trials),
        zero_fraction=zeros / trials,
        seed=seed,
        policy=policy.describe(),
    )
