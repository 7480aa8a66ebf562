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

Row order is a policy: one rule for picking the row on one trial, ``_run``:

* ``ascending``   - always expand the top row (classic fixed order),
* ``follow-path`` - expand the start's row, then always the row of the vertex
  just chosen: a self-avoiding walk from the start with a final closing test,
* ``table``       - look the next row position up in a fixed integer matrix,
  indexed by the step and the previously chosen column position.

Monte Carlo aggregation keeps mean and sample variance as exact rationals;
floats appear only in reporting fields.  Trial ``t`` always draws from
``trial_stream(seed, t)``: ``SeedSequence(entropy=seed, spawn_key=(t,))``
feeding PCG64.

``trial_with_policy`` runs one trial in plain Python; it is the reference path,
and ``enumerate_branches`` replays it.  ``estimate`` runs the trials in
lockstep blocks of ``_BLOCK`` = 2048 trials instead: numpy arrays hold every
trial's working state, each step draws for all live trials at once, and trials
whose candidate set empties drop out of the block.  A step at which no trial
drops out compacts nothing, and a step at which every trial expands its top
row deletes that row by a slice.  Only the trials of non-zero value reach the
Python aggregation; the zeros are counted.  The working rows and column
labels are ``uint8`` (n <= 64), and so is the running count that ranks each
trial's candidates.  The block computes its trials' PCG64 words itself, 1024
trials at a time: it seeds them with :mod:`hamb.pcg`, the numpy-free replica
of SeedSequence and PCG64, and steps the 128-bit LCG on ``uint64`` halves,
then draws as ``Generator.integers`` does.  This keeps ``numpy.random`` out of an
``estimate`` process, which imports it only to redo a trial whose draw
Lemire's method rejects: on G(20, 0.4) importing it raises the process's peak
RSS from 34 to 37 MB.  The block reads each ``uint64`` word as two ``uint32``
halves through a little-endian view, low half first on any host, as
``integers`` consumes them.
So every trial takes exactly the value the reference path gives it and the
report equals, byte for byte, the report of running the trials one at a time.
"""
from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import PolicyError
from .graphs import CycleWitness, DiGraph, check_integer
from .pcg import _M32, _PCG_MULT_HI, _PCG_MULT_LO, _absorb, _pcg64_seed, _seed_pool


class RowOrderPolicy(NamedTuple("RowOrderPolicy", [("kind", str), ("start", int | None),
                                                  ("table", tuple[tuple[int, ...], ...] | None)])):
    """Strategy for which row the estimator expands at each step."""

    __slots__ = ()

    def __new__(cls, kind: str, start: int | None = None, table: tuple[tuple[int, ...], ...] | None = None):
        self = super().__new__(cls, kind, start, table)
        if kind == "ascending":
            if start is not None or table is not None:
                raise PolicyError("ascending policy takes no parameters")
        elif kind == "follow-path":
            if table is not None:
                raise PolicyError("follow-path policy takes no table")
            if type(start) is not int or start < 1:  # a bool is not a label
                raise PolicyError(f"follow-path start must be a vertex label >= 1, got {start!r}")
        elif kind == "table":
            if start is not None:
                raise PolicyError("table policy takes no start vertex")
            self._validate_table()
        else:
            raise PolicyError(f"unknown policy kind {kind!r}")
        return self

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
                if type(b) is not int or not 1 <= b <= hi:
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
        return cls("table", table=tuple(tuple(row) for row in rows))

    def describe(self) -> str:
        if self.kind == "ascending":
            return "ascending"
        if self.kind == "follow-path":
            return f"follow-path:{self.start}"
        import hashlib

        digest = hashlib.sha256(repr(self.table).encode()).hexdigest()[:8]
        return f"table:{len(self.table)}x{len(self.table)}:{digest}"


class TrialOutcome(NamedTuple):
    """One estimator run: big-integer value, optional cycle, multipliers."""

    value: int
    witness: CycleWitness | None
    p_factors: tuple[int, ...]


class EstimateReport(NamedTuple):
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


def _cycle_order(succ: dict[int, int], n: int) -> list[int]:
    order = [0]
    cur = succ[0]
    while cur != 0 and len(order) <= n:
        order.append(cur)
        cur = succ[cur]
    if cur != 0 or len(order) != n:
        raise AssertionError("chosen arcs did not form a single full cycle")
    return order


def _run(g: DiGraph, policy: RowOrderPolicy, choose: Callable[[list[int]], int]):
    """One matrix-form trial; the policy only picks the row to expand.

    ``ascending`` is the all-ones table.  ``follow-path`` expands the start's
    position, then where the chosen column lands after the delete: the chosen
    vertex's row.  Returns (p_factors_so_far, cycle_vertex_order_or_None);
    ``choose`` gets the candidate positions in ascending order, returns one.
    """
    n, adj = g.n, g.rows
    rows = list(range(n))      # remaining row vertices, by position
    labels = list(range(n))    # remaining column labels, by position
    succ: dict[int, int] = {}
    ps: list[int] = []
    k = 0                      # previously chosen column position
    table, start = policy.table, policy.start
    gpos = start - 1 if start else 0
    for step in range(n):
        m = n - step
        if table:
            gpos = table[step][k] - 1
        elif start and step:
            gpos = k - (k > gpos)
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
        k = choose(cand)
        ps.append(len(cand))
        succ[u] = labels[k]
        labels[gpos], labels[k] = labels[k], labels[gpos]
        del rows[gpos]
        del labels[gpos]
    raise AssertionError("unreachable")


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
# them: SeedSequence's entropy pool and PCG64's seeding (``hamb.pcg``), PCG64's
# XSL-RR generator (pcg64.h), and ``Generator.integers(w)``, which is Lemire's
# method on the uint32 halves, low half first, of PCG64's raw outputs
# (distributions.c) and reads nothing when ``w == 1``.

# Trials per lockstep block.  On undirected G(20, 0.4), 10k trials, 2048 in
# place of 1024 took ~11 % off ``estimate`` over the three policies, and
# raised an ``estimate`` process's peak RSS from 33.4 to 33.8 MB: the
# candidate gather casts its (2048, n) index to intp.
_BLOCK = 2048
_SEED_SLICE = 1024  # trials seeded per _stream_words call, which bounds its temporaries
MAX_TRIALS = 1 << 64  # trial indices are uint64
# Lemire rejects a draw of width w when the low half of x * w is below 2**32 % w.
_LEMIRE_THRESHOLD = np.array([0] + [(1 << 32) % w for w in range(1, 65)], dtype=np.uint64)


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
    init_hi, init_lo, inc_hi, inc_lo = _pcg64_seed(pool)
    del pool  # a block's (trials,) temporaries set its peak memory
    # Seeding steps the LCG from state 0 (giving inc), adds initstate and steps again.
    lo = inc_lo + init_lo
    hi, lo = _mul_add128(inc_hi + init_hi + (lo < init_lo), lo, inc_hi, inc_lo)
    out = np.empty((len(trials), count), dtype=np.uint64)
    for j in range(count):
        hi, lo = _mul_add128(hi, lo, inc_hi, inc_lo)
        x, rot = hi ^ lo, hi >> 58
        out[:, j] = x >> rot | x << (64 - rot & 63)
    return out


def _choose(cand, u32, live, pos, widths, step, redo):
    """Draw one candidate column for every live trial, as the scalar trial does.

    ``cand`` holds each trial's candidate mask, whose true positions in
    ascending order are the scalar ``cand`` list.  Records the candidate counts
    in ``widths`` and advances ``pos``, each trial's next uint32, in place.
    Returns the trials that go on, as a mask or, when every trial does, as the
    slice ``[:]`` whose compaction is a view, and the chosen position for each
    of them.  Appends to ``redo`` the trials whose draw Lemire's method
    rejects; those are redone on the scalar path, which reads on in the stream.
    """
    ranks = np.cumsum(cand, axis=1, dtype=np.uint8)  # at most 64 columns
    width = ranks[:, -1]
    widths[live, step] = width
    m = np.multiply(u32[live, pos], width, dtype=np.uint64)
    rejected = (m & _M32) < _LEMIRE_THRESHOLD[width]
    pos += width > 1
    keep = width > 0
    if rejected.any():
        redo += live[rejected].tolist()
        keep &= ~rejected
    if keep.all():
        keep = slice(None)
    pick = (m[keep] >> 32).astype(np.uint8)
    return keep, np.argmax(ranks[keep] > pick[:, None], axis=1)


def _walk(adj: np.ndarray, start: int, u32: np.ndarray):
    """Lockstep follow-path as a walk over visited rows; the tests hold it to ``_run``.

    There, labels other than the start's are only ever deleted, so they stay in
    ascending vertex order, and the start's label sits at the endpoint row's
    position.  So ``_run`` offers the endpoint's unvisited out-neighbours in
    ascending order, as this walk does, and its last step tests the arc home.
    """
    blk, n = len(u32), len(adj)
    widths = np.zeros((blk, n - 1), dtype=np.uint8)
    live, pos, redo = np.arange(blk), np.zeros(blk, dtype=np.intp), []
    cur = np.full(blk, start)
    visited = np.zeros((blk, n), dtype=bool)
    visited[:, start] = True
    for step in range(n - 1):
        keep, cur = _choose(adj[cur] & ~visited, u32, live, pos, widths, step, redo)
        live, pos, visited = live[keep], pos[keep], visited[keep]
        visited[np.arange(len(live)), cur] = True
    return live[adj[cur, start]], widths, redo


def _expand(adj: np.ndarray, order: np.ndarray, u32: np.ndarray):
    """Lockstep ``_run`` for tables: per-trial rows and labels of the working matrix.

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
        gpos = order[step, k]
        # Every trial expands position 0 (each ascending step, and a table
        # step where it happens): then the delete is a slice.
        first = not gpos.any()
        here = (slice(None), 0) if first else (np.arange(len(live)), gpos)
        cand = flat.take(rows[here].astype(np.uint16)[:, None] * n + labels)
        cand[here] = False
        keep, k = _choose(cand, u32, live, pos, widths, step, redo)
        live, pos, rows, labels = live[keep], pos[keep], rows[keep], labels[keep]
        at = np.arange(len(live))
        if first:
            labels[at, k] = labels[:, 0]  # the swap, less the half that is deleted
            rows, labels = rows[:, 1:], labels[:, 1:]
        else:
            gpos = gpos[keep]
            labels[at, k] = labels[at, gpos]
            rest = np.ones(rows.shape, dtype=bool)
            rest[at, gpos] = False
            shape = len(live), n - step - 1
            rows, labels = rows[rest].reshape(shape), labels[rest].reshape(shape)
    return live[adj[rows[:, 0], labels[:, 0]]], widths, redo


def _block_values(g: DiGraph, policy: RowOrderPolicy, seed: int, trials: range) -> Iterator[tuple[int, dict[int, int]]]:
    """The values ``trial_with_policy(g, policy, trial_stream(seed, t)).value`` in lockstep.

    Yields one ``(size, values)`` per block: the block's ``size`` trials, and
    ``values`` maps the offset of each trial whose value is not 0 to that
    value.  Trial ``t`` runs in block ``t // _BLOCK``.  Each draw with two or
    more candidates reads the trial's next uint32, and draws happen at steps
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
    first = trials.start
    while first < trials.stop:
        stop = min((first // _BLOCK + 1) * _BLOCK, trials.stop)
        raw = np.empty((stop - first, g.n // 2), dtype=np.uint64)
        for at in range(first, stop, _SEED_SLICE):
            until = min(at + _SEED_SLICE, stop)
            raw[at - first:until - first] = _stream_words(seed, np.arange(at, until, dtype=np.uint64), g.n // 2)
        hits, widths, redo = kernel(raw.astype("<u8", copy=False).view("<u4"))
        values = {b: math.prod(row) for b, row in zip(hits.tolist(), widths[hits].tolist())}
        for b in redo:
            value = trial_with_policy(g, policy, trial_stream(seed, first + b)).value
            if value:
                values[b] = value
        yield stop - first, values
        first = stop


def estimate(g: DiGraph, policy: RowOrderPolicy, trials: int, seed: int) -> EstimateReport:
    """Run independent trials and aggregate them exactly.

    Trial ``t`` uses ``trial_stream(seed, t)`` and takes the value
    ``trial_with_policy`` gives it, so the report is a pure function of
    (graph, policy, trials, seed), and its first ``k`` trials are those of
    ``estimate(g, policy, k, seed)``.
    """
    if check_integer(trials, "trials", 1) > MAX_TRIALS:
        raise ValueError(f"trials must be <= 2^64 (trial indices are uint64), got {trials}")
    check_integer(seed, "seed")
    _check_policy(g, policy)
    total = total_sq = nonzero = 0
    for _, values in _block_values(g, policy, seed, range(trials)):
        for value in values.values():
            total += value
            total_sq += value * value
        nonzero += len(values)
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
        zero_fraction=(trials - nonzero) / trials,
        seed=seed,
        policy=policy.describe(),
    )
