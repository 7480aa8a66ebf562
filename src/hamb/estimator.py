"""Randomized unbiased estimators of the directed Hamiltonian cycle count.

One trial commits to a random permutation arc by arc.  The working matrix
starts as the adjacency matrix; after a row is expanded, the chosen column is
swapped with the column sitting at the expanded row's own position and both
the row and that position are deleted.  The swap keeps one invariant alive:
for every remaining row, the column at the row's own position is exactly the
arc that would close the partial cycle too early, so excluding it makes every
surviving branch a full Hamiltonian cycle.  The trial value is the product of
the candidate-set sizes, an unbiased estimate of the cycle count: a cycle
selected with probability 1/x contributes value x.  Trials read the bit rows of
any ``ContractedMatrix``: an ``UndiGraph`` is estimated as its doubled image.

Row order is a policy: one rule for picking the row on one trial, ``_run``:

* ``ascending``   - always expand the top row (classic fixed order),
* ``follow-path`` - expand the start's row, then always the row of the vertex
  just chosen: a self-avoiding walk from the start with a final closing test,
* ``table``       - look the next row position up in a fixed integer matrix,
  indexed by the step and the previously chosen column position.

Monte Carlo aggregation keeps mean and sample variance as exact rationals;
floats appear only in reporting fields.  ``estimate`` loads ``fractions``
(with ``decimal`` and ``numbers``) only to build its report, once the last
block's arrays are gone, so those modules do not add to the kernel's peak
memory.  Trial ``t`` always draws from ``trial_stream(seed, t)``, a
:class:`hamb.pcg.Stream` that draws as PCG64 seeded with
``SeedSequence(entropy=seed, spawn_key=(t,))``.

``trial_with_policy`` runs one trial in plain Python; it is the reference path,
and ``enumerate_branches`` runs it once per branch of its decision tree.
``estimate`` runs the trials in lockstep blocks of ``_BLOCK`` = 2048 trials
instead: numpy arrays hold every trial's working state, each step draws for all
live trials at once, and trials whose candidate set empties drop out of the
block.  A step at which no trial drops out compacts nothing, and a step at
which every trial expands its top row deletes that row by a slice.  Only the
trials of non-zero value reach the Python aggregation; the zeros are counted.
Both kernels take the rows as ``uint64`` masks.  The matrix kernel, which runs
``ascending`` and ``table``, holds each entry of a trial's working rows and
column labels as one ``uint16``, row and label a byte each (n <= 64), and finds
the chosen candidate in the block's flat list of candidate positions.  The
``follow-path`` kernel holds a trial as its endpoint and a mask of visited
vertices, and picks the chosen out-neighbour by broadword popcount and select.

The block takes its trials' PCG64 words from :func:`hamb.pcg.stream_words`,
1024 trials at a time, and draws from them as ``Generator.integers`` does.  A
trial whose draw Lemire's method rejects is redone on the reference path, from
its ``Stream``, so an ``estimate`` process never loads ``numpy.random`` (on
G(20, 0.4) that import would raise its peak RSS from 30 to 36 MB).  The block
reads each ``uint64`` word as two ``uint32`` halves through a little-endian
view, low half first on any host, as ``integers`` consumes them.
So every trial takes exactly the value the reference path gives it and the
report equals, byte for byte, the report of running the trials one at a time.
"""
from __future__ import annotations

import functools
import math
from typing import TYPE_CHECKING, Callable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import PolicyError
from .graphs import ContractedMatrix, check_integer
from .io import sha256_hex
from .pcg import Stream, stream_words

if TYPE_CHECKING:
    from fractions import Fraction


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
        digest = sha256_hex(repr(self.table).encode())[:8]
        return f"table:{len(self.table)}x{len(self.table)}:{digest}"


class TrialOutcome(NamedTuple):
    """One estimator run: big-integer value, the cycle (1-based, from vertex 1) or None, multipliers."""

    value: int
    witness: tuple[int, ...] | None
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


trial_stream = Stream  # trial t draws from trial_stream(seed, t)


def _check_policy(g: ContractedMatrix, policy: RowOrderPolicy) -> None:
    if policy.kind == "follow-path" and policy.start > g.n:
        raise PolicyError(f"follow-path start {policy.start} out of range for n={g.n}")
    if policy.kind == "table" and len(policy.table) != g.n:
        k = len(policy.table)
        raise PolicyError(f"table policy is {k}x{k} but the graph has n={g.n}")


def _cycle_order(succ: dict[int, int], n: int) -> tuple[int, ...]:
    """The chosen arcs as one cycle of 1-based vertices from vertex 1."""
    order = [1]
    cur = succ[0]
    while cur != 0 and len(order) <= n:
        order.append(cur + 1)
        cur = succ[cur]
    if cur != 0 or len(order) != n:
        raise AssertionError("chosen arcs did not form a single full cycle")
    return tuple(order)


def _run(g: ContractedMatrix, policy: RowOrderPolicy, choose: Callable[[list[int]], int]):
    """One matrix-form trial; the policy only picks the row to expand.

    ``ascending`` is the all-ones table.  ``follow-path`` expands the start's
    position, then where the chosen column lands after the delete: the chosen
    vertex's row.  Returns (p_factors_so_far, witness_or_None);
    ``choose`` gets the candidate positions in ascending order, returns one.
    At the last step the working matrix is 1x1 and its one entry is the
    closing arc, so the only candidate there is the expanded position itself.
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
        cand = [p for p in range(m) if (p != gpos or m == 1) and row >> labels[p] & 1]
        if not cand:
            return ps, None
        k = choose(cand)
        ps.append(len(cand))
        succ[u] = labels[k]
        labels[gpos], labels[k] = labels[k], labels[gpos]
        del rows[gpos]
        del labels[gpos]
    return ps, _cycle_order(succ, n)


def _make_outcome(g: ContractedMatrix, ps: list[int], witness: tuple[int, ...] | None) -> TrialOutcome:
    factors = tuple(ps) + (0,) * (g.n - len(ps))
    return TrialOutcome(value=math.prod(factors), witness=witness, p_factors=factors)


def trial_with_policy(g: ContractedMatrix, policy: RowOrderPolicy, stream: Stream) -> TrialOutcome:
    """One randomized trial under the given row-order policy, drawing from ``stream``."""
    _check_policy(g, policy)
    ps, witness = _run(g, policy, lambda cand: cand[int(stream.integers(len(cand)))])
    return _make_outcome(g, ps, witness)


def enumerate_branches(g: ContractedMatrix, policy: RowOrderPolicy) -> Iterator[tuple[Fraction, TrialOutcome]]:
    """Exhaustively enumerate the estimator's random decision tree.

    Yields (probability, outcome) for every branch, in lexicographic order of
    its choices; the probability is the exact product of 1/|candidates| along
    the branch.  Each branch runs the very same trial code once: a prefix of
    choices, then candidate 0 at every later step, whose siblings are pushed
    as the prefixes still to run.  So what it enumerates is what the
    randomized trials do.
    """
    from fractions import Fraction

    _check_policy(g, policy)
    stack: list[tuple[int, ...]] = [()]
    while stack:
        prefix = stack.pop()
        picks = iter(prefix)
        ps, witness = _run(g, policy, lambda cand: cand[next(picks, 0)])
        path = prefix + (0,) * (len(ps) - len(prefix))
        for depth in range(len(prefix), len(ps)):
            stack.extend(path[:depth] + (idx,) for idx in range(ps[depth] - 1, 0, -1))
        yield Fraction(1, math.prod(ps)), _make_outcome(g, ps, witness)


# --- Lockstep kernel -------------------------------------------------------
#
# A block reads the words of ``trial_stream(seed, t)`` from ``stream_words``
# and draws as ``Generator.integers(w)``: Lemire's method on the uint32
# halves, low half first, of PCG64's raw outputs (distributions.c), reading
# nothing when ``w == 1``.

# Trials per lockstep block.  On undirected G(20, 0.4), 10k trials, 2048 in
# place of 1024 took ~11 % off ``estimate`` over the three policies, and
# raised an ``estimate`` process's peak RSS from 33.4 to 33.8 MB: the
# candidate gather casts its (2048, n) index to intp.
_BLOCK = 2048
_SEED_SLICE = 1024  # trials seeded per stream_words call, which bounds its temporaries
MAX_TRIALS = 1 << 64  # trial indices are uint64
# Lemire rejects a draw of width w when the low half of x * w is below 2**32 % w.
_LEMIRE_THRESHOLD = np.array([0] + [(1 << 32) % w for w in range(1, 65)], dtype=np.uint64)
# Shift counts and masks of the kernels' fixed-width arithmetic.  Each is a
# numpy scalar of the array's dtype: under numpy 1.x, a uint64 array combined
# with a signed array becomes float64.
_U1, _U2, _U3, _U4, _U7, _U8, _U32, _U56 = (np.uint64(s) for s in (1, 2, 3, 4, 7, 8, 32, 56))
_BYTE, _M32 = np.uint64(0xFF), np.uint64(0xFFFFFFFF)
_M1, _M2, _M4 = np.uint64(0x5555555555555555), np.uint64(0x3333333333333333), np.uint64(0x0F0F0F0F0F0F0F0F)
_L8, _H8 = np.uint64(0x0101010101010101), np.uint64(0x8080808080808080)  # 0x01, 0x80 in every byte lane
_ROW, _LABEL = np.uint16(0xFF00), np.uint16(0x00FF)  # the halves of an _expand entry


def _draw(width, u32, live, nxt, widths, step, redo):
    """Draw one candidate rank for every live trial, as the scalar trial does.

    ``width`` holds each trial's candidate count; it goes to ``widths[step]``.
    ``nxt`` holds each trial's next uint32 as an index into the flattened
    ``u32``, and advances in place.  Returns the trials that go on, as a mask
    or, when every trial does, as the slice ``[:]`` whose compaction is a
    view, and for each of them the ``uint64`` rank of its chosen candidate in
    ascending order.  Appends to ``redo`` the trials whose draw Lemire's
    method rejects; those are redone on the scalar path, which reads on in
    the stream.
    """
    widths[step, live] = width
    m = np.multiply(u32.take(nxt), width, dtype=np.uint64)
    rejected = (m & _M32) < _LEMIRE_THRESHOLD[width]
    nxt += width > 1
    keep = width > 0
    if rejected.any():
        redo += live[rejected].tolist()
        keep &= ~rejected
    if keep.all():
        keep = slice(None)
    return keep, m[keep] >> _U32


# Broadword popcount and select on uint64 masks (Vigna, "Broadword
# implementation of rank/select queries", WEA 2008).
def _byte_prefix(x):
    """Byte lane ``b`` of the result is the popcount of bytes 0..b of ``x``.

    So the top lane, ``result >> 56``, is the popcount of ``x``; no lane
    exceeds 64.
    """
    x = x - (x >> _U1 & _M1)
    x = (x & _M2) + (x >> _U2 & _M2)
    return (x + (x >> _U4) & _M4) * _L8


def _select_in_byte_table() -> np.ndarray:
    """Flat 256 x 8 table: entry ``byte * 8 + r`` is the position of set bit ``r`` of ``byte``."""
    bit = np.arange(256)[:, None] >> np.arange(8) & 1
    rank = np.cumsum(bit, axis=1) - bit
    table = np.zeros((256, 8), dtype=np.uint8)
    byte, at = np.nonzero(bit)
    table[byte, rank[byte, at]] = at
    return table.ravel()


_SELECT_IN_BYTE = _select_in_byte_table()


def _select(x, prefix, pick):
    """The position of set bit ``pick`` (0-based, in ascending order) of each ``x``.

    ``prefix`` is ``_byte_prefix(x)`` and each ``pick`` is below the popcount
    of its ``x``.  The chosen bit's byte is the number of lanes whose prefix
    is ``<= pick``: such a lane keeps its high bit in ``(pick | 0x80) - prefix``,
    and since no prefix exceeds 64 < 128, no lane borrows from the next.  Only
    shifts and masks read the lanes, so the host's byte order plays no part.
    """
    below = (pick * _L8 | _H8) - prefix & _H8
    shift = (below >> _U7) * _L8 >> _U56 << _U3  # 8 * the chosen bit's byte
    rank = pick - ((prefix << _U8) >> shift & _BYTE)  # rank within that byte
    return shift + _SELECT_IN_BYTE[(x >> shift & _BYTE) << _U3 | rank]


def _walk(out: np.ndarray, start: int, u32: np.ndarray):
    """Lockstep follow-path as a walk over bit masks; the tests hold it to ``_run``.

    There, labels other than the start's are only ever deleted, so they stay in
    ascending vertex order, and the start's label sits at the endpoint row's
    position.  So ``_run`` offers the endpoint's unvisited out-neighbours in
    ascending order, as this walk does, and its last step tests the arc home.
    A trial's state is its endpoint and one uint64 mask of visited vertices
    (n <= 64); vertex ``v``'s out-neighbours are the mask ``out[v]``, its row.
    """
    blk, n = len(u32), len(out)
    widths = np.zeros((n - 1, blk), dtype=np.uint8)
    live, redo = np.arange(blk), []
    nxt = live * u32.shape[1]
    cur = np.full(blk, start)
    visited = np.full(blk, _U1 << np.uint64(start))
    for step in range(n - 1):
        cand = out[cur] & ~visited
        prefix = _byte_prefix(cand)
        keep, pick = _draw(prefix >> _U56, u32, live, nxt, widths, step, redo)
        live, nxt, cand, prefix, visited = live[keep], nxt[keep], cand[keep], prefix[keep], visited[keep]
        cur = _select(cand, prefix, pick)
        visited |= _U1 << cur
    return live[(out[cur] >> np.uint64(start) & _U1).astype(bool)], widths, redo


def _expand(adj: np.ndarray, order: np.ndarray, u32: np.ndarray):
    """Lockstep ``_run`` for tables: per-trial rows and labels of the working matrix.

    ``order[step, k]`` is the 0-based row position to expand after column
    position ``k`` was chosen; ``ascending`` is the all-zeros order.  A trial's
    row and label at one position are one ``uint16``, ``row << 8 | label``, so
    one gather moves both.  The chosen candidate is found in the block's flat
    list of candidates, where each trial's run starts after the candidates of
    the trials before it, those that drop out at this step included.
    """
    blk, n = len(u32), len(adj)
    widths = np.zeros((n - 1, blk), dtype=np.uint8)
    live, redo = np.arange(blk), []
    nxt = live * u32.shape[1]
    pairs = np.tile(np.arange(n, dtype=np.uint16) * np.uint16(0x101), (blk, 1))  # row == label == position
    k = np.zeros(blk, dtype=np.intp)
    flat = np.zeros((n, 256), dtype=bool)  # bit label of adj[u] is flat[u << 8 | label]
    flat[:, :n] = adj[:, None] >> np.arange(n, dtype=np.uint64) & _U1
    flat = flat.ravel()
    positions = np.arange(n, dtype=np.uint8)
    for step in range(n - 1):
        m = n - step
        gpos = order[step, k]
        # Every trial expands position 0 (each ascending step, and a table
        # step where it happens): then the delete is a slice.
        first = not gpos.any()
        here = (slice(None), 0) if first else (np.arange(len(live)), gpos)
        cand = flat.take(pairs[here][:, None] & _ROW | pairs & _LABEL)
        cand[here] = False
        width = cand.sum(axis=1, dtype=np.uint8)  # at most 63
        keep, pick = _draw(width, u32, live, nxt, widths, step, redo)
        start = np.cumsum(width, dtype=np.uint64) - width
        k = np.flatnonzero(cand)[start[keep] + pick] % m
        live, nxt, pairs = live[keep], nxt[keep], pairs[keep]
        at = np.arange(len(live))
        # The swap, less the half that is deleted: the chosen position takes
        # the expanded position's label.
        if first:
            pairs[at, k] = pairs[at, k] & _ROW | pairs[:, 0] & _LABEL
            pairs = pairs[:, 1:]
        else:
            gpos = gpos[keep]
            pairs[at, k] = pairs[at, k] & _ROW | pairs[at, gpos] & _LABEL
            pairs = pairs[positions[:m] != gpos[:, None]].reshape(len(live), m - 1)
    return live[flat[pairs[:, 0]]], widths, redo


def _block_values(g: ContractedMatrix, policy: RowOrderPolicy, seed: int, trials: range) -> Iterator[dict[int, int]]:
    """The values ``trial_with_policy(g, policy, trial_stream(seed, t)).value`` in lockstep.

    Yields one map per block, from the offset within the block of each trial
    whose value is not 0 to that value.  Trial ``t`` runs in block
    ``t // _BLOCK``.  Each draw with two or more candidates reads the trial's
    next uint32, and draws happen at steps 0..n-2, so every read falls in the
    first n - 1 uint32s: the first n // 2 raw words.  A rejected draw would
    read on; the trial is redone on the scalar path instead.
    """
    adj = np.array(g.rows, dtype=np.uint64)
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
            raw[at - first:until - first] = stream_words(seed, np.arange(at, until, dtype=np.uint64), g.n // 2)
        hits, widths, redo = kernel(raw.astype("<u8", copy=False).view("<u4"))
        values = {b: math.prod(row) for b, row in zip(hits.tolist(), widths[:, hits].T.tolist())}
        for b in redo:
            value = trial_with_policy(g, policy, trial_stream(seed, first + b)).value
            if value:
                values[b] = value
        yield values
        first = stop


def estimate(g: ContractedMatrix, policy: RowOrderPolicy, trials: int, seed: int) -> EstimateReport:
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
    for values in _block_values(g, policy, seed, range(trials)):
        for value in values.values():
            total += value
            total_sq += value * value
        nonzero += len(values)
    from fractions import Fraction  # after the last block: its arrays are gone

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
