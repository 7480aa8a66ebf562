"""Graph representations, the undirected-to-directed doubling map, matrix
contraction, and deterministic generators.

Directed graphs are stored as packed bit rows: ``rows[u]`` is an integer whose
bit ``v`` is set iff the arc ``u -> v`` exists (0-based internally).  Vertex
labels in every public signature are 1-based.  Bit rows keep row scans, the
subset dynamic program, and the permanent cheap, at the price of a hard cap of
64 vertices (lowerable through the ``HAMB_MAX_N`` environment variable, never
raisable).  A ``DiGraph`` is a ``ContractedMatrix``, the 0/1 matrix that
contraction produces, that also obeys the cap and has a zero diagonal.  The
graph file formats live in :mod:`hamb.io`.
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import GraphSizeError

HARD_MAX_N = 64
MAX_N_ENV = "HAMB_MAX_N"

GRAPH_KINDS = ("undirected", "symmetric-digraph", "digraph")
FAMILIES = ("complete", "cycle", "path")


def max_vertices() -> int:
    """Current vertex cap: 64, optionally lowered via HAMB_MAX_N."""
    raw = os.environ.get(MAX_N_ENV)
    if raw is None:
        return HARD_MAX_N
    try:
        value = int(raw)
    except ValueError:
        raise GraphSizeError(f"{MAX_N_ENV} must be an integer, got {raw!r}") from None
    if value < 1:
        raise GraphSizeError(f"{MAX_N_ENV} must be >= 1, got {value}")
    return min(value, HARD_MAX_N)


def _check_vertex_count(n: int) -> None:
    check_integer(n, "vertex count", 1)
    cap = max_vertices()
    if n > cap:
        note = "" if cap == HARD_MAX_N else f" (lowered by {MAX_N_ENV})"
        raise GraphSizeError(f"n={n} exceeds the vertex cap of {cap}{note}")


@dataclass(frozen=True)
class ContractedMatrix:
    """0/1 matrix produced by :func:`contract`; diagonal ones are permitted
    (the slot that closes a partially committed cycle)."""

    n: int
    rows: tuple[int, ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("contracted matrix must have dimension >= 1")
        if len(self.rows) != self.n:
            raise ValueError(f"expected {self.n} rows, got {len(self.rows)}")
        full = (1 << self.n) - 1
        for u, row in enumerate(self.rows):
            if row & ~full:
                raise ValueError(f"row {u + 1} has bits outside 1..{self.n}")

    def matrix(self) -> list[list[int]]:
        return [[self.rows[u] >> v & 1 for v in range(self.n)] for u in range(self.n)]


@dataclass(frozen=True)
class DiGraph(ContractedMatrix):
    """Simple directed graph on vertices 1..n; zero diagonal, 0/1 arcs.

    A ``ContractedMatrix`` that also obeys the vertex cap and has no
    self-loops, so every counter that takes a matrix takes a digraph.
    """

    def __post_init__(self):
        _check_vertex_count(self.n)
        super().__post_init__()
        for u, row in enumerate(self.rows):
            if row >> u & 1:
                raise ValueError(f"self-loop at vertex {u + 1}")

    @property
    def num_arcs(self) -> int:
        return sum(row.bit_count() for row in self.rows)

    def has_arc(self, u: int, v: int) -> bool:
        """Arc u -> v, 1-based labels."""
        return bool(self.rows[u - 1] >> (v - 1) & 1)

    def arcs(self) -> list[tuple[int, int]]:
        """All arcs as sorted 1-based pairs."""
        return [
            (u + 1, v + 1)
            for u in range(self.n)
            for v in range(self.n)
            if self.rows[u] >> v & 1
        ]


Adjacency = ContractedMatrix  # a DiGraph is one too


@dataclass(frozen=True)
class UndiGraph:
    """Simple undirected graph; edges stored 0-based as (u, v) with u < v."""

    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        _check_vertex_count(self.n)
        for u, v in self.edges:
            if not (0 <= u < v < self.n):
                raise ValueError(f"bad internal edge ({u}, {v}) for n={self.n}")

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def has_edge(self, u: int, v: int) -> bool:
        """Edge {u, v}, 1-based labels."""
        a, b = min(u, v) - 1, max(u, v) - 1
        return (a, b) in self.edges

    def edge_list(self) -> list[tuple[int, int]]:
        """All edges as sorted 1-based pairs (u < v)."""
        return sorted((u + 1, v + 1) for u, v in self.edges)


def build_digraph(n: int, edges: Iterable[tuple[int, int]]) -> DiGraph:
    """Build a DiGraph from 1-based arc pairs; duplicates collapse silently."""
    _check_vertex_count(n)
    rows = [0] * n
    for u, v in edges:
        if not (1 <= u <= n and 1 <= v <= n):
            raise ValueError(f"arc ({u}, {v}) out of range 1..{n}")
        if u == v:
            raise ValueError(f"self-loop ({u}, {v}) is not allowed")
        rows[u - 1] |= 1 << (v - 1)
    return DiGraph(n, tuple(rows))


def build_undigraph(n: int, edges: Iterable[tuple[int, int]]) -> UndiGraph:
    """Build an UndiGraph from 1-based unordered pairs; duplicates collapse."""
    _check_vertex_count(n)
    normalized = set()
    for u, v in edges:
        if not (1 <= u <= n and 1 <= v <= n):
            raise ValueError(f"edge ({u}, {v}) out of range 1..{n}")
        if u == v:
            raise ValueError(f"self-loop ({u}, {v}) is not allowed")
        normalized.add((min(u, v) - 1, max(u, v) - 1))
    return UndiGraph(n, frozenset(normalized))


def to_symmetric_digraph(g: UndiGraph) -> DiGraph:
    """Replace each undirected edge {u, v} by the two arcs u->v and v->u."""
    rows = [0] * g.n
    for u, v in g.edges:
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return DiGraph(g.n, tuple(rows))


def is_symmetric(g: DiGraph) -> bool:
    """True iff the adjacency matrix equals its transpose."""
    return all(
        (g.rows[u] >> v & 1) == (g.rows[v] >> u & 1)
        for u in range(g.n)
        for v in range(u + 1, g.n)
    )


def row_sums(g: Adjacency) -> tuple[int, ...]:
    """Out-degree of every vertex (number of ones per row)."""
    return tuple(row.bit_count() for row in g.rows)


def degrees(g: UndiGraph) -> tuple[int, ...]:
    """Degree of every vertex."""
    out = [0] * g.n
    for u, v in g.edges:
        out[u] += 1
        out[v] += 1
    return tuple(out)


def _delete_bit(x: int, pos: int) -> int:
    return (x & ((1 << pos) - 1)) | ((x >> (pos + 1)) << pos)


def contract(m: Adjacency, i: int, j: int) -> ContractedMatrix:
    """Commit to the arc i -> j: swap columns i and j, then delete row i and
    column i (1-based).  The result is one dimension smaller and may carry a
    diagonal one where the cycle-closing column was parked."""
    if m.n < 2:
        raise ValueError("contraction needs dimension >= 2")
    if i == j:
        raise ValueError("contraction indices must differ")
    if not (1 <= i <= m.n and 1 <= j <= m.n):
        raise ValueError(f"contraction indices ({i}, {j}) out of range 1..{m.n}")
    i0, j0 = i - 1, j - 1
    new_rows = []
    for u in range(m.n):
        if u == i0:
            continue
        row = m.rows[u]
        if (row >> i0 & 1) != (row >> j0 & 1):
            row ^= (1 << i0) | (1 << j0)
        new_rows.append(_delete_bit(row, i0))
    return ContractedMatrix(m.n - 1, tuple(new_rows))


@dataclass(frozen=True)
class CycleWitness:
    """A Hamiltonian cycle in canonical form.

    Directed cycles are rotated so the smallest label comes first; undirected
    cycles are additionally oriented so the second label is smaller than the
    last, which picks one representative out of the 2n rotations/reflections.
    """

    vertices: tuple[int, ...]
    directed: bool

    @classmethod
    def canonical(cls, vertices: Sequence[int], directed: bool) -> "CycleWitness":
        vs = tuple(int(v) for v in vertices)
        if len(set(vs)) != len(vs) or not vs:
            raise ValueError("witness vertices must be distinct and non-empty")
        pivot = vs.index(min(vs))
        vs = vs[pivot:] + vs[:pivot]
        if not directed and len(vs) >= 3 and vs[1] > vs[-1]:
            vs = (vs[0],) + tuple(reversed(vs[1:]))
        return cls(vs, directed)

    def is_cycle_of(self, g: DiGraph | UndiGraph) -> bool:
        """True iff this is a Hamiltonian cycle of ``g`` (all consecutive
        pairs, including the closing one, are edges/arcs of ``g``)."""
        vs = self.vertices
        if len(vs) != g.n or set(vs) != set(range(1, g.n + 1)):
            return False
        if self.directed:
            if not isinstance(g, DiGraph):
                return False
            return all(g.has_arc(vs[k], vs[(k + 1) % len(vs)]) for k in range(len(vs)))
        if not isinstance(g, UndiGraph):
            return False
        return all(g.has_edge(vs[k], vs[(k + 1) % len(vs)]) for k in range(len(vs)))


def gen_gnp(n: int, p: float, seed: int, kind: str = "undirected") -> DiGraph | UndiGraph:
    """Seeded Erdos-Renyi graph: every candidate edge kept with probability p.

    The stream is PCG64 seeded with ``SeedSequence(seed)``; candidates are
    drawn in a fixed order (pairs u < v for the undirected kinds, row-major
    ordered pairs for plain digraphs), so output is a pure function of the
    arguments.  The symmetric-digraph kind doubles the undirected draw.
    """
    _check_vertex_count(n)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p}")
    if kind not in GRAPH_KINDS:
        raise ValueError(f"kind must be one of {GRAPH_KINDS}, got {kind!r}")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=check_integer(seed, "seed"))))
    if kind == "digraph":
        edges = [
            (u + 1, v + 1)
            for u in range(n)
            for v in range(n)
            if u != v and rng.random() < p
        ]
        return build_digraph(n, edges)
    pairs = [
        (u + 1, v + 1)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < p
    ]
    g = build_undigraph(n, pairs)
    return g if kind == "undirected" else to_symmetric_digraph(g)


def gen_family(name: str, n: int, kind: str = "undirected") -> DiGraph | UndiGraph:
    """Canonical graph families: complete, cycle, path."""
    if name not in FAMILIES:
        raise ValueError(f"family must be one of {FAMILIES}, got {name!r}")
    if kind not in GRAPH_KINDS:
        raise ValueError(f"kind must be one of {GRAPH_KINDS}, got {kind!r}")
    _check_vertex_count(n)
    if name == "cycle" and n < 3:
        raise ValueError(f"cycle family needs n >= 3, got {n}")
    if name == "complete":
        pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    elif name == "cycle":
        pairs = [(u, u + 1) for u in range(1, n)] + [(n, 1)]
    else:
        pairs = [(u, u + 1) for u in range(1, n)]
    if kind == "digraph" and name != "complete":  # the complete digraph is the doubled K_n
        return build_digraph(n, pairs)
    g = build_undigraph(n, pairs)
    return g if kind == "undirected" else to_symmetric_digraph(g)


def check_integer(value: int, name: str, low: int = 0) -> int:
    """``value`` if it is an int (a bool is not) of at least ``low``, else ValueError."""
    if not isinstance(value, int) or isinstance(value, bool) or value < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
    return value
