"""Graph representations, the undirected-to-directed doubling map, matrix
contraction, and deterministic generators.

Every graph is stored as packed bit rows: ``rows[u]`` is an integer whose bit
``v`` is set iff the arc ``u -> v`` exists (0-based internally).  Vertex
labels in every public signature are 1-based.  Bit rows keep row scans, the
subset dynamic program, and the permanent cheap, at the price of a fixed cap
of ``HARD_MAX_N`` = 64 vertices.  A ``DiGraph`` is a ``ContractedMatrix``, the
0/1 matrix that contraction produces, that also obeys the cap and has a zero
diagonal.  So is an ``UndiGraph``: it holds the symmetric rows of its doubled
image, so the paper's doubling map is a retag and a degree is a row sum, and a
counter given one counts that image (``ham_dp``: 2h, ``ham_undirected``: h).
The graph file formats live in :mod:`hamb.io`.
"""
from __future__ import annotations

from typing import Iterable, NamedTuple

from .errors import GraphSizeError

HARD_MAX_N = 64

GRAPH_KINDS = ("undirected", "symmetric-digraph", "digraph")
FAMILIES = ("complete", "cycle", "path")


def _check_vertex_count(n: int) -> None:
    check_integer(n, "vertex count", 1)
    if n > HARD_MAX_N:
        raise GraphSizeError(f"n={n} exceeds the vertex cap of {HARD_MAX_N}")


class ContractedMatrix(NamedTuple("ContractedMatrix", [("n", int), ("rows", tuple[int, ...])])):
    """0/1 matrix produced by :func:`contract`; diagonal ones are permitted
    (the slot that closes a partially committed cycle).  A matrix equals only
    one of its own type, so a ``DiGraph`` never equals a ``ContractedMatrix``."""

    __slots__ = ()

    def __new__(cls, n: int, rows: tuple[int, ...]):
        if n < 1:
            raise ValueError("contracted matrix must have dimension >= 1")
        if len(rows) != n:
            raise ValueError(f"expected {n} rows, got {len(rows)}")
        full = (1 << n) - 1
        for u, row in enumerate(rows):
            if row & ~full:
                raise ValueError(f"row {u + 1} has bits outside 1..{n}")
        return super().__new__(cls, n, rows)

    def __eq__(self, other):
        return type(other) is type(self) and tuple.__eq__(self, other)

    __ne__ = object.__ne__  # negates __eq__; tuple's would compare values only
    __hash__ = tuple.__hash__


def _graph(cls: type, n: int, rows: tuple[int, ...]):
    """A ``cls`` over ``rows`` under the vertex cap with a zero diagonal (any graph)."""
    _check_vertex_count(n)
    self = ContractedMatrix.__new__(cls, n, rows)
    for u, row in enumerate(rows):
        if row >> u & 1:
            raise ValueError(f"self-loop at vertex {u + 1}")
    return self


class DiGraph(ContractedMatrix):
    """Simple directed graph on vertices 1..n; zero diagonal, 0/1 arcs.

    A ``ContractedMatrix`` that also obeys the vertex cap and has no
    self-loops, so every counter that takes a matrix takes a digraph.
    """

    __slots__ = ()

    def __new__(cls, n: int, rows: tuple[int, ...]):
        return _graph(cls, n, rows)

    def arcs(self) -> list[tuple[int, int]]:
        """All arcs as sorted 1-based pairs."""
        return [
            (u + 1, v + 1)
            for u in range(self.n)
            for v in range(self.n)
            if self.rows[u] >> v & 1
        ]


class UndiGraph(ContractedMatrix):
    """Simple undirected graph on vertices 1..n: the edge {u, v} is bit v of
    ``rows[u]`` and bit u of ``rows[v]``, so the rows (symmetric, zero diagonal,
    under the vertex cap) are those of the doubled image ``DiGraph(g.n, g.rows)``,
    which ``g`` never equals.  A counter that takes a matrix counts that image."""

    __slots__ = ()

    def __new__(cls, n: int, rows: tuple[int, ...]):
        self = _graph(cls, n, rows)
        if not is_symmetric(self):
            raise ValueError("undirected rows must be symmetric")
        return self

    def edge_list(self) -> list[tuple[int, int]]:
        """All edges as sorted 1-based pairs (u < v)."""
        return [(u + 1, v + 1) for u in range(self.n) for v in range(u + 1, self.n) if self.rows[u] >> v & 1]


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
    """Build an UndiGraph from 1-based unordered pairs, both bits of each; duplicates collapse."""
    _check_vertex_count(n)
    rows = [0] * n
    for u, v in edges:
        if not (1 <= u <= n and 1 <= v <= n):
            raise ValueError(f"edge ({u}, {v}) out of range 1..{n}")
        if u == v:
            raise ValueError(f"self-loop ({u}, {v}) is not allowed")
        rows[u - 1] |= 1 << (v - 1)
        rows[v - 1] |= 1 << (u - 1)
    return UndiGraph(n, tuple(rows))


def to_symmetric_digraph(g: UndiGraph) -> DiGraph:
    """The doubling map: each edge {u, v} becomes the arcs u->v and v->u.  An
    ``UndiGraph`` holds those rows already, so the image is a retag."""
    return DiGraph(g.n, g.rows)


def is_symmetric(m: ContractedMatrix) -> bool:
    """True iff the matrix equals its transpose: row v has bit u for each set bit v of row u."""
    rows = m.rows
    for u, row in enumerate(rows):
        while row:
            low = row & -row
            if not rows[low.bit_length() - 1] >> u & 1:
                return False
            row ^= low
    return True


def row_sums(g: ContractedMatrix) -> tuple[int, ...]:
    """Out-degree of every vertex (number of ones per row): an ``UndiGraph``'s degrees."""
    return tuple(row.bit_count() for row in g.rows)


def _delete_bit(x: int, pos: int) -> int:
    return (x & ((1 << pos) - 1)) | ((x >> (pos + 1)) << pos)


def contract(m: ContractedMatrix, i: int, j: int) -> ContractedMatrix:
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


def gen_gnp(n: int, p: float, seed: int, kind: str = "undirected") -> DiGraph | UndiGraph:
    """Seeded Erdos-Renyi graph: every candidate edge kept with probability p.

    Candidate ``i`` is kept when the ``i``-th ``random()`` of the stream
    ``Generator(PCG64(SeedSequence(seed)))`` is below p; :class:`hamb.pcg.Stream`
    draws it without numpy.  Candidates come in a fixed order (pairs u < v for
    the undirected kinds, row-major ordered pairs for plain digraphs), so
    output is a pure function of the arguments.  The symmetric-digraph kind
    doubles the undirected draw.
    """
    _check_vertex_count(n)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p}")
    if kind not in GRAPH_KINDS:
        raise ValueError(f"kind must be one of {GRAPH_KINDS}, got {kind!r}")
    from .pcg import Stream

    rng = Stream(seed)
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
