"""Reference graphs and counts that check hamb's outputs without importing it.

Graphs are plain ``Graph`` values with 1-based labels.  ``gnp`` and
``family`` draw the same graphs as ``hamb.graphs.gen_gnp`` and
``gen_family`` (same PCG64 stream and candidate order), so the output of
``hamb gen`` can be checked byte for byte.  Cycle counts come from a numpy
subset dynamic program and permanents from Ryser's formula modulo two primes;
neither shares code with hamb.
"""
from __future__ import annotations

import functools
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

# int64 cycle counts stay exact while (n - 1)! < 2^63, i.e. up to n = 20.
COUNT_MAX_N = 20
PRIMES = (2_147_483_647, 2_147_483_629)


@dataclass(frozen=True)
class Graph:
    """A simple graph on 1..n: sorted arcs if directed, sorted edges u < v if not."""

    n: int
    directed: bool
    pairs: tuple[tuple[int, int], ...]

    @property
    def kind(self) -> str:
        return "directed" if self.directed else "undirected"

    def arcs(self) -> list[tuple[int, int]]:
        """Directed arcs; an undirected edge gives both directions."""
        if self.directed:
            return list(self.pairs)
        return sorted(self.pairs + tuple((v, u) for u, v in self.pairs))

    def degrees(self) -> list[int]:
        """Out-degrees of the directed image, i.e. degrees if undirected."""
        deg = [0] * self.n
        for u, _ in self.arcs():
            deg[u - 1] += 1
        return deg

    def relabel(self, perm: list[int]) -> "Graph":
        """Vertex v becomes perm[v - 1]."""
        pairs = [(perm[u - 1], perm[v - 1]) for u, v in self.pairs]
        return make_graph(self.n, self.directed, pairs)

    def text(self) -> str:
        lines = [f"{self.n} {len(self.pairs)} {self.kind}"]
        lines.extend(f"{u} {v}" for u, v in self.pairs)
        return "\n".join(lines) + "\n"

    def object_text(self) -> str:
        obj = {"n": self.n, "kind": self.kind, "edges": [[u, v] for u, v in self.pairs]}
        return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def make_graph(n: int, directed: bool, pairs) -> Graph:
    if not directed:
        pairs = [(min(u, v), max(u, v)) for u, v in pairs]
    return Graph(n, directed, tuple(sorted(set(pairs))))


def gnp(n: int, p: float, seed: int, kind: str) -> Graph:
    """The graph ``hamb gen --model gnp`` writes for these arguments."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=seed)))
    if kind == "digraph":
        arcs = [(u + 1, v + 1) for u in range(n) for v in range(n) if u != v and rng.random() < p]
        return make_graph(n, True, arcs)
    edges = [(u + 1, v + 1) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return _of_kind(make_graph(n, False, edges), kind)


def family(name: str, n: int, kind: str) -> Graph:
    """The graph ``hamb gen --model <family>`` writes."""
    if name == "complete":
        pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    elif name == "cycle":
        pairs = [(u, u + 1) for u in range(1, n)] + [(n, 1)]
    else:
        pairs = [(u, u + 1) for u in range(1, n)]
    if kind != "digraph":
        return _of_kind(make_graph(n, False, pairs), kind)
    if name == "complete":
        pairs += [(v, u) for u, v in pairs]
    return make_graph(n, True, pairs)


def _of_kind(g: Graph, kind: str) -> Graph:
    return g if kind == "undirected" else make_graph(g.n, True, g.arcs())


def relabeling(n: int, seed: int) -> list[int]:
    """A seeded permutation of 1..n that keeps vertex 1 in place.

    Relabeling leaves every cycle count unchanged, and fixing vertex 1 keeps
    the ``follow-path:1`` walk isomorphic, so its variance does not depend on
    the seed.
    """
    rest = list(range(2, n + 1))
    random.Random(seed).shuffle(rest)
    return [1] + rest


def _matrix(g: Graph) -> np.ndarray:
    a = np.zeros((g.n, g.n), dtype=np.int64)
    for u, v in g.arcs():
        a[u - 1, v - 1] = 1
    return a


@functools.cache
def directed_cycles(g: Graph) -> int:
    """Directed Hamiltonian cycles of g's directed image (n >= 2).

    dp[S, j] counts paths from vertex 1 through exactly the vertices in S
    (a subset of 2..n) ending at j; subsets are filled by popcount layer.
    """
    n = g.n
    if n > COUNT_MAX_N:
        raise ValueError(f"reference counts need n <= {COUNT_MAX_N}, got {n}")
    a = _matrix(g)
    k = n - 1
    masks = np.arange(1 << k)
    popcount = np.zeros(1 << k, dtype=np.int64)
    for j in range(k):
        popcount += masks >> j & 1
    dp = np.zeros((1 << k, k), dtype=np.int64)
    for j in range(k):
        dp[1 << j, j] = a[0, j + 1]
    inner = a[1:, 1:]
    for size in range(2, k + 1):
        layer = masks[popcount == size]
        for j in range(k):
            ends_j = layer[layer >> j & 1 == 1]
            dp[ends_j, j] = dp[ends_j ^ (1 << j)] @ inner[:, j]
    return int(dp[-1] @ a[1:, 0])


def cycle_count(g: Graph) -> int:
    """The count ``hamb exact`` prints: directed cycles, halved if undirected."""
    count = directed_cycles(g)
    if g.directed:
        return count
    if count % 2:
        raise ValueError("a symmetric image must have an even directed count")
    return count // 2


def permanent(g: Graph) -> int:
    """The permanent of g's directed image (n <= 19).

    Ryser's formula runs modulo each of ``PRIMES`` and the residues are
    combined by CRT; the permanent is at most n! < PRIMES[0] * PRIMES[1].
    """
    n = g.n
    if n > COUNT_MAX_N - 1:
        raise ValueError(f"reference permanents need n <= {COUNT_MAX_N - 1}, got {n}")
    a = _matrix(g)
    subsets = np.arange(1, 1 << n)
    cols = subsets[:, None] >> np.arange(n) & 1
    sums = cols @ a.T
    odd = (n - cols.sum(axis=1)) % 2 == 1
    residues = []
    for p in PRIMES:
        prod = np.ones(len(subsets), dtype=np.int64)
        for i in range(n):
            prod = prod * sums[:, i] % p
        residues.append(int((prod[~odd].sum() - prod[odd].sum()) % p))
    (r1, r2), (p1, p2) = residues, PRIMES
    return r1 + p1 * ((r2 - r1) * pow(p1, -1, p2) % p2)


def cycle_bounds(g: Graph) -> dict[str, float | Fraction]:
    """Upper bounds on the count ``hamb exact`` prints for g.

    minc and symmetric are exact rationals; bregman is a float to be compared
    with a relative tolerance.
    """
    deg = g.degrees()
    n = g.n
    shift = 0 if g.directed else 1
    out: dict[str, float | Fraction] = {
        "minc": Fraction(math.prod(d + 1 for d in deg), 2 ** (n + shift)),
        # A zero row contributes a factor 1, as hamb prints it; the count is then 0.
        "bregman": math.exp(sum(math.lgamma(d + 1) / d for d in deg if d)) / 2**shift,
    }
    if n >= 3 and (not g.directed or set(g.pairs) == {(v, u) for u, v in g.pairs}):
        out["symmetric"] = Fraction(math.prod(deg), 2 ** (n - 1 + shift))
    return out
