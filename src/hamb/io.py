"""Graph and table-policy file formats.

Two graph formats are accepted.  The text format starts with a header line
``n m kind`` (kind is ``directed`` or ``undirected``) followed by m lines
``u v`` with 1-based labels; the object format is a JSON document with keys
``n``, ``kind``, ``edges``.  Malformed input raises :class:`ParseError` with
the line (and, for a bad label, the column) of the fault.  A table-policy
file holds one row of integers per line.
"""
from __future__ import annotations

import json
import re
from pathlib import Path

from .errors import GraphSizeError, ParseError, PolicyError
from .estimator import RowOrderPolicy
from .graphs import DiGraph, UndiGraph, build_digraph, build_undigraph, max_vertices


def parse_graph(text: str, fmt: str | None = None) -> DiGraph | UndiGraph:
    """Parse either accepted format; ``fmt`` forces one, otherwise sniff."""
    if fmt is None:
        fmt = "object" if text.lstrip()[:1] == "{" else "text"
    if fmt == "object":
        return _parse_object(text)
    if fmt == "text":
        return _parse_text(text)
    raise ValueError(f"unknown format {fmt!r}")


def _parse_header_int(token: str, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"{what} must be an integer, got {token!r}", line=1) from None


def _parse_text(text: str) -> DiGraph | UndiGraph:
    lines = text.splitlines()
    if not lines or not lines[0].strip():
        raise ParseError("missing header line 'n m kind'", line=1)
    tokens = lines[0].split()
    if len(tokens) != 3:
        raise ParseError(f"header must be 'n m kind', got {lines[0]!r}", line=1)
    n = _parse_header_int(tokens[0], "n")
    m = _parse_header_int(tokens[1], "m")
    kind = tokens[2]
    if kind not in ("directed", "undirected"):
        raise ParseError(f"kind must be 'directed' or 'undirected', got {kind!r}", line=1)
    if n < 1:
        raise ParseError(f"n must be >= 1, got {n}", line=1)
    if m < 0:
        raise ParseError(f"m must be >= 0, got {m}", line=1)
    if n > max_vertices():
        raise GraphSizeError(f"line 1: n={n} exceeds the vertex cap of {max_vertices()}")
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(lines[1:], start=2):
        toks = list(re.finditer(r"\S+", raw))
        if not toks:
            continue
        if len(toks) != 2:
            raise ParseError(f"edge line must be 'u v', got {raw!r}", line=lineno)
        pair = []
        for tok in toks:
            try:
                pair.append(int(tok[0]))
            except ValueError:
                raise ParseError(
                    f"vertex label must be an integer, got {tok[0]!r}", line=lineno, col=tok.start() + 1
                ) from None
        u, v = pair
        _check_edge(u, v, n, lineno)
        edges.append((u, v))
    if len(edges) != m:
        raise ParseError(f"header declares {m} edges but {len(edges)} edge lines found", line=1)
    return _build(kind, n, edges)


def _build(kind: str, n: int, pairs: list[tuple[int, int]]) -> DiGraph | UndiGraph:
    return (build_digraph if kind == "directed" else build_undigraph)(n, pairs)


def _check_edge(u: int, v: int, n: int, lineno: int | None = None, index: int | None = None):
    where = f"edges[{index}]: " if index is not None else ""
    if u == v:
        raise ParseError(f"{where}self-loop {u} {v}", line=lineno)
    if not (1 <= u <= n and 1 <= v <= n):
        raise ParseError(f"{where}vertex label out of range 1..{n}: {u} {v}", line=lineno)


def _parse_object(text: str) -> DiGraph | UndiGraph:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid object syntax: {e.msg}", line=e.lineno, col=e.colno) from None
    if not isinstance(obj, dict):
        raise ParseError("object form must be a JSON object with keys n, kind, edges")
    extra = set(obj) - {"n", "kind", "edges"}
    missing = {"n", "kind", "edges"} - set(obj)
    if extra or missing:
        raise ParseError(
            f"object form needs exactly keys n, kind, edges (missing: {sorted(missing)}, unknown: {sorted(extra)})"
        )
    n = obj["n"]
    kind = obj["kind"]
    edges = obj["edges"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ParseError(f"n must be a positive integer, got {n!r}")
    if kind not in ("directed", "undirected"):
        raise ParseError(f"kind must be 'directed' or 'undirected', got {kind!r}")
    if n > max_vertices():
        raise GraphSizeError(f"n={n} exceeds the vertex cap of {max_vertices()}")
    if not isinstance(edges, list):
        raise ParseError("edges must be a list of [u, v] pairs")
    pairs: list[tuple[int, int]] = []
    for idx, e in enumerate(edges):
        if not (isinstance(e, list) and len(e) == 2 and all(isinstance(x, int) and not isinstance(x, bool) for x in e)):
            raise ParseError(f"edges[{idx}]: must be a pair of integers, got {e!r}")
        u, v = e
        _check_edge(u, v, n, index=idx)
        pairs.append((u, v))
    return _build(kind, n, pairs)


def serialize_graph(g: DiGraph | UndiGraph, fmt: str = "text") -> str:
    directed = isinstance(g, DiGraph)
    pairs = g.arcs() if directed else g.edge_list()
    kind = "directed" if directed else "undirected"
    if fmt == "text":
        lines = [f"{g.n} {len(pairs)} {kind}"]
        lines.extend(f"{u} {v}" for u, v in pairs)
        return "\n".join(lines) + "\n"
    if fmt == "object":
        obj = {"n": g.n, "kind": kind, "edges": [[u, v] for u, v in pairs]}
        return json.dumps(obj, indent=2, sort_keys=True) + "\n"
    raise ValueError(f"unknown format {fmt!r}")


def load_table_policy(path: str) -> RowOrderPolicy:
    """Read a table-policy file; :class:`RowOrderPolicy` checks its shape."""
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise PolicyError(f"cannot read table file {path}: {e}") from None
    rows: list[list[int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip():
            continue
        try:
            rows.append([int(tok) for tok in raw.split()])
        except ValueError:
            raise PolicyError(f"table file {path} line {lineno}: entries must be integers") from None
    if not rows:
        raise PolicyError(f"table file {path} is empty")
    return RowOrderPolicy.from_table(rows)
