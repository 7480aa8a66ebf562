"""Graph and table-policy file formats.

Two graph formats are accepted.  The text format starts with a header line
``n m kind`` (kind is ``directed`` or ``undirected``) followed by m lines
``u v`` with 1-based labels; the object format is a JSON document with keys
``n``, ``kind``, ``edges``.  Malformed input raises :class:`ParseError` with
the line (and, for a bad label, the column) of the fault.  A table-policy
file holds one row of integers per line.  Both text formats read through
:func:`_scan`: a line ends only at ``\\n``, ``\\r\\n`` or ``\\r``, tokens are
separated only by ASCII space, tab, vertical tab and form feed, and a line of
nothing but whitespace is blank.  An integer is ASCII digits with an optional
sign.  Graph and table files decode as UTF-8, past a leading byte-order mark.
"""
from __future__ import annotations

import re
from pathlib import Path
from typing import TYPE_CHECKING, Iterator

from .errors import GraphSizeError, ParseError, PolicyError
from .graphs import HARD_MAX_N, DiGraph, UndiGraph, build_digraph, build_undigraph

if TYPE_CHECKING:
    from .estimator import RowOrderPolicy


def parse_graph(text: str, fmt: str | None = None) -> DiGraph | UndiGraph:
    """Parse either accepted format; ``fmt`` forces one, otherwise sniff."""
    if fmt is None:
        fmt = "object" if text.lstrip()[:1] == "{" else "text"
    if fmt == "object":
        return _parse_object(text)
    if fmt == "text":
        return _parse_text(text)
    raise ValueError(f"unknown format {fmt!r}")


_TOKEN = re.compile(r"[^ \t\v\f]+")  # so "1\u30002" is one token, and no integer


def _scan(text: str) -> Iterator[tuple[int, str, list[re.Match]]]:
    """Each non-blank line of ``text``: its 1-based number, the line and its tokens."""
    for lineno, line in enumerate(re.split(r"\r\n?|\n", text), start=1):
        if line.strip():
            yield lineno, line, list(_TOKEN.finditer(line))


def read_int(token: str) -> int:
    """``token`` as an integer, or ValueError: the program's one integer grammar, for files and
    flags alike (``int`` alone also takes ``1_0``, `` 10`` and non-ASCII digits such as ``１``)."""
    if not re.fullmatch(r"[+-]?[0-9]+", token):
        raise ValueError(token)
    return int(token)


def _parse_header_int(token: str, what: str) -> int:
    try:
        return read_int(token)
    except ValueError:
        raise ParseError(f"{what} must be an integer, got {token!r}", line=1) from None


def _parse_text(text: str) -> DiGraph | UndiGraph:
    lines = _scan(text)
    lineno, header, tokens = next(lines, (0, "", []))
    if lineno != 1:
        raise ParseError("missing header line 'n m kind'", line=1)
    if len(tokens) != 3:
        raise ParseError(f"header must be 'n m kind', got {header!r}", line=1)
    n = _parse_header_int(tokens[0][0], "n")
    m = _parse_header_int(tokens[1][0], "m")
    kind = tokens[2][0]
    if kind not in ("directed", "undirected"):
        raise ParseError(f"kind must be 'directed' or 'undirected', got {kind!r}", line=1)
    if n < 1:
        raise ParseError(f"n must be >= 1, got {n}", line=1)
    if m < 0:
        raise ParseError(f"m must be >= 0, got {m}", line=1)
    if n > HARD_MAX_N:
        raise GraphSizeError(f"line 1: n={n} exceeds the vertex cap of {HARD_MAX_N}")
    edges: list[tuple[int, int]] = []
    for lineno, raw, toks in lines:
        if len(toks) != 2:
            raise ParseError(f"edge line must be 'u v', got {raw!r}", line=lineno)
        pair = []
        for tok in toks:
            try:
                pair.append(read_int(tok[0]))
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
    import json

    try:
        obj = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid object syntax: {e.msg}", line=e.lineno, col=e.colno) from None
    except RecursionError:
        raise ParseError("invalid object syntax: nested too deeply") from None
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
    if n > HARD_MAX_N:
        raise GraphSizeError(f"n={n} exceeds the vertex cap of {HARD_MAX_N}")
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


def _unique_keys(pairs: list) -> dict:
    """A JSON object's dict, or ParseError on a repeated key (``json`` keeps the last)."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ParseError(f"duplicate key {key!r} in object form")
        obj[key] = value
    return obj


def serialize_graph(g: DiGraph | UndiGraph, fmt: str = "text") -> str:
    directed = isinstance(g, DiGraph)
    pairs = g.arcs() if directed else g.edge_list()
    kind = "directed" if directed else "undirected"
    if fmt == "text":
        lines = [f"{g.n} {len(pairs)} {kind}"]
        lines.extend(f"{u} {v}" for u, v in pairs)
        return "\n".join(lines) + "\n"
    if fmt == "object":
        import json

        obj = {"n": g.n, "kind": kind, "edges": [[u, v] for u, v in pairs]}
        return json.dumps(obj, indent=2, sort_keys=True) + "\n"
    raise ValueError(f"unknown format {fmt!r}")


def sha256_hex(data: bytes) -> str:
    """The SHA-256 of ``data`` in hex, from CPython's built-in SHA-256.

    ``hashlib`` maps OpenSSL's libcrypto, which adds ~3.5 MB of RSS and a
    clean-up at exit to a process that hashes one file, so it serves only an
    interpreter built without the lean module (as ``Lib/random.py`` does).
    """
    try:
        from _sha2 import sha256  # Python 3.12+
    except ImportError:
        try:
            from _sha256 import sha256  # Python 3.10-3.11
        except ImportError:
            from hashlib import sha256
    return sha256(data).hexdigest()


def load_table_policy(path: str) -> RowOrderPolicy:
    """Read a table-policy file; :class:`RowOrderPolicy` checks its shape."""
    from .estimator import RowOrderPolicy

    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as e:
        raise PolicyError(f"cannot read table file {path}: {e}") from None
    rows: list[list[int]] = []
    for lineno, _, toks in _scan(text):
        try:
            rows.append([read_int(tok[0]) for tok in toks])
        except ValueError:
            raise PolicyError(f"table file {path} line {lineno}: entries must be integers") from None
    if not rows:
        raise PolicyError(f"table file {path} is empty")
    return RowOrderPolicy.from_table(rows)
