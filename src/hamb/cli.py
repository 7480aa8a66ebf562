"""Command-line front end: the six subcommands.

The graph and table file formats live in :mod:`hamb.io`; ``parse_graph`` and
``serialize_graph`` are re-exported here.  Reports go to stdout and are
byte-identical for identical inputs; wall-clock timing goes to stderr only.
Counts are printed as decimal strings, exact rationals as
``numerator/denominator``, reals with 15 significant digits.

Exit codes: 0 success, 1 usage error, 2 input error, 3 size-limit error,
4 selftest failure.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
import time
from fractions import Fraction
from pathlib import Path

from . import exact
from .bounds import BoundValue, digraph_bounds, dominance_compare, undirected_bounds
from .errors import GraphSizeError, ParseError, PolicyError
from .estimator import RowOrderPolicy, estimate
from .graphs import FAMILIES, GRAPH_KINDS, DiGraph, UndiGraph, gen_family, gen_gnp, row_sums, to_symmetric_digraph
from .io import load_table_policy, parse_graph, serialize_graph

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_SIZE = 3
EXIT_SELFTEST = 4

COUNT_FEASIBLE_N = 16


class UsageError(Exception):
    """Bad command-line arguments (exit code 1)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _fmt_fraction(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def _fmt_real(x: float) -> str:
    return f"{x:.15g}"


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# Policy specs


def _parse_policy_spec(spec: str) -> RowOrderPolicy:
    if spec == "ascending":
        return RowOrderPolicy.ascending()
    if spec.startswith("follow-path:"):
        arg = spec.split(":", 1)[1]
        try:
            start = int(arg)
        except ValueError:
            raise UsageError(f"follow-path start must be an integer, got {arg!r}") from None
        if start < 1:
            raise UsageError(f"follow-path start must be >= 1, got {start}")
        return RowOrderPolicy.follow_path(start)
    if spec.startswith("table:"):
        path = spec.split(":", 1)[1]
        if not path:
            raise UsageError("table policy needs a file path, got 'table:'")
        return load_table_policy(path)
    raise UsageError(
        f"policy must be 'ascending', 'follow-path:<v>' or 'table:<path>', got {spec!r}"
    )


# ---------------------------------------------------------------------------
# Report rendering


def _emit_fields(args, fields: dict[str, str]) -> None:
    if getattr(args, "json", False):
        print(json.dumps(fields, indent=2, sort_keys=True))
    else:
        for key, value in fields.items():
            print(f"{key}: {value}")


def _read_input(args) -> tuple[DiGraph | UndiGraph, dict[str, str]]:
    data = Path(args.input).read_bytes()
    g = parse_graph(data.decode("utf-8"), args.format)
    fields = {
        "input": args.input,
        "input-sha256": _digest(data),
        "kind": "directed" if isinstance(g, DiGraph) else "undirected",
        "n": str(g.n),
    }
    return g, fields


# ---------------------------------------------------------------------------
# Commands


def _cmd_exact(args) -> int:
    g, info = _read_input(args)
    fields = {"command": "exact", **info, "method": args.method}
    if isinstance(g, UndiGraph):
        if args.method == "permanent":
            count = exact.permanent_ryser(to_symmetric_digraph(g))
            fields["note"] = "permanent of the doubled directed image"
        else:
            count = exact.ham_undirected(g, method=args.method)
    else:
        fn = {"dp": exact.ham_dp, "brute": exact.ham_bruteforce, "permanent": exact.permanent_ryser}[args.method]
        count = fn(g)
    fields["count"] = str(count)
    _emit_fields(args, fields)
    return EXIT_OK


def _cmd_estimate(args) -> int:
    if args.trials < 1:
        raise UsageError(f"--trials must be >= 1, got {args.trials}")
    if args.seed < 0:
        raise UsageError(f"--seed must be >= 0, got {args.seed}")
    policy = _parse_policy_spec(args.policy)
    g, info = _read_input(args)
    undirected = isinstance(g, UndiGraph)
    if undirected and g.n < 3:
        raise ValueError("undirected estimation needs n >= 3 (the halved estimate assumes it)")
    digraph = to_symmetric_digraph(g) if undirected else g
    report = estimate(digraph, policy, args.trials, args.seed)
    fields = {
        "command": "estimate",
        **info,
        "policy": report.policy,
        "trials": str(report.trials),
        "seed": str(report.seed),
        "sum": str(report.sum),
        "mean": _fmt_fraction(report.mean),
        "sample-variance": _fmt_fraction(report.sample_variance),
        "standard-error": _fmt_real(report.standard_error),
        "zero-fraction": _fmt_real(report.zero_fraction),
    }
    if undirected:
        fields["halved-mean"] = _fmt_fraction(report.mean / 2)
        fields["note"] = "trials run on the doubled directed image; halved-mean estimates undirected cycles"
    _emit_fields(args, fields)
    return EXIT_OK


def _exp_or_inf(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return float("inf")


def _bound_fields(name: str, bound: BoundValue) -> dict[str, str]:
    out: dict[str, str] = {}
    if bound.exact is not None:
        out[name] = _fmt_fraction(bound.exact)
        out[f"{name}-approx"] = _fmt_real(float(bound.exact))
    else:
        out[f"{name}-log-upper"] = _fmt_real(bound.log_upper)
        out[f"{name}-approx"] = _fmt_real(_exp_or_inf(bound.log_upper))
    if bound.integer_cap is not None:
        out[f"{name}-cap"] = str(bound.integer_cap)
    return out


def _cmd_bounds(args) -> int:
    g, info = _read_input(args)
    fields = {"command": "bounds", **info}
    if isinstance(g, UndiGraph):
        report = undirected_bounds(g)
        count = exact.ham_undirected(g) if g.n <= COUNT_FEASIBLE_N else None
    else:
        report = digraph_bounds(g)
        count = exact.ham_dp(g) if g.n <= COUNT_FEASIBLE_N else None
    slots = (("symmetric", report.symmetric), ("bregman", report.bregman), ("minc", report.minc))
    slots = [(name, bound) for name, bound in slots if bound is not None]
    for name, bound in slots:
        fields.update(_bound_fields(name, bound))
    fields["applicable-minimum"] = report.applicable_minimum
    if count is not None:
        fields["count"] = str(count)
        tight = [name for name, bound in slots if bound.integer_cap == count]
        fields["tight"] = ",".join(tight) if tight else "-"
    _emit_fields(args, fields)
    return EXIT_OK


def _parse_range(spec: str) -> tuple[int, int]:
    if ".." in spec:
        lo_s, hi_s = spec.split("..", 1)
    else:
        lo_s = hi_s = spec
    try:
        lo, hi = int(lo_s), int(hi_s)
    except ValueError:
        raise UsageError(f"--n must be '<a>..<b>' or a single integer, got {spec!r}") from None
    if lo > hi:
        raise UsageError(f"--n range is empty: {spec!r}")
    if lo < 3:
        raise UsageError(f"--n must start at 3 or above (the symmetric bound needs n >= 3), got {lo}")
    return lo, hi


def _check_draw_args(args, flag: str, choice: str, n: int) -> None:
    """The --n, --seed and --p checks that ``compare`` and ``gen`` share;
    ``n`` is the smallest vertex count to draw."""
    if n < 1:
        raise UsageError(f"--n must be >= 1, got {n}")
    if args.seed < 0:
        raise UsageError(f"--seed must be >= 0, got {args.seed}")
    if choice == "gnp":
        if args.p is None:
            raise UsageError(f"--p is required for {flag} gnp")
        if not 0.0 <= args.p <= 1.0:
            raise UsageError(f"--p must be in [0, 1], got {args.p}")


def _cmd_compare(args) -> int:
    lo, hi = _parse_range(args.n)
    _check_draw_args(args, "--family", args.family, lo)
    rows = []
    for n in range(lo, hi + 1):
        if args.family == "gnp":
            g = gen_gnp(n, args.p, args.seed, kind="symmetric-digraph")
        else:
            g = gen_family(args.family, n, kind="symmetric-digraph")
        r = row_sums(g)
        record = dominance_compare(r)
        exact_count = str(exact.ham_dp(g)) if n <= COUNT_FEASIBLE_N else ""
        rows.append(
            {
                "n": str(n),
                "degrees": ";".join(str(x) for x in r),
                "symmetric": _fmt_real(float(record.symmetric.exact)),
                "minc": _fmt_real(float(record.minc.exact)),
                "bregman": _fmt_real(_exp_or_inf(record.bregman.log_upper)),
                "exact": exact_count,
                "new_le_minc": "true" if record.new_le_minc else "false",
                "new_le_bregman": "true" if record.new_le_bregman else "false",
            }
        )
    columns = ["n", "degrees", "symmetric", "minc", "bregman", "exact", "new_le_minc", "new_le_bregman"]
    if args.json:
        doc = {
            "command": "compare",
            "family": args.family,
            "n": args.n,
            "rows": rows,
        }
        if args.family == "gnp":
            doc["p"] = _fmt_real(args.p)
            doc["seed"] = str(args.seed)
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        writer = csv.DictWriter(sys.stdout, fieldnames=columns, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    return EXIT_OK


def _cmd_gen(args) -> int:
    _check_draw_args(args, "--model", args.model, args.n)
    if args.model == "gnp":
        g = gen_gnp(args.n, args.p, args.seed, kind=args.kind)
    else:
        g = gen_family(args.model, args.n, kind=args.kind)
    payload = serialize_graph(g, args.format or "text").encode("utf-8")
    Path(args.out).write_bytes(payload)
    fields = {
        "command": "gen",
        "model": args.model,
        "n": str(args.n),
        "kind": args.kind,
        "seed": str(args.seed),
        "out": args.out,
        "graph-sha256": _digest(payload),
    }
    if args.model == "gnp":
        fields["p"] = _fmt_real(args.p)
    _emit_fields(args, fields)
    return EXIT_OK


def _cmd_selftest(args) -> int:
    from .selftest import run_selftest

    ok = run_selftest(corrupt_diagonal=args.corrupt_diagonal, emit=print)
    return EXIT_OK if ok else EXIT_SELFTEST


# ---------------------------------------------------------------------------
# Parser and dispatch


def _build_parser() -> _Parser:
    parser = _Parser(prog="hamb", description="Count, estimate, and bound Hamiltonian cycles.")
    sub = parser.add_subparsers(dest="cmd", required=True)

    def add_input_flags(p):
        p.add_argument("--input", required=True, help="graph file path")
        p.add_argument("--format", choices=["text", "object"], default=None, help="input format (default: sniff)")
        p.add_argument("--json", action="store_true", help="emit the report as JSON")

    p_exact = sub.add_parser("exact", help="exact cycle count or permanent")
    add_input_flags(p_exact)
    p_exact.add_argument("--method", choices=["dp", "brute", "permanent"], default="dp")

    p_est = sub.add_parser("estimate", help="unbiased Monte Carlo estimate")
    add_input_flags(p_est)
    p_est.add_argument("--trials", type=int, required=True)
    p_est.add_argument("--seed", type=int, default=0)
    p_est.add_argument("--policy", default="ascending", help="ascending | follow-path:<v> | table:<path>")

    p_bounds = sub.add_parser("bounds", help="upper bounds and tightness")
    add_input_flags(p_bounds)

    p_cmp = sub.add_parser("compare", help="sweep bounds across a graph family")
    p_cmp.add_argument("--family", choices=list(FAMILIES) + ["gnp"], required=True)
    p_cmp.add_argument("--n", required=True, help="range '<a>..<b>' or a single n")
    p_cmp.add_argument("--p", type=float, default=None)
    p_cmp.add_argument("--seed", type=int, default=0)
    p_cmp.add_argument("--json", action="store_true")

    p_gen = sub.add_parser("gen", help="write a generated graph file")
    p_gen.add_argument("--model", choices=list(FAMILIES) + ["gnp"], required=True)
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--p", type=float, default=None)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--kind", choices=list(GRAPH_KINDS), default="undirected")
    p_gen.add_argument("--out", required=True)
    p_gen.add_argument("--format", choices=["text", "object"], default="text")
    p_gen.add_argument("--json", action="store_true")

    p_self = sub.add_parser("selftest", help="run the built-in verification suites")
    p_self.add_argument("--corrupt-diagonal", action="store_true", help=argparse.SUPPRESS)

    return parser


_DISPATCH = {
    "exact": _cmd_exact,
    "estimate": _cmd_estimate,
    "bounds": _cmd_bounds,
    "compare": _cmd_compare,
    "gen": _cmd_gen,
    "selftest": _cmd_selftest,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    started = time.perf_counter()
    try:
        args = parser.parse_args(argv)
        code = _DISPATCH[args.cmd](args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except ParseError as e:
        print(f"input error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except PolicyError as e:
        print(f"policy error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except GraphSizeError as e:
        print(f"size limit: {e}", file=sys.stderr)
        return EXIT_SIZE
    except (ValueError, OSError) as e:
        print(f"input error: {e}", file=sys.stderr)
        return EXIT_INPUT
    print(f"elapsed-ms: {(time.perf_counter() - started) * 1000.0:.1f}", file=sys.stderr)
    return code


def run() -> None:
    sys.exit(main())
