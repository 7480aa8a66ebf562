"""Command-line front end: the six subcommands.

The graph and table file formats live in :mod:`hamb.io`; ``parse_graph`` and
``serialize_graph`` are re-exported here.  Reports go to stdout and are
byte-identical for identical inputs; wall-clock timing goes to stderr only.
Integer flags and specs read through :func:`hamb.io.read_int`, the grammar of
graph files, ``--p`` as an ASCII decimal, and the parser checks each flag's
range before a handler runs.
On success its last line is ``elapsed-ms``, the time from argument parsing to
the end of the report.  It leaves out the process's exit, and its start-up,
including the modules that ``_COMMANDS`` lists beside each handler and loads
first: the hamb modules that a command runs whatever its input (and
``hamb.exact`` for every ``compare``), with numpy for ``estimate`` and
``selftest``.  A module that only some inputs need loads where it is used,
inside the clock: numpy for an exact count above n = 12, and ``hamb.bounds``
for a permanent there, ``hamb.exact`` for the count that ``bounds`` prints up
to n = 16, ``json`` for ``--json``, and for a file digest CPython's built-in
SHA-256 (``hashlib``, with OpenSSL, only where the interpreter lacks it).
``fractions`` loads inside the clock too, where a command first builds a
rational: ``estimate`` builds its report's after its trials.  Every seeded
draw, the estimator's trials included, comes from :mod:`hamb.pcg`, so no
command loads ``numpy.random``; ``gen`` loads no numpy at all.  The parser holds every
subcommand but only the arguments of the one it runs.  A process, which enters
through :func:`run`, freezes the garbage collector before it exits and runs
numpy with one BLAS thread unless ``OPENBLAS_NUM_THREADS`` is set.
Counts are printed as decimal strings, exact rationals as
``numerator/denominator``, reals with 15 significant digits.

Exit codes: 0 success, 1 usage error, 2 input error, 3 size-limit error,
4 selftest failure.
"""
from __future__ import annotations

import argparse
import functools
import gc
import importlib
import math
import os
import re
import sys
import time
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import GraphSizeError, ParseError, PolicyError
from .graphs import FAMILIES, GRAPH_KINDS, HARD_MAX_N, DiGraph, UndiGraph, gen_family, gen_gnp, row_sums
from .io import load_table_policy, parse_graph, read_int, serialize_graph, sha256_hex

if TYPE_CHECKING:
    from fractions import Fraction

    from .bounds import BoundValue
    from .estimator import RowOrderPolicy

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


# ---------------------------------------------------------------------------
# Policy specs


def _parse_policy_spec(spec: str) -> RowOrderPolicy:
    from .estimator import RowOrderPolicy

    if spec == "ascending":
        return RowOrderPolicy.ascending()
    if spec.startswith("follow-path:"):
        arg = spec.split(":", 1)[1]
        try:
            start = read_int(arg)
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


def _emit_fields(args, fields: dict) -> None:
    if args.json:
        import json

        print(json.dumps(fields, indent=2, sort_keys=True))
    else:
        for key, value in fields.items():
            print(f"{key}: {value}")


def _read_input(args) -> tuple[DiGraph | UndiGraph, dict[str, str]]:
    data = Path(args.input).read_bytes()
    g = parse_graph(data.decode("utf-8-sig"), args.format)
    fields = {
        "input": args.input,
        "input-sha256": sha256_hex(data),
        "kind": "directed" if isinstance(g, DiGraph) else "undirected",
        "n": str(g.n),
    }
    return g, fields


# ---------------------------------------------------------------------------
# Commands


def _cmd_exact(args) -> int:
    from . import exact

    g, info = _read_input(args)
    fields = {"command": "exact", **info, "method": args.method}
    counter = {"dp": exact.ham_dp, "brute": exact.ham_bruteforce, "permanent": exact.permanent_ryser}[args.method]
    if isinstance(g, UndiGraph) and args.method == "permanent":
        fields["note"] = "permanent of the doubled directed image"
    elif isinstance(g, UndiGraph):  # half the count of the doubled image
        counter = functools.partial(exact.ham_undirected, method=args.method)
    fields["count"] = str(counter(g))
    _emit_fields(args, fields)
    return EXIT_OK


def _cmd_estimate(args) -> int:
    from .estimator import MAX_TRIALS, estimate

    if args.trials > MAX_TRIALS:
        raise UsageError(f"--trials must be <= 2^64, got {args.trials}")
    policy = _parse_policy_spec(args.policy)
    g, info = _read_input(args)
    undirected = isinstance(g, UndiGraph)
    if undirected and g.n < 3:
        raise ValueError("undirected estimation needs n >= 3 (the halved estimate assumes it)")
    report = estimate(g, policy, args.trials, args.seed)  # an UndiGraph's rows are its doubled image's
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
    from .bounds import digraph_bounds, undirected_bounds

    g, info = _read_input(args)
    fields = {"command": "bounds", **info}
    undirected = isinstance(g, UndiGraph)
    report = (undirected_bounds if undirected else digraph_bounds)(g)
    count = None
    if g.n <= COUNT_FEASIBLE_N:
        from .exact import ham_dp, ham_undirected

        count = (ham_undirected if undirected else ham_dp)(g)
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
    lo_s, dots, hi_s = spec.partition("..")
    hi_s = hi_s if dots else lo_s
    try:
        lo, hi = read_int(lo_s), read_int(hi_s)
    except ValueError:
        raise UsageError(f"--n must be '<a>..<b>' or a single integer, got {spec!r}") from None
    if lo > hi:
        raise UsageError(f"--n range is empty: {spec!r}")
    if lo < 3:
        raise UsageError(f"--n must start at 3 or above (the symmetric bound needs n >= 3), got {lo}")
    return lo, hi


def _check_draw_args(args, flag: str, choice: str, n: int) -> None:
    """The rules that span ``compare``'s and ``gen``'s flags (the parser checks each flag's
    range): a cycle needs ``n`` >= 3, the smallest n drawn, and gnp needs ``--p``."""
    if choice == "cycle" and n < 3:
        raise UsageError(f"--n must be >= 3 for {flag} cycle, got {n}")
    if choice == "gnp" and args.p is None:
        raise UsageError(f"--p is required for {flag} gnp")


def _cmd_compare(args) -> int:
    from .bounds import dominance_compare
    from .exact import ham_dp

    lo, hi = _parse_range(args.n)
    _check_draw_args(args, "--family", args.family, lo)
    if hi > HARD_MAX_N:
        raise GraphSizeError(f"n={max(lo, HARD_MAX_N + 1)} exceeds the vertex cap of {HARD_MAX_N}")
    rows = []
    for n in range(lo, hi + 1):
        if args.family == "gnp":
            g = gen_gnp(n, args.p, args.seed, kind="symmetric-digraph")
        else:
            g = gen_family(args.family, n, kind="symmetric-digraph")
        r = row_sums(g)
        record = dominance_compare(r)
        exact_count = str(ham_dp(g)) if n <= COUNT_FEASIBLE_N else ""
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
    if args.json:
        doc = {
            "command": "compare",
            "family": args.family,
            "n": f"{lo}..{hi}" if ".." in args.n else str(lo),
            "rows": rows,
        }
        if args.family == "gnp":
            doc["p"] = _fmt_real(args.p)
            doc["seed"] = str(args.seed)
        _emit_fields(args, doc)
    else:  # no field needs quoting: integers, ';'-joined degrees, reals, true/false
        print(",".join(rows[0]))
        for row in rows:
            print(",".join(row.values()))
    return EXIT_OK


def _cmd_gen(args) -> int:
    _check_draw_args(args, "--model", args.model, args.n)
    if args.model == "gnp":
        g = gen_gnp(args.n, args.p, args.seed, kind=args.kind)
    else:
        g = gen_family(args.model, args.n, kind=args.kind)
    payload = serialize_graph(g, args.format).encode("utf-8")
    Path(args.out).write_bytes(payload)
    fields = {
        "command": "gen",
        "model": args.model,
        "n": str(args.n),
        "kind": args.kind,
        "seed": str(args.seed),
        "out": args.out,
        "graph-sha256": sha256_hex(payload),
    }
    if args.model == "gnp":
        fields["p"] = _fmt_real(args.p)
    _emit_fields(args, fields)
    return EXIT_OK


def _cmd_selftest(args) -> int:
    from .selftest import run_selftest

    return EXIT_OK if run_selftest() else EXIT_SELFTEST


# ---------------------------------------------------------------------------
# Parser and dispatch


def _at_least(minimum: int):
    """An argparse type: an integer of :func:`hamb.io.read_int`'s grammar, at least ``minimum``."""
    def integer(text: str) -> int:  # argparse names it: "invalid integer value: '1_0'"
        value = read_int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value
    return integer


def _probability(text: str) -> float:
    """An argparse type: an ASCII decimal (sign, digits with at most one point, exponent) in [0, 1]."""
    if not re.fullmatch(r"[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?", text):
        raise argparse.ArgumentTypeError(f"must be an ASCII decimal such as 0.5, got {text!r}")
    p = float(text) + 0.0  # -0 draws what 0 draws, so it prints as 0
    if not 0.0 <= p <= 1.0:
        raise argparse.ArgumentTypeError(f"must be in [0, 1], got {p}")
    return p


def _build_parser(cmd: str | None) -> _Parser:
    """The parser of every subcommand, with the arguments only of ``cmd`` when
    it names one (a process runs one command), else of them all."""
    parser = _Parser(prog="hamb", description="Count, estimate, and bound Hamiltonian cycles.")
    sub = parser.add_subparsers(dest="cmd", required=True)

    def add(name: str, summary: str) -> _Parser | None:
        p = sub.add_parser(name, help=summary)
        return p if cmd == name or cmd not in _COMMANDS else None

    def add_input_flags(p):
        p.add_argument("--input", required=True, help="graph file path")
        p.add_argument("--format", choices=["text", "object"], default=None, help="input format (default: sniff)")
        p.add_argument("--json", action="store_true", help="emit the report as JSON")

    if p := add("exact", "exact cycle count or permanent"):
        add_input_flags(p)
        p.add_argument("--method", choices=["dp", "brute", "permanent"], default="dp")

    if p := add("estimate", "unbiased Monte Carlo estimate"):
        add_input_flags(p)
        p.add_argument("--trials", type=_at_least(1), required=True)
        p.add_argument("--seed", type=_at_least(0), default=0)
        p.add_argument("--policy", default="ascending", help="ascending | follow-path:<v> | table:<path>")

    if p := add("bounds", "upper bounds and tightness"):
        add_input_flags(p)

    if p := add("compare", "sweep bounds across a graph family"):
        p.add_argument("--family", choices=list(FAMILIES) + ["gnp"], required=True)
        p.add_argument("--n", required=True, help="range '<a>..<b>' or a single n")
        p.add_argument("--p", type=_probability, default=None)
        p.add_argument("--seed", type=_at_least(0), default=0)
        p.add_argument("--json", action="store_true")

    if p := add("gen", "write a generated graph file"):
        p.add_argument("--model", choices=list(FAMILIES) + ["gnp"], required=True)
        p.add_argument("--n", type=_at_least(1), required=True)
        p.add_argument("--p", type=_probability, default=None)
        p.add_argument("--seed", type=_at_least(0), default=0)
        p.add_argument("--kind", choices=list(GRAPH_KINDS), default="undirected")
        p.add_argument("--out", required=True)
        p.add_argument("--format", choices=["text", "object"], default="text")
        p.add_argument("--json", action="store_true")

    add("selftest", "run the built-in verification suites")

    return parser


# Each command's handler and the hamb modules it loads before the elapsed-ms
# clock starts (see the module docstring).
_COMMANDS = {
    "exact": (_cmd_exact, (".exact",)),
    "estimate": (_cmd_estimate, (".estimator",)),
    "bounds": (_cmd_bounds, (".bounds",)),
    "compare": (_cmd_compare, (".exact", ".bounds")),
    "gen": (_cmd_gen, ()),
    "selftest": (_cmd_selftest, (".selftest", "numpy")),
}


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    cmd = argv[0] if argv else None
    parser = _build_parser(cmd)
    _, preload = _COMMANDS.get(cmd, (None, ()))
    for module in preload:
        importlib.import_module(module, __package__)
    started = time.perf_counter()
    try:
        args = parser.parse_args(argv)
        code = _COMMANDS[args.cmd][0](args)
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
    """Entry point of ``python -m hamb`` and the ``hamb`` script.

    hamb calls no BLAS routine, so numpy gets one BLAS thread unless the user
    set ``OPENBLAS_NUM_THREADS``.  Freezing the collector once the report is
    out lets shutdown skip the objects the process made; atexit handlers and
    the flush of stdout and stderr still run.  :func:`main` does neither.
    """
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    code = main()
    gc.freeze()
    sys.exit(code)
