"""Traced in-process replay of one workload pass.

Each hamb process of the pass is replayed as the calls its command makes into
hamb's public functions, with a span recorded around each call at a layer
boundary.  The same pass also runs through ``hamb.cli.main`` in-process,
which checks the outputs and gives the CLI's own overhead, and once more with
spans switched off, which gives the tracing overhead.  Importing this module
imports hamb, so only the traced run does.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import statistics
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from hamb import cli
from hamb.bounds import digraph_bounds, dominance_compare, undirected_bounds
from hamb.estimator import trial_stream, trial_with_policy
from hamb.exact import ham_bruteforce, ham_dp, ham_undirected, permanent_ryser
from hamb.graphs import (
    UndiGraph,
    build_digraph,
    build_undigraph,
    gen_family,
    gen_gnp,
    row_sums,
    to_symmetric_digraph,
)
from hamb.selftest import run_selftest

from workloads import COUNT_FEASIBLE_N, Proc, Workload, parse_report

POLICIES = ("ascending", "follow-path", "table")
# Span name prefixes whose share of the replayed time is reported.
LAYERS = ("cli", "graphs", "estimator", "exact", "bounds", "selftest")
EXACT_FUNCS = {"dp": ham_dp, "brute": ham_bruteforce, "permanent": permanent_ryser}


class Tracer:
    """Keeps spans in memory as [id, parent, name, n, start_ns, end_ns]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack = [-1]

    def span(self, name: str, n: int = 0) -> "_Span":
        return _Span(self, [len(self.spans), self._stack[-1], name, n, 0, 0])


class _Span:
    __slots__ = ("tracer", "rec")

    def __init__(self, tracer: Tracer, rec: list):
        self.tracer, self.rec = tracer, rec

    def __enter__(self):
        self.tracer.spans.append(self.rec)
        self.tracer._stack.append(self.rec[0])
        self.rec[4] = time.perf_counter_ns()

    def __exit__(self, *exc):
        self.rec[5] = time.perf_counter_ns()
        self.tracer._stack.pop()


class NullTracer:
    """The untraced replay: the same calls with no spans recorded."""

    _null = contextlib.nullcontext()

    def span(self, name: str, n: int = 0):
        return self._null


@dataclass
class TrialStats:
    """Exact aggregates of the replayed trials of one policy."""

    trials: int = 0
    zeros: int = 0
    total: int = 0
    total_sq: int = 0
    death_steps: int = 0

    def add(self, value: int, p_factors: tuple[int, ...]) -> None:
        self.trials += 1
        self.total += value
        self.total_sq += value * value
        if value == 0:
            self.zeros += 1
            self.death_steps += p_factors.index(0) + 1

    def relvar(self) -> float:
        """Sample variance over the squared mean (0 when undefined)."""
        if self.trials < 2 or self.total == 0:
            return 0.0
        n = self.trials
        var = (self.total_sq - self.total * self.total / n) / (n - 1)
        return var / (self.total / n) ** 2


def replay(proc: Proc, tr, stats: dict[str, TrialStats]) -> dict:
    """Make ``proc``'s calls into hamb; returns the report fields they determine."""
    cmd, opt = proc.command, proc.opt
    if cmd in ("exact", "estimate", "bounds"):
        with tr.span("cli.parse"):
            g = cli.parse_graph(Path(opt("--input")).read_text(), opt("--format"))
        undirected = isinstance(g, UndiGraph)
    if cmd == "exact":
        method = opt("--method", "dp")
        if undirected and method != "permanent":
            with tr.span("exact.ham_undirected", g.n):
                return {"count": str(ham_undirected(g, method=method))}
        if undirected:
            with tr.span("graphs.build"):
                g = to_symmetric_digraph(g)
        fn = EXACT_FUNCS[method]
        with tr.span("exact." + fn.__name__, g.n):
            return {"count": str(fn(g))}
    if cmd == "estimate":
        policy = cli._parse_policy_spec(opt("--policy"))
        if undirected:
            with tr.span("graphs.build"):
                g = to_symmetric_digraph(g)
        seed, trials = int(opt("--seed")), proc.trials
        agg = stats.setdefault(policy.kind, TrialStats())
        name = "estimator.trial." + policy.kind
        total = 0
        for t in range(trials):
            with tr.span("estimator.trial_stream"):
                stream = trial_stream(seed, t)
            with tr.span(name, g.n):
                outcome = trial_with_policy(g, policy, stream)
            agg.add(outcome.value, outcome.p_factors)
            total += outcome.value
        return {"sum": str(total)}
    if cmd == "bounds":
        fields = {}
        if undirected:
            with tr.span("bounds.undirected_bounds"):
                undirected_bounds(g)
            if g.n <= COUNT_FEASIBLE_N:
                with tr.span("exact.ham_undirected", g.n):
                    fields["count"] = str(ham_undirected(g))
        else:
            with tr.span("bounds.digraph_bounds"):
                digraph_bounds(g)
            if g.n <= COUNT_FEASIBLE_N:
                with tr.span("exact.ham_dp", g.n):
                    fields["count"] = str(ham_dp(g))
        return fields
    if cmd == "compare":
        lo, hi = (int(x) for x in opt("--n").split(".."))
        family, exact = opt("--family"), []
        for n in range(lo, hi + 1):
            if family == "gnp":
                with tr.span("graphs.gen_gnp"):
                    g = gen_gnp(n, float(opt("--p")), int(opt("--seed", "0")), kind="symmetric-digraph")
            else:
                with tr.span("graphs.gen_family"):
                    g = gen_family(family, n, kind="symmetric-digraph")
            with tr.span("bounds.dominance_compare"):
                dominance_compare(row_sums(g))
            if n <= COUNT_FEASIBLE_N:
                with tr.span("exact.ham_dp", n):
                    exact.append(str(ham_dp(g)))
            else:
                exact.append("")
        return {"exact": exact}
    if cmd == "gen":
        n, kind = int(opt("--n")), opt("--kind", "undirected")
        if opt("--model") == "gnp":
            with tr.span("graphs.gen_gnp"):
                g = gen_gnp(n, float(opt("--p")), int(opt("--seed", "0")), kind=kind)
        else:
            with tr.span("graphs.gen_family"):
                g = gen_family(opt("--model"), n, kind=kind)
        with tr.span("cli.serialize"):
            payload = cli.serialize_graph(g, opt("--format", "text")).encode()
        return {"graph-sha256": hashlib.sha256(payload).hexdigest()}
    if cmd == "selftest":
        with tr.span("selftest.run"):
            return {"selftest": "PASS" if run_selftest(emit=lambda line: None) else "FAIL"}
    raise ValueError(f"no replay for command {cmd!r}")


def _mismatches(proc: Proc, stdout: str, replayed: dict) -> list[str]:
    report = parse_report(proc, stdout)
    if proc.command == "compare":
        report = {"exact": [row["exact"] for row in report]}
    return [f"replayed {k}={v!r} but the CLI printed {report.get(k)!r}"
            for k, v in replayed.items() if report.get(k) != v]


def _rebuild(wl: Workload, tr: Tracer) -> None:
    """Time the graph constructors on each input's pairs (parse_graph calls them internally)."""
    for g in wl.inputs.values():
        with tr.span("graphs.build"):
            (build_digraph if g.directed else build_undigraph)(g.n, g.pairs)


# Each process runs twice in each way, in this mirrored order, and the faster
# of each pair counts: machine speed drifts by tens of percent over seconds.
ORDER = ("main", "plain", "traced", "traced", "plain", "main")


def trace_pass(wl: Workload, procs: list[Proc], spans_path: Path) -> tuple[dict, int, list[str]]:
    """Run one pass in-process three ways; returns (per-layer metrics, failed, problems).

    ``main`` is ``hamb.cli.main`` with its output checked, ``plain`` the
    replay without spans and ``traced`` the replay with them.  Spans and
    trial statistics come from the second traced run.  A process whose
    replay raises counts as failed and is left out of the timings.
    """
    problems: list[str] = []
    failed = 0
    seconds = {way: 0.0 for way in ORDER}
    tr = Tracer()
    stats: dict[str, TrialStats] = {}
    cwd = os.getcwd()
    os.chdir(wl.workdir)
    try:
        for proc in procs:
            try:
                found, fastest = _trace_process(wl, proc, tr, stats)
            except Exception as e:  # reported as a failed process, like a crashed child
                where = traceback.extract_tb(e.__traceback__)[-1]
                found, fastest = [f"crashed: {type(e).__name__}: {e} ({where.filename}:{where.lineno})"], {}
            for way, s in fastest.items():
                seconds[way] += s
            failed += bool(found)
            problems += [f"{proc.label}: {p}" for p in found]
        _rebuild(wl, tr)
    finally:
        os.chdir(cwd)
    with open(spans_path, "w") as f:
        for rec in tr.spans:
            f.write(json.dumps(rec) + "\n")
    metrics = layer_metrics(tr.spans, stats)
    metrics["cli.main_overhead_s"] = seconds["main"] - seconds["plain"]
    plain = seconds["plain"]
    metrics["trace.overhead_frac"] = (seconds["traced"] - plain) / plain if plain else math.nan
    return metrics, failed, problems


def _trace_process(wl: Workload, proc: Proc, tr: Tracer, stats: dict[str, TrialStats]):
    """Run ``proc`` in the ``ORDER`` ways; returns (problems, fastest seconds per way)."""
    found, stdout, replayed = [], None, {}
    fastest = {way: math.inf for way in ORDER}
    for i, way in enumerate(ORDER):
        out = io.StringIO()
        t0 = time.perf_counter()
        if way == "main":
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(list(proc.argv))
        elif way == "plain":
            replay(proc, NullTracer(), {})
        elif i == ORDER.index("traced"):
            replay(proc, Tracer(), {})
        else:
            with tr.span("proc:" + proc.label):
                replayed = replay(proc, tr, stats)
        fastest[way] = min(fastest[way], time.perf_counter() - t0)
        if way == "main" and stdout is None:
            stdout = out.getvalue()
            found = [f"exit code {code}"] if code else wl.check(proc, stdout)
    return found or _mismatches(proc, stdout, replayed), fastest


def layer_metrics(spans: list[list], stats: dict[str, TrialStats]) -> dict[str, float]:
    """Per-layer metrics from the spans; a layer the pass never calls reads 0."""
    by_name: dict[str, list[float]] = {}
    small_calls, small_s = 0, 0.0
    procs = {rec[0] for rec in spans if rec[2].startswith("proc:")}
    layer_s = dict.fromkeys(LAYERS, 0.0)
    for _, parent, name, n, start, end in spans:
        dur = (end - start) / 1e9
        if parent in procs:
            layer = name.split(".")[0]
            layer_s[layer] = layer_s.get(layer, 0.0) + dur
        if name.startswith("exact.") and n <= COUNT_FEASIBLE_N:
            small_calls += 1
            small_s += dur
            continue
        by_name.setdefault(name, []).append(dur)

    def total(name: str) -> float:
        return sum(by_name.get(name, ()), 0.0)

    def mean_us(name: str) -> float:
        xs = by_name.get(name)
        return statistics.fmean(xs) * 1e6 if xs else 0.0

    m = {
        "cli.parse_s": total("cli.parse"),
        "graphs.gen_gnp_s": total("graphs.gen_gnp"),
        "graphs.build_s": total("graphs.build"),
        "estimator.trial_stream_us": mean_us("estimator.trial_stream"),
    }
    for kind in POLICIES:
        agg = stats.get(kind, TrialStats())
        m[f"estimator.trial_us.{kind}"] = mean_us("estimator.trial." + kind)
        m[f"estimator.zero_fraction.{kind}"] = agg.zeros / agg.trials if agg.trials else 0.0
        m[f"estimator.death_step_mean.{kind}"] = agg.death_steps / agg.zeros if agg.zeros else 0.0
        m[f"estimator.relvar.{kind}"] = agg.relvar()
    for fn in ("ham_dp", "permanent_ryser", "ham_undirected"):
        m[f"exact.{fn}_s"] = total("exact." + fn)
    m["exact.small_calls"] = small_calls
    m["exact.small_total_s"] = small_s
    for fn in ("digraph_bounds", "undirected_bounds", "dominance_compare"):
        m[f"bounds.{fn}_us"] = mean_us("bounds." + fn)
    replayed_s = sum(sum(xs) for name, xs in by_name.items() if name.startswith("proc:"))
    for layer in LAYERS:
        m[f"share.{layer}"] = layer_s[layer] / replayed_s if replayed_s else 0.0
    return m
