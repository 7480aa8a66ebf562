"""The benchmark's workloads: generated inputs, hamb command lines, output checks.

Every graph is a fixed G(n, p) draw, the one ``hamb gen`` makes with seed 3,
whose vertex labels the benchmark seed permutes (vertex 1 stays put).
Independent G(20, 0.4) draws differ a thousand-fold in cycle count and
several-fold in estimator variance, and some have no Hamiltonian cycle at
all, so a seed that redrew the graph would move every metric.  A relabeling
gives each seed different input files, table policy and estimator seeds with
the same cycle counts, which are recorded below and recomputed from scratch
by ``oracle`` on every run.
"""
from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import oracle
from oracle import Graph

BASE_SEED = 3
# Counts `hamb exact` prints for the base draws (full size); relabeling keeps them.
RECORDED = {"g20.txt": 179_603_514, "d18.txt": 159_667_765, "u18.txt": 226_962_545}
# Largest n for which `bounds` and `compare` print an exact count (hamb.cli.COUNT_FEASIBLE_N).
COUNT_FEASIBLE_N = 16
Z_LIMIT = 5.0
# Upper bounds on the relative variance (variance / mean^2) of one estimator
# trial, per estimate input and policy, for any relabeling seed: about 1.5x
# the largest value measured over relabel seeds 0-39 against the exact mean
# (50k trials per seed for g20, 20k for e12, 6k for g10; see README.md).
RELVAR_CAP = {
    ("g20", "ascending"): 250, ("g20", "follow-path"): 40, ("g20", "table"): 180,
    ("e12", "ascending"): 2, ("e12", "follow-path"): 0.75, ("e12", "table"): 1.5,
    ("g10", "ascending"): 40, ("g10", "follow-path"): 4, ("g10", "table"): 20,
}
REL_TOL = 1e-9


@dataclass
class Proc:
    """One hamb process: its arguments after ``python -m hamb``."""

    label: str
    argv: list[str]

    @property
    def command(self) -> str:
        return self.argv[0]

    @property
    def trials(self) -> int:
        return int(self.opt("--trials", "0"))

    def opt(self, flag: str, default: str | None = None) -> str | None:
        return self.argv[self.argv.index(flag) + 1] if flag in self.argv else default


@dataclass
class Workload:
    """Inputs written to ``workdir`` plus everything needed to check outputs.

    ``expected`` maps an input file to the count ``hamb exact`` must print,
    ``permanents`` to the permanent of its directed image, and ``compare``
    and ``generated`` hold the rows and files that compare and gen must
    produce.  Checks read these at check time, so a test can plant a wrong
    value.
    """

    name: str
    workdir: Path
    inputs: dict[str, Graph] = field(default_factory=dict)
    expected: dict[str, int] = field(default_factory=dict)
    permanents: dict[str, int] = field(default_factory=dict)
    compare: dict[str, list[dict]] = field(default_factory=dict)
    generated: dict[str, str] = field(default_factory=dict)
    plan: list[tuple[str, list[str]]] = field(default_factory=list)
    seed: int = 0
    small: bool = False

    @property
    def min_passes(self) -> int:
        return 1 if self.small else 3

    @property
    def setup_probes(self) -> int:
        return 3 if self.small else 9

    def write_input(self, name: str, g: Graph) -> None:
        text = g.object_text() if name.endswith(".json") else g.text()
        (self.workdir / name).write_text(text)
        self.inputs[name] = g
        if g.n <= oracle.COUNT_MAX_N:
            self.expected[name] = oracle.cycle_count(g)

    def procs(self, pass_index: int) -> list[Proc]:
        """The processes of one pass; estimator seeds differ between passes."""
        est_seed = str(1000 * self.seed + pass_index)
        return [Proc(label, [est_seed if a == "{est_seed}" else a for a in argv]) for label, argv in self.plan]

    # -- output checks ------------------------------------------------------

    def check(self, proc: Proc, stdout: str) -> list[str]:
        """Problems with one process's stdout; empty when it is correct."""
        try:
            report = parse_report(proc, stdout)
            return getattr(self, "_check_" + proc.command)(proc, report)
        except (ValueError, KeyError, TypeError, ZeroDivisionError) as e:
            return [f"malformed output: {type(e).__name__}: {e}"]

    def _input_problems(self, proc: Proc, f: dict) -> list[str]:
        name = proc.opt("--input")
        g = self.inputs[name]
        data = (self.workdir / name).read_bytes()
        problems = []
        if f["input-sha256"] != hashlib.sha256(data).hexdigest():
            problems.append("input-sha256 does not match the input file")
        if f["n"] != str(g.n) or f["kind"] != g.kind:
            problems.append(f"n/kind {f['n']}/{f['kind']} != {g.n}/{g.kind}")
        return problems

    def _check_exact(self, proc: Proc, f: dict) -> list[str]:
        problems = self._input_problems(proc, f)
        name = proc.opt("--input")
        count = int(f["count"])
        if proc.opt("--method") == "permanent":
            if count != self.permanents[name]:
                problems.append(f"permanent {count} != reference {self.permanents[name]}")
            return problems
        if count != self.expected[name]:
            problems.append(f"count {count} != reference {self.expected[name]}")
        directed_count = count if self.inputs[name].directed else 2 * count
        if name in self.permanents and directed_count > self.permanents[name]:
            problems.append(f"count {count} exceeds the permanent {self.permanents[name]}")
        return problems + _bound_problems(count, oracle.cycle_bounds(self.inputs[name]))

    def _check_bounds(self, proc: Proc, f: dict) -> list[str]:
        problems = self._input_problems(proc, f)
        name = proc.opt("--input")
        g = self.inputs[name]
        ref = oracle.cycle_bounds(g)
        for key in ("minc", "symmetric"):
            if key in ref and Fraction(f[key]) != ref[key]:
                problems.append(f"{key} {f[key]} != reference {ref[key]}")
            if key not in ref and key in f:
                problems.append(f"{key} reported for a graph it does not apply to")
        bregman = math.exp(float(f["bregman-log-upper"]))
        if bregman < ref["bregman"] * (1 - REL_TOL):
            problems.append(f"bregman {bregman} below reference {ref['bregman']}")
        caps = {k[: -len("-cap")]: int(v) for k, v in f.items() if k.endswith("-cap")}
        if g.n <= COUNT_FEASIBLE_N:
            count = int(f["count"])
            if count != self.expected[name]:
                problems.append(f"count {count} != reference {self.expected[name]}")
            problems += [f"count {count} exceeds {k}-cap {c}" for k, c in caps.items() if count > c]
            tight = ",".join(k for k in ("symmetric", "bregman", "minc") if caps.get(k) == count) or "-"
            if f["tight"] != tight:
                problems.append(f"tight {f['tight']} != {tight}")
        elif "count" in f:
            problems.append("count reported above the feasible size")
        return problems

    def _check_estimate(self, proc: Proc, f: dict) -> list[str]:
        problems = self._input_problems(proc, f)
        name = proc.opt("--input")
        trials = int(f["trials"])
        mean = Fraction(f["mean"])
        ref = self.expected[name] * (1 if self.inputs[name].directed else 2)
        if trials != proc.trials or f["seed"] != proc.opt("--seed"):
            problems.append(f"trials/seed {trials}/{f['seed']} != {proc.trials}/{proc.opt('--seed')}")
        if Fraction(int(f["sum"]), trials) != mean:
            problems.append("mean != sum / trials")
        # The sample standard error is no yardstick: trials are heavy-tailed,
        # and a run that misses the rare large ones has a small mean and a
        # small standard error together.  The population's is used instead.
        relvar = RELVAR_CAP[name.split(".")[0], proc.opt("--policy").split(":")[0]]
        se = ref * math.sqrt(relvar / trials)
        if abs(float(mean) - ref) > Z_LIMIT * se:
            problems.append(f"mean {float(mean):.6g} is more than {Z_LIMIT} SE ({se:.6g}) from {ref}")
        halved = f.get("halved-mean")
        if (halved is not None) == self.inputs[name].directed or (halved and Fraction(halved) != mean / 2):
            problems.append(f"halved-mean {halved!r} wrong for a {self.inputs[name].kind} input")
        return problems

    def _check_compare(self, proc: Proc, rows: list[dict]) -> list[str]:
        want = self.compare[proc.label]
        if [r["n"] for r in rows] != [w["n"] for w in want]:
            return [f"rows for n={[r['n'] for r in rows]}, expected {[w['n'] for w in want]}"]
        problems = []
        for got, ref in zip(rows, want):
            for key in ("degrees", "exact", "new_le_minc"):
                if got[key] != ref[key]:
                    problems.append(f"n={ref['n']}: {key} {got[key]!r} != {ref[key]!r}")
            for key in ("symmetric", "minc", "bregman"):
                if not math.isclose(float(got[key]), ref[key], rel_tol=REL_TOL):
                    problems.append(f"n={ref['n']}: {key} {got[key]} != reference {ref[key]}")
        return problems

    def _check_gen(self, proc: Proc, f: dict) -> list[str]:
        want = self.generated[proc.opt("--out")]
        got = (self.workdir / proc.opt("--out")).read_text()
        if got != want:
            return ["generated file differs from the reference draw"]
        if f["graph-sha256"] != hashlib.sha256(want.encode()).hexdigest():
            return ["graph-sha256 does not match the generated file"]
        return []

    def _check_selftest(self, proc: Proc, report: dict) -> list[str]:
        return [] if report.get("selftest") == "PASS" else ["selftest did not report PASS"]


def _bound_problems(count: int, bounds: dict) -> list[str]:
    problems = []
    for key, value in bounds.items():
        cap = math.floor(value) if isinstance(value, Fraction) else value * (1 + REL_TOL)
        if count > cap:
            problems.append(f"count {count} exceeds the {key} bound {float(value):.6g}")
    return problems


def parse_report(proc: Proc, stdout: str):
    """A process's stdout as a dict of fields (a list of rows for compare)."""
    if "--json" in proc.argv:
        doc = json.loads(stdout)
        return doc["rows"] if proc.command == "compare" else doc
    if proc.command == "compare":
        return list(csv.DictReader(io.StringIO(stdout)))
    fields = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(": ")
        if not sep:
            raise ValueError(f"unexpected line {line!r}")
        fields[key] = value
    return fields


# ---------------------------------------------------------------------------
# Workload definitions


def _relabeled(n: int, p: float, kind: str, seed: int) -> Graph:
    return oracle.gnp(n, p, BASE_SEED, kind).relabel(oracle.relabeling(n, seed))


def _table(n: int, seed: int) -> str:
    """A seeded table policy: row i holds entries uniform in 1..n-i+1."""
    rng = random.Random(f"table-{seed}")
    return "".join(" ".join(str(rng.randint(1, n - i)) for _ in range(n)) + "\n" for i in range(n))


def _estimate_n20(wl: Workload, small: bool) -> None:
    n, p, trials = (10, 0.6, 300) if small else (20, 0.4, 10_000)
    g = _relabeled(n, p, "undirected", wl.seed)
    txt, obj, table = f"g{n}.txt", f"g{n}.json", f"table{n}.txt"
    wl.write_input(txt, g)
    wl.write_input(obj, g)
    (wl.workdir / table).write_text(_table(n, wl.seed))
    common = ["--trials", str(trials), "--seed", "{est_seed}"]
    wl.plan = [
        ("estimate:ascending", ["estimate", "--input", txt, *common, "--policy", "ascending"]),
        ("estimate:follow-path:1", ["estimate", "--input", obj, "--format", "object", *common,
                                    "--policy", "follow-path:1", "--json"]),
        ("estimate:table", ["estimate", "--input", txt, *common, "--policy", f"table:{table}"]),
    ]


def _exact_n18(wl: Workload, small: bool) -> None:
    n = 10 if small else 18
    d, u = _relabeled(n, 0.5, "digraph", wl.seed), _relabeled(n, 0.5, "undirected", wl.seed)
    dtxt, djson, utxt = f"d{n}.txt", f"d{n}.json", f"u{n}.txt"
    wl.write_input(dtxt, d)
    wl.write_input(djson, d)
    wl.write_input(utxt, u)
    wl.permanents[djson] = wl.permanents[dtxt] = oracle.permanent(d)
    wl.plan = [
        ("exact:dp", ["exact", "--method", "dp", "--input", dtxt]),
        ("exact:permanent", ["exact", "--method", "permanent", "--input", djson, "--json"]),
        ("exact:dp-undirected", ["exact", "--method", "dp", "--input", utxt]),
    ]


def _compare_rows(graphs: list[Graph]) -> list[dict]:
    rows = []
    for g in graphs:
        bounds = oracle.cycle_bounds(g)
        rows.append({
            "n": str(g.n),
            "degrees": ";".join(map(str, g.degrees())),
            "exact": str(oracle.cycle_count(g)) if g.n <= COUNT_FEASIBLE_N else "",
            "new_le_minc": "true",
            **{k: float(bounds[k]) for k in ("symmetric", "minc", "bregman")},
        })
    return rows


def _cli_small(wl: Workload, small: bool) -> None:
    big, mid, top = (24, 12, 12) if small else (64, 16, 40)
    s = wl.seed
    inputs = {
        f"u{big}.txt": _relabeled(big, 0.1, "undirected", s),
        f"d{big}.json": _relabeled(big, 0.1, "digraph", s),
        f"d{mid}.json": _relabeled(mid, 0.5, "digraph", s),
        "u12.txt": _relabeled(12, 0.5, "undirected", s),
        "d12.json": _relabeled(12, 0.5, "digraph", s),
        "e12.txt": _relabeled(12, 0.8, "undirected", s),
        "e12.json": _relabeled(12, 0.8, "undirected", s),
        "d9.txt": _relabeled(9, 0.6, "digraph", s),
        "u9.json": _relabeled(9, 0.6, "undirected", s),
    }
    for name, g in inputs.items():
        wl.write_input(name, g)
    wl.permanents["d9.txt"] = oracle.permanent(inputs["d9.txt"])
    (wl.workdir / "table12.txt").write_text(_table(12, s))
    wl.generated = {
        "gen-u20.txt": oracle.gnp(20, 0.4, s, "undirected").text(),
        "gen-d18.json": oracle.gnp(18, 0.5, s, "digraph").object_text(),
        "gen-k12.txt": oracle.family("complete", 12, "symmetric-digraph").text(),
    }
    wl.compare = {
        "compare:complete": _compare_rows(
            [oracle.family("complete", n, "symmetric-digraph") for n in range(3, top + 1)]),
        "compare:cycle": _compare_rows(
            [oracle.family("cycle", n, "symmetric-digraph") for n in range(3, 25)]),
        "compare:gnp": _compare_rows(
            [oracle.gnp(n, 0.5, s, "symmetric-digraph") for n in range(3, 15)]),
    }
    est = ["--trials", "1000", "--seed", "{est_seed}"]
    wl.plan = [
        ("bounds:u-big", ["bounds", "--input", f"u{big}.txt"]),
        ("bounds:d-big", ["bounds", "--input", f"d{big}.json", "--json"]),
        ("bounds:u12", ["bounds", "--input", "u12.txt"]),
        ("bounds:d-mid", ["bounds", "--input", f"d{mid}.json", "--format", "object", "--json"]),
        ("bounds:u9", ["bounds", "--input", "u9.json"]),
        ("exact:brute-d9", ["exact", "--method", "brute", "--input", "d9.txt"]),
        ("exact:brute-u9", ["exact", "--method", "brute", "--input", "u9.json", "--json"]),
        ("exact:dp-u12", ["exact", "--method", "dp", "--input", "u12.txt"]),
        ("exact:dp-d12", ["exact", "--input", "d12.json", "--format", "object"]),
        ("exact:permanent-d9", ["exact", "--method", "permanent", "--input", "d9.txt", "--json"]),
        ("compare:complete", ["compare", "--family", "complete", "--n", f"3..{top}"]),
        ("compare:cycle", ["compare", "--family", "cycle", "--n", "3..24", "--json"]),
        ("compare:gnp", ["compare", "--family", "gnp", "--n", "3..14", "--p", "0.5", "--seed", str(s)]),
        ("gen:gnp-u20", ["gen", "--model", "gnp", "--n", "20", "--p", "0.4", "--seed", str(s),
                         "--kind", "undirected", "--out", "gen-u20.txt"]),
        ("gen:gnp-d18", ["gen", "--model", "gnp", "--n", "18", "--p", "0.5", "--seed", str(s),
                         "--kind", "digraph", "--format", "object", "--out", "gen-d18.json", "--json"]),
        ("gen:complete-k12", ["gen", "--model", "complete", "--n", "12", "--kind", "symmetric-digraph",
                              "--out", "gen-k12.txt"]),
        ("estimate:follow-path:1", ["estimate", "--input", "e12.txt", *est, "--policy", "follow-path:1"]),
        ("estimate:ascending", ["estimate", "--input", "e12.json", *est, "--policy", "ascending", "--json"]),
        ("estimate:table", ["estimate", "--input", "e12.txt", *est, "--policy", "table:table12.txt"]),
        ("selftest", ["selftest"]),
    ]


BUILDERS = {"estimate-n20": _estimate_n20, "exact-n18": _exact_n18, "cli-small": _cli_small}


def build(name: str, seed: int, workdir: Path, small: bool = False) -> Workload:
    """Write the workload's inputs for ``seed`` into ``workdir`` and plan its processes.

    ``small`` shrinks every input and allows a single pass and fewer set-up
    probes; the benchmark's own test uses it.
    """
    workdir.mkdir(parents=True, exist_ok=True)
    wl = Workload(name, workdir, seed=seed, small=small)
    wl.write_input("triangle.txt", oracle.make_graph(3, False, [(1, 2), (2, 3), (1, 3)]))
    BUILDERS[name](wl, small)
    for file, count in RECORDED.items():
        if file in wl.expected and wl.expected[file] != count:
            raise RuntimeError(f"reference count {wl.expected[file]} for {file} != recorded {count}")
    return wl
