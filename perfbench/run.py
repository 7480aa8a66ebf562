"""Benchmark for hamb: run one workload and print its metrics.

    python3 perfbench/run.py --workload estimate-n20 --seed 3 --seconds 30 --trace 0

Run it from the root of a source checkout; hamb is imported from ``src/``.
With ``--trace 0`` it runs real ``python -m hamb`` processes one at a time,
checks every output and prints the end-to-end metrics.  Each process runs
between two speed references, and its time is reported at reference speed,
so that the machine's drifting speed cancels out.  With ``--trace 1`` it
replays the same processes in-process with spans at each layer boundary
and prints the per-layer metrics (see ``README.md`` next to this file).  The
last line of stdout is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Inputs, outputs, spans and a result file with
the environment go to ``.perfbench_work/`` in the checkout.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

import workloads
from workloads import Proc, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

PROBE_EVERY_S = 2.0
PROC_TIMEOUT_S = 60
# No pass starts after this many seconds of measuring, so that a run ends
# within three minutes even on code many times slower than today's.
DEADLINE_S = 100
PERCENTILES = (50, 75, 90, 95, 99, 99.9)
# Machine speed drifts by tens of percent over seconds, in two ways that do
# not move together: interpreted computation, and process start-up (exec,
# imports, page faults).  Each process is timed between two references, one
# of each kind: a fixed pure-Python loop in this process, and a
# ``python -c "import numpy"`` process.  Its start-up (wall time less the
# ``elapsed-ms`` it prints) is scaled by REF_START_S / the start-up
# reference, and its computation by REF_LOOP_S / the loop reference.
REF_ITERS = 100_000
REF_LOOP_S = 0.007
REF_START = "import numpy"
REF_START_S = 0.12

# Reported by every untraced run for reading, but not gated: they do not
# exist on every workload, or read 0 on correct code.
REPORTED = {"fail_frac": "ratio", "trials_per_s": "1/s", "s_to_1pct_rse": "s", "cli.startup_s": "s",
            "startup_frac": "ratio"}
RSE_LABEL = "estimate:follow-path:1"
SETUP_PROC = Proc("setup:bounds-triangle", ["bounds", "--input", "triangle.txt"])


@dataclass
class Speed:
    """Seconds the two references took: the loop, and the start-up process."""

    loop_s: float
    start_s: float

    def mean(self, other: "Speed") -> "Speed":
        return Speed((self.loop_s + other.loop_s) / 2, (self.start_s + other.start_s) / 2)


@dataclass
class ProcResult:
    proc: Proc
    started_s: float
    wall_s: float
    speed: Speed
    elapsed_s: float
    rss_mb: float
    stdout: str
    problems: list[str]

    @property
    def norm_s(self) -> float:
        """Wall time at reference speed."""
        return at_reference_speed(self.wall_s, self.elapsed_s, self.speed)

    @property
    def startup_s(self) -> float:
        """Start-up (wall time less ``elapsed-ms``) at reference speed."""
        return (self.wall_s - self.elapsed_s) * REF_START_S / self.speed.start_s


def at_reference_speed(wall_s: float, elapsed_s: float, speed: Speed) -> float:
    """Scale a process's start-up and computation (``elapsed_s``; NaN if unknown) to reference speed."""
    compute = 0.0 if math.isnan(elapsed_s) else min(elapsed_s, wall_s)
    return (wall_s - compute) * REF_START_S / speed.start_s + compute * REF_LOOP_S / speed.loop_s


def reference_loop() -> float:
    """Seconds this process takes for a fixed pure-Python loop."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(REF_ITERS):
        acc += i * i % 7
    return time.perf_counter() - t0


class Runner:
    """Runs hamb processes one at a time from the workload directory, through ``launcher.py``."""

    def __init__(self, wl: Workload):
        self.wl = wl
        self.results: list[ProcResult] = []
        self._speed: Speed | None = None  # the references taken after the last process
        env = dict(os.environ, PYTHONPATH=str(SRC))
        env.pop("HAMB_MAX_N", None)
        self.launcher = subprocess.Popen([sys.executable, str(HERE / "launcher.py")], env=env,
                                         stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.launcher.stdin.close()
        try:
            self.launcher.wait(timeout=PROC_TIMEOUT_S)
        finally:
            if self.launcher.returncode is None:
                self.launcher.kill()
                self.launcher.wait()
            self.launcher.stdout.close()

    def _spawn(self, argv: list[str]) -> tuple[float, int, float, str, str]:
        """Run argv to completion; returns (wall_s, exit code, peak RSS MB, stdout, stderr)."""
        out_path, err_path = self.wl.workdir / "proc.stdout", self.wl.workdir / "proc.stderr"
        request = {"argv": argv, "cwd": str(self.wl.workdir), "stdout": str(out_path),
                   "stderr": str(err_path), "timeout": PROC_TIMEOUT_S}
        self.launcher.stdin.write(json.dumps(request) + "\n")
        self.launcher.stdin.flush()
        reply = self.launcher.stdout.readline()
        if not reply:
            raise RuntimeError("the process launcher exited")
        done = json.loads(reply)
        return done["wall_s"], done["exit"], done["maxrss_kb"] / 1024, out_path.read_text(), err_path.read_text()

    def _measure_speed(self) -> Speed:
        loop_s = reference_loop()
        start_s, code, _, _, _ = self._spawn([sys.executable, "-c", REF_START])
        if code:
            raise RuntimeError(f"the start-up reference python -c {REF_START!r} exited with {code}")
        return Speed(loop_s, start_s)

    def _timed(self, argv: list[str]) -> tuple[float, int, float, str, str, Speed]:
        """``_spawn`` between two speed references (the one before is the last process's after)."""
        before = self._speed or self._measure_speed()
        done = self._spawn(argv)
        self._speed = self._measure_speed()
        return *done, before.mean(self._speed)

    def run(self, proc: Proc) -> ProcResult:
        started = time.perf_counter()
        wall, code, rss, stdout, stderr, speed = self._timed([sys.executable, "-m", "hamb", *proc.argv])
        last = stderr.strip().splitlines()[-1:] or [""]
        key, _, value = last[0].partition(": ")
        elapsed = float(value) / 1000 if key == "elapsed-ms" else math.nan
        if code:
            problems = [f"exit code {code}: {last[0]}"]
        elif math.isnan(elapsed):
            problems = ["no elapsed-ms on stderr"]
        else:
            problems = self.wl.check(proc, stdout)
        result = ProcResult(proc, started, wall, speed, elapsed, rss, stdout, problems)
        self.results.append(result)
        return result

    def python_wall(self, code: str) -> float:
        """Wall time of ``python -c code`` at reference speed, all of it start-up."""
        wall, status, _, _, _, speed = self._timed([sys.executable, "-c", code])
        if status:
            raise RuntimeError(f"python -c {code!r} exited with {status}")
        return at_reference_speed(wall, 0.0, speed)


def summary(xs: list[float]) -> str:
    """Median, the highest percentile with at least ten samples beyond it, and n."""
    xs = sorted(xs)
    n = len(xs)
    text = f"median={statistics.median(xs):.6g}"
    for q in reversed(PERCENTILES):
        if n * (1 - q / 100) >= 10:
            text += f" p{q:g}={xs[min(n - 1, math.ceil(q / 100 * n) - 1)]:.6g}"
            break
    return text + f" n={n}"


@dataclass
class Outcome:
    metrics: dict
    attempted: int
    failed: int
    problems: list[str]
    lines: list[str]
    processes: list[ProcResult]


def _problems(results: list[ProcResult]) -> list[str]:
    return [f"{r.proc.label}: {p}" for r in results for p in r.problems]


def measure(wl: Workload, seconds: float) -> Outcome:
    """The untraced run: set-up probes, then passes until ``seconds`` are used."""
    passes: list[list[ProcResult]] = []
    pass_s: list[float] = []
    setup: list[float] = []
    with Runner(wl) as runner:
        runner.run(SETUP_PROC)  # compiles bytecode before anything is timed
        last_probe = -math.inf

        def run_timed(proc: Proc) -> ProcResult:
            # Machine speed drifts over seconds, so set-up probes are spread over the run.
            nonlocal last_probe
            if time.perf_counter() - last_probe >= PROBE_EVERY_S:
                setup.append(runner.run(SETUP_PROC).norm_s)
                last_probe = time.perf_counter()
            return runner.run(proc)

        t0 = time.perf_counter()
        while (len(passes) < wl.min_passes and time.perf_counter() - t0 < DEADLINE_S
               or time.perf_counter() - t0 + statistics.median(pass_s) <= seconds):
            t1 = time.perf_counter()
            passes.append([run_timed(p) for p in wl.procs(len(passes))])
            pass_s.append(time.perf_counter() - t1)
        while len(setup) < wl.setup_probes:
            setup.append(runner.run(SETUP_PROC).norm_s)
    done = [r for p in passes for r in p]
    walls = [sum(r.norm_s for r in p) for p in passes]
    timed = [r for r in done if not math.isnan(r.elapsed_s)]
    startup = [r.startup_s for r in timed] or [math.nan]
    lines = [
        f"setup_s {summary(setup)} s at reference speed",
        f"wall_s {summary(walls)} s at reference speed",
        f"pass wall {summary([sum(r.wall_s for r in p) for p in passes])} s as measured",
        f"reference loop {summary([r.speed.loop_s for r in runner.results])} s (REF_LOOP_S = {REF_LOOP_S} s)",
        f"reference start-up {summary([r.speed.start_s for r in runner.results])} s (REF_START_S = {REF_START_S} s)",
        f"process start-up (wall - elapsed-ms) {summary(startup)} s at reference speed",
    ]
    results = runner.results
    failed = sum(bool(r.problems) for r in results)
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(walls),
        "peak_rss_mb": statistics.median(max(r.rss_mb for r in p) for p in passes),
        "fail_frac": failed / len(results),
        "cli.startup_s": statistics.median(startup),
        "startup_frac": 1 - sum(r.elapsed_s for r in timed) / sum(r.wall_s for r in timed) if timed else math.nan,
    }
    estimates = [r for r in done if r.proc.command == "estimate"]
    if estimates:
        metrics["trials_per_s"] = sum(r.proc.trials for r in estimates) / sum(r.norm_s for r in estimates)
    rse = [r for r in estimates if r.proc.label == RSE_LABEL and not r.problems]
    if wl.name == "estimate-n20" and rse:
        metrics["s_to_1pct_rse"] = s_to_1pct_rse(rse)
    for label in dict.fromkeys(r.proc.label for r in done):
        mine = [r for r in done if r.proc.label == label]
        share = 1 - sum(r.elapsed_s for r in mine) / sum(r.wall_s for r in mine)
        lines.append(f"  {label}: {summary([r.norm_s for r in mine])} s, start-up {share:.0%} of wall")
    return Outcome(metrics, len(results), failed, _problems(results), lines, results)


def s_to_1pct_rse(results: list[ProcResult]) -> float:
    """Seconds to 1 % relative standard error: relvar x seconds per trial x 10^4.

    The relative variance pools the trials of every process exactly, from
    each report's sum and sample variance.
    """
    n = total = total_sq = 0
    for r in results:
        f = workloads.parse_report(r.proc, r.stdout)
        k, s = int(f["trials"]), int(f["sum"])
        var = Fraction(f["sample-variance"])
        n, total, total_sq = n + k, total + s, total_sq + var * (k - 1) + Fraction(s * s, k)
    relvar = (total_sq - Fraction(total * total, n)) / (n - 1) / Fraction(total, n) ** 2
    return float(relvar) * sum(r.norm_s for r in results) / n * 1e4


def measure_traced(wl: Workload) -> Outcome:
    """The traced run: start-up probes, then one pass replayed in-process.

    A probe or a replayed process that crashes counts as failed, and the
    metrics it would have given read NaN.
    """
    probes = wl.setup_probes // 3
    problems: list[str] = []
    with Runner(wl) as runner:
        runner.run(SETUP_PROC)
        try:
            bare = [runner.python_wall("pass") for _ in range(probes)]
            imported = [runner.python_wall("import hamb.cli") for _ in range(probes)]
            import_s = statistics.median(imported) - statistics.median(bare)
        except RuntimeError as e:
            problems.append(f"start-up probe: {e}")
            import_s = math.nan
        setup = [runner.run(SETUP_PROC) for _ in range(probes)]
    startup = [r.startup_s for r in setup if not r.problems]
    sys.path.insert(0, str(SRC))
    procs = wl.procs(0)
    try:
        import replay
    except Exception as e:  # a broken hamb fails every replayed process
        metrics, failed = {}, len(procs)
        problems.append(f"import replay: {type(e).__name__}: {e}")
    else:
        metrics, failed, replay_problems = replay.trace_pass(wl, procs, wl.workdir / "spans.jsonl")
        problems += replay_problems
    metrics["cli.import_s"] = import_s
    metrics["cli.startup_s"] = statistics.median(startup) if startup else math.nan
    results = runner.results
    spans = wl.workdir / "spans.jsonl"
    lines = [f"spans written to {spans.relative_to(ROOT)}"] if spans.exists() else []
    return Outcome(metrics, len(procs) + len(results) + 2 * probes,
                   failed + sum(bool(r.problems) for r in results) + bool(math.isnan(import_s)),
                   problems + _problems(results), lines, results)


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics in BENCHMARK.json."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench[kind]}


def environment(seed: int) -> dict:
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists() and shutil.which("git"):
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = done.stdout.strip() or commit
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "commit": commit,
        "seed": seed,
    }


def run(workload: str, seed: int, seconds: float, trace: bool, small: bool = False) -> dict:
    """Run one workload and return the result object printed as the last line."""
    workdir = WORK / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(workdir, ignore_errors=True)
    wl = workloads.build(workload, seed, workdir, small=small)
    env = environment(seed)
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    out = measure_traced(wl) if trace else measure(wl, seconds)
    units = metric_units("per_layer" if trace else "end_to_end")
    for line in out.lines + [f"FAIL {p}" for p in out.problems]:
        print(line)
    for name, value in out.metrics.items():
        unit = units.get(name) or REPORTED[name]
        print(f"metric {name} = {value:.6g} {unit}")
    result = {
        "correct": not out.problems,
        "attempted": out.attempted,
        "failed": out.failed,
        # A metric that a crash left undefined (NaN) is null, keeping the line strict JSON.
        "metrics": {k: {"value": None if math.isnan(v) else v, "unit": u}
                    for k, u in units.items() for v in [out.metrics.get(k, math.nan)]},
    }
    t0 = out.processes[0].started_s
    processes = [[r.proc.label, r.started_s - t0, r.wall_s, r.speed.loop_s, r.speed.start_s, r.elapsed_s, r.rss_mb]
                 for r in out.processes]
    record = dict(result, workload=workload, env=env, reported=out.metrics, problems=out.problems,
                  processes=processes)
    (WORK / f"result-{workload}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record, indent=2) + "\n")
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, default=workloads.BASE_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true", help="shrink every input (for the benchmark's test)")
    args = parser.parse_args()
    if not (SRC / "hamb" / "__init__.py").is_file():
        print(f"error: no hamb sources at {SRC}; run from the root of a source checkout", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.small)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
