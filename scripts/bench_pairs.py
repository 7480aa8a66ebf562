#!/usr/bin/env python3
"""Run the benchmark in two checkouts in alternating pairs and write every pair to JSON.

    PYTHONDONTWRITEBYTECODE=1 python3 scripts/bench_pairs.py --parent ../parent --change . \\
        --workload exact-n18 --workload cli-small --seeds 61 62 63 --out BENCH.json

For each workload and seed, ``perfbench/run.py --trace 0`` runs once in each
checkout, one right after the other, each on its own ``perfbench/`` and
``src/``: the parent first on odd seeds and the change first on even ones, so
that a drift of the machine's speed within a pair favours each side equally
often.  The JSON holds each pair's end-to-end metrics and each side's median
peak RSS per process label, and per workload and metric both sides' medians
and quartiles and how many pairs read higher and lower on the change.  It
also records the seeds, both checkouts' commits and ``src/hamb`` line
counts, the Python and numpy versions that the runs report, and
``PYTHONDONTWRITEBYTECODE``.  The file is rewritten after every pair, so an
interrupted run keeps the pairs it took.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run in ``checkout``, read from the result file it writes."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if done.returncode:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited {done.returncode}:\n{done.stderr}")
    record = json.loads((checkout / ".perfbench_work" / f"result-{workload}-seed{seed}-trace0.json").read_text())
    by_label: dict[str, list[float]] = {}
    for label, *_, rss_mb in record["processes"]:
        by_label.setdefault(label, []).append(rss_mb)
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: m["value"] for name, m in record["metrics"].items()},
        "rss_mb_by_label": {label: statistics.median(v) for label, v in sorted(by_label.items())},
        "python": record["env"]["python"],
        "numpy": record["env"]["numpy"],
    }


def spread(values: list[float]) -> dict:
    """Median, quartiles (inclusive method) and their distance."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarize(pairs: list[dict]) -> dict:
    """Per metric: each side's spread over the pairs, and the pairs that read higher or lower on the change."""
    out = {}
    for name in pairs[0]["parent"]["metrics"]:
        values = {side: [p[side]["metrics"][name] for p in pairs] for side in SIDES}
        if None in values["parent"] or None in values["change"]:
            out[name] = None  # a crashed run left the metric undefined
            continue
        diffs = [c - p for p, c in zip(values["parent"], values["change"])]
        out[name] = {
            "parent": spread(values["parent"]),
            "change": spread(values["change"]),
            "change_higher": sum(d > 0 for d in diffs),
            "change_lower": sum(d < 0 for d in diffs),
            "pairs": len(pairs),
        }
    return out


def checkout_id(checkout: Path) -> dict:
    """The commit a checkout has out and the git tree of its ``src/`` (None outside git),
    and the line count of its ``src/hamb/*.py`` (None without ``src/hamb``)."""
    def rev(name: str) -> str | None:
        done = subprocess.run(["git", "rev-parse", name], cwd=checkout, capture_output=True, text=True)
        return done.stdout.strip() if done.returncode == 0 else None
    package = checkout / "src" / "hamb"
    lines = sum(p.read_bytes().count(b"\n") for p in package.glob("*.py")) if package.is_dir() else None
    return {"commit": rev("HEAD"), "src_tree": rev("HEAD:src"), "src_hamb_lines": lines}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--workload", action="append", required=True, help="a perfbench workload; repeatable")
    parser.add_argument("--seeds", type=int, nargs="+", required=True, help="one pair per seed and workload")
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--out", type=Path, required=True, help="JSON file to write")
    args = parser.parse_args()
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, path in checkouts.items():
        if not (path / "perfbench" / "run.py").is_file():
            print(f"error: no perfbench/run.py in the {side} checkout {path}", file=sys.stderr)
            return 2
    report = {
        "seeds": args.seeds,
        "seconds": args.seconds,
        "first": "parent on odd seeds, change on even seeds",
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        **{side: checkout_id(path) for side, path in checkouts.items()},
        "python": None,
        "numpy": None,
        "workloads": {},
    }
    for workload in args.workload:
        pairs = []
        for seed in args.seeds:
            order = SIDES if seed % 2 else SIDES[::-1]
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_once(checkouts[side], workload, seed, args.seconds)
                for key in ("python", "numpy"):
                    if report[key] not in (None, pair[side][key]):
                        raise RuntimeError(f"{key} changed between runs: {report[key]} -> {pair[side][key]}")
                    report[key] = pair[side].pop(key)
            pairs.append(pair)
            report["workloads"][workload] = {"pairs": pairs, "summary": summarize(pairs)}
            args.out.write_text(json.dumps(report, indent=1) + "\n")
            print(f"{workload} seed {seed}: " + "  ".join(
                f"{name} {pair['parent']['metrics'][name]} -> {pair['change']['metrics'][name]}"
                for name in pair["parent"]["metrics"]), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
