"""Measure the estimator's relative variance behind ``workloads.RELVAR_CAP``.

    python3 perfbench/relvar_caps.py g20 --seeds 40 --batches 5

For each relabel seed and policy of one estimate input (``g20`` of
estimate-n20, ``e12`` of cli-small, ``g10`` of the reduced estimate-n20) it
runs ``batches`` checks' worth of trials in-process and prints, per policy:

* the largest relvar over the seeds, E[X^2] / count^2 - 1 taken against the
  exact count (so a run that misses the rare large trials cannot hide them
  in a small sample variance);
* the largest relvar a batch needed to pass the estimate check; the cap in
  RELVAR_CAP must stay well above it;
* how many batches the check would have failed, with the recorded cap, and
  with the sample standard error in its place.

Run it from the root of a source checkout; it imports hamb from ``src/``.
"""
from __future__ import annotations

import argparse
import math
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import oracle  # noqa: E402
import workloads  # noqa: E402
from hamb import cli  # noqa: E402
from hamb.estimator import trial_stream, trial_with_policy  # noqa: E402
from hamb.graphs import to_symmetric_digraph  # noqa: E402

# Input -> (n, p, trials per checked process), as in workloads.py.
INPUTS = {"g20": (20, 0.4, 10_000), "e12": (12, 0.8, 1000), "g10": (10, 0.6, 300)}
POLICIES = ("ascending", "follow-path:1", "table")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("input", choices=sorted(INPUTS))
    parser.add_argument("--seeds", type=int, default=40, help="relabel seeds 0..seeds-1")
    parser.add_argument("--batches", type=int, default=5, help="checked processes per seed and policy")
    args = parser.parse_args()
    n, p, trials = INPUTS[args.input]
    worst = {spec: [0.0, 0.0, 0, 0] for spec in POLICIES}  # relvar, needed, fails (cap), fails (sample SE)
    with tempfile.TemporaryDirectory() as tmp:
        table_file = Path(tmp) / "table.txt"
        for seed in range(args.seeds):
            g = workloads._relabeled(n, p, "undirected", seed)
            count = 2 * oracle.cycle_count(g)
            dg = to_symmetric_digraph(cli.parse_graph(g.text()))
            table_file.write_text(workloads._table(n, seed))
            for spec in POLICIES:
                policy = cli._parse_policy_spec(f"table:{table_file}" if spec == "table" else spec)
                cap = workloads.RELVAR_CAP[args.input, spec.split(":")[0]]
                values = [trial_with_policy(dg, policy, trial_stream(7919 * seed + 13, t)).value
                          for t in range(trials * args.batches)]
                w = worst[spec]
                w[0] = max(w[0], sum(v * v for v in values) / len(values) / count**2 - 1)
                for b in range(args.batches):
                    xs = values[b * trials:(b + 1) * trials]
                    dev = abs(sum(xs) / trials - count)
                    w[1] = max(w[1], (dev / count / workloads.Z_LIMIT) ** 2 * trials)
                    w[2] += dev > workloads.Z_LIMIT * count * math.sqrt(cap / trials)
                    var = (sum(x * x for x in xs) - sum(xs) ** 2 / trials) / (trials - 1)
                    w[3] += dev > workloads.Z_LIMIT * math.sqrt(var / trials)
    checks = args.seeds * args.batches
    for spec, (relvar, needed, fails, se_fails) in worst.items():
        cap = workloads.RELVAR_CAP[args.input, spec.split(":")[0]]
        print(f"{args.input} {spec}: relvar max {relvar:.3g}, needed max {needed:.3g}, cap {cap}; "
              f"failed {fails}/{checks} with the cap, {se_fails}/{checks} with the sample SE")


if __name__ == "__main__":
    main()
