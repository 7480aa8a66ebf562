#!/usr/bin/env python3
"""Watch the running mean of the randomized estimator converge to the exact
count on a seeded random symmetric digraph, for each row-order policy."""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from hamb.estimator import RowOrderPolicy, estimate  # noqa: E402
from hamb.exact import ham_dp  # noqa: E402
from hamb.graphs import gen_gnp, row_sums  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=10)
    parser.add_argument("--p", type=float, default=0.55)
    parser.add_argument("--graph-seed", type=int, default=12)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trials", type=int, default=50_000)
    parser.add_argument("--start", type=int, default=1, help="start vertex for the walk policy")
    args = parser.parse_args()

    g = gen_gnp(args.n, args.p, args.graph_seed, kind="symmetric-digraph")
    truth = ham_dp(g)
    print(f"graph: n={g.n}, arcs={sum(row_sums(g))}, exact count={truth}")

    policies = [RowOrderPolicy.ascending(), RowOrderPolicy.follow_path(args.start)]
    checkpoints = sorted({args.trials // 100, args.trials // 10, args.trials // 3, args.trials} - {0})
    for policy in policies:
        print(f"policy {policy.describe()}:")
        # reports are prefix-consistent: the first t trials of a longer run are these
        for t in checkpoints:
            report = estimate(g, policy, t, args.seed)
            mean = float(report.mean)
            rel = (mean - truth) / truth if truth else float("nan")
            print(
                f"  after {t:>7} trials: mean {mean:14.2f}  rel.err {rel:+8.4f}  zero-rate {report.zero_fraction:.3f}"
            )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
