#!/usr/bin/env python3
"""Map where the symmetric product bound beats the factorial-root bound.

For regular degree sequences (every row sum equal to K) the two bounds are
closed forms, so the crossover is a pure function of (n, K).  This sweep
prints, for each K, the smallest n at which the product bound wins and a
log-space margin table, confirming the low-degree/large-n advantage region.
"""
from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from hamb.bounds import bregman_bound, symmetric_product_value  # noqa: E402


def log_margin(n: int, k: int) -> float:
    """log(bregman) - log(product bound); positive means the product bound wins."""
    if k == 0:
        return math.inf
    sym = symmetric_product_value((k,) * n)
    log_sym = math.log(sym.numerator) - math.log(sym.denominator)
    return bregman_bound((k,) * n).log_upper - log_sym


def crossover_n(k: int, n_max: int) -> int | None:
    """Smallest n with a positive margin that stays positive up to n_max."""
    for n in range(3, n_max + 1):
        if log_margin(n, k) > 0 and all(log_margin(m, k) > 0 for m in range(n, n_max + 1)):
            return n
    return None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-k", type=int, default=8, help="largest regular degree to sweep")
    parser.add_argument("--n-grid", type=int, nargs="+", default=[10, 25, 50, 100, 200])
    parser.add_argument("--n-max", type=int, default=400)
    args = parser.parse_args()

    print("crossover: smallest n from which the product bound stays below bregman")
    for k in range(2, args.max_k + 1):
        n_star = crossover_n(k, args.n_max)
        where = f"n >= {n_star}" if n_star else f"never for n <= {args.n_max}"
        print(f"  K={k}: {where}")

    header = "K\\n".ljust(6) + "".join(f"{n:>10}" for n in args.n_grid)
    print()
    print("log-space margin log(bregman) - log(product), positive = product wins")
    print(header)
    for k in range(2, args.max_k + 1):
        cells = "".join(f"{log_margin(n, k):>10.2f}" for n in args.n_grid)
        print(f"K={k}".ljust(6) + cells)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
