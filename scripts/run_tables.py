#!/usr/bin/env python3
"""Desk-scale bias tables for the four outcome families.

Runs the Monte Carlo grid (beta_qtau, beta_d) in {0, 0.5}^2 at two sample
sizes and prints |Bias| / SD / RMSE per estimator row, one block per
(family, n). The default 1000 repetitions per cell finishes in well under
a minute on a laptop; use --reps to trade precision for speed.

Examples:
    python scripts/run_tables.py
    python scripts/run_tables.py --families binary --n 1000 --reps 200
    python scripts/run_tables.py --seed 7
"""

import argparse
import itertools
import sys
import time

from rrdid import Scenario, run_monte_carlo

FAMILIES = ("positive", "count", "censored", "binary")
ROW_LABELS = {
    "qmle_beta_qtau": "QMLE  beta_qtau",
    "qmle_beta_d": "QMLE  beta_d",
    "lindd_beta_qtau": "LinDD beta_qtau",
    "lindd_beta_d": "LinDD beta_d",
    "lindd_transform": "LinDD transform",
}


def run_cell(family, n, beta_qtau, beta_d, reps, seed):
    scenario = Scenario(family=family, n=n, repetitions=reps, seed=seed,
                        beta_qtau=beta_qtau, beta_d=beta_d)
    return run_monte_carlo(scenario)


def print_block(family, n, cells, out):
    print(f"\n== family={family}  n={n} ==", file=out)
    for (beta_qtau, beta_d), summary in cells.items():
        tag = f"beta_qtau={beta_qtau:g}, beta_d={beta_d:g}"
        extra = ""
        if summary.failed_repetitions or summary.redraw_count:
            extra = (f"  [failures {summary.failed_repetitions},"
                     f" redraws {summary.redraw_count}]")
        print(f"-- {tag}{extra}", file=out)
        print(f"{'estimator':<18}{'|Bias|':>8}{'SD':>8}{'RMSE':>8}", file=out)
        for key, label in ROW_LABELS.items():
            if key not in summary.rows:
                continue
            row = summary.rows[key]
            print(f"{label:<18}{row.abs_bias:>8.3f}{row.sd:>8.3f}"
                  f"{row.rmse:>8.3f}", file=out)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--families", nargs="+", choices=FAMILIES,
                        default=list(FAMILIES))
    parser.add_argument("--n", nargs="+", type=int, default=[250, 1000],
                        help="sample sizes to run (default: 250 1000)")
    parser.add_argument("--reps", type=int, default=1000,
                        help="replications per cell (default: 1000)")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    grid = [(0.0, 0.0), (0.0, 0.5), (0.5, 0.0), (0.5, 0.5)]
    start = time.perf_counter()
    for family, n in itertools.product(args.families, args.n):
        cells = {
            (bqt, bd): run_cell(family, n, bqt, bd, args.reps, args.seed)
            for bqt, bd in grid
        }
        print_block(family, n, cells, sys.stdout)
    print(f"\ntotal {time.perf_counter() - start:.1f}s "
          f"({args.reps} reps per cell, seed {args.seed})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
