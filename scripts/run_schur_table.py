#!/usr/bin/env python3
"""Reproduce the Schur benchmark table across symmetry-breaking modes.

Runs every requested instance under sym in {none, adjacent, all} and prints
the aligned text table; k=3 instances enumerate all solutions, k=4 instances
stop at the first solution unless --mode all is forced.  Use --csv to keep a
machine-readable copy.
"""
import argparse
import sys

from valprec.cli import positive, writable
from valprec.schur import SchurInstance, format_table, run_bench, write_csv
from valprec.search import Budget


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--k3-max-n", type=positive(int), default=15,
                        help="largest n for the k=3 all-solutions rows (at least 13)")
    parser.add_argument("--k4", action="store_true",
                        help="also run n=13..15 with k=4 in first-solution mode")
    parser.add_argument("--mode", choices=("first", "all"), default=None,
                        help="override the per-k default search mode")
    parser.add_argument("--budget-secs", type=positive(float), default=600.0)
    parser.add_argument("--csv", metavar="PATH", type=writable, default=None)
    args = parser.parse_args(argv)
    if args.k3_max_n < 13:
        parser.error("--k3-max-n must be at least 13, where the k=3 rows start")

    budget = Budget(max_seconds=args.budget_secs)
    rows = []

    k3 = [SchurInstance(n, 3) for n in range(13, args.k3_max_n + 1)]
    rows += run_bench(k3, mode=args.mode or "all", budget=budget)

    if args.k4:
        k4 = [SchurInstance(n, 4) for n in (13, 14, 15)]
        rows += run_bench(k4, mode=args.mode or "first", budget=budget)

    sys.stdout.write(format_table(rows))
    if args.csv:
        write_csv(rows, args.csv)
        print(f"wrote {args.csv}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
