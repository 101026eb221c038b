#!/usr/bin/env python3
"""Measure how pair-chain propagation cost scales with sequence length.

Builds a fresh model per length, times a root propagation pass, and fits a
log-log least-squares line; the slope should sit near 1 (linear growth).
"""
import argparse
import math
import statistics
import time

from valprec.cli import positive
from valprec.engine import Model, PropagationStatus
from valprec.precedence import encode_pair_precedence


def propagate_seconds(n: int, d: int, repeats: int) -> float:
    best = math.inf
    for _ in range(repeats):
        m = Model()
        xs = [m.add_fd_var(range(1, d + 1)) for _ in range(n)]
        encode_pair_precedence(m, 1, 2, xs)
        t0 = time.perf_counter()
        status = m.propagate()
        best = min(best, time.perf_counter() - t0)
        assert status is PropagationStatus.AT_FIXPOINT
    return best


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--lengths", type=positive(int), nargs="+",
                        default=[100, 200, 400, 800, 1600],
                        help="at least two distinct lengths for the fit")
    parser.add_argument("--domain-size", type=positive(int), default=4)
    parser.add_argument("--repeats", type=positive(int), default=7)
    args = parser.parse_args(argv)
    if len(set(args.lengths)) < 2:
        parser.error("--lengths needs at least two distinct values")

    times = []
    for n in args.lengths:
        try:
            t = propagate_seconds(n, args.domain_size, args.repeats)
        except ValueError as exc:  # a chain over TRANSITION_CAP
            parser.error(str(exc))
        times.append(t)
        print(f"n={n:6d}  propagate {t * 1e3:8.3f} ms")

    slope, _ = statistics.linear_regression(
        [math.log(n) for n in args.lengths], [math.log(t) for t in times])
    print(f"log-log slope: {slope:.3f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
