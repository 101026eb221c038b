#!/usr/bin/env python3
"""Measure how pair-chain build and propagation costs scale with sequence length.

Builds a fresh model per length, times the chain's build and a root
propagation pass, and fits a log-log least-squares line to each; both slopes
should sit near 1 (linear growth).
"""
import argparse
import math
import statistics
import time

from valprec.cli import positive
from valprec.engine import Model, PropagationStatus
from valprec.precedence import encode_pair_precedence


def chain_seconds(n: int, d: int, repeats: int) -> tuple[float, float]:
    """The best build and the best root propagation time over ``repeats`` models."""
    build = propagate = math.inf
    for _ in range(repeats):
        m = Model()
        xs = [m.add_fd_var(range(1, d + 1)) for _ in range(n)]
        t0 = time.perf_counter()
        encode_pair_precedence(m, 1, 2, xs)
        t1 = time.perf_counter()
        status = m.propagate()
        t2 = time.perf_counter()
        build, propagate = min(build, t1 - t0), min(propagate, t2 - t1)
        assert status is PropagationStatus.AT_FIXPOINT
    return build, propagate


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
            build, propagate = chain_seconds(n, args.domain_size, args.repeats)
        except ValueError as exc:  # a chain over TRANSITION_CAP
            parser.error(str(exc))
        times.append((build, propagate))
        print(f"n={n:6d}  build {build * 1e3:8.3f} ms  propagate {propagate * 1e3:8.3f} ms")

    logs = [math.log(n) for n in args.lengths]
    for i, layer in ((1, "propagate"), (0, "build")):
        slope, _ = statistics.linear_regression(logs, [math.log(t[i]) for t in times])
        print(f"log-log slope: {slope:.3f} ({layer})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
