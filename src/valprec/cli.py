"""Command line: Schur benchmarks, witness verification, equivalence fuzzing."""
from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence

from .fuzz import format_fuzz, fuzz_equivalence
from .schur import SYM_MODES, SchurInstance, format_table, run_one, write_csv
from .search import Budget, Heuristic
from .verify import format_report, verify_theorems

HEURISTICS = ("lex-asc", "lex-desc", "mindom-asc", "mindom-desc")


def _parse_heuristic(name: str) -> Heuristic:
    var, val = name.split("-")
    return Heuristic(var=var, val=val)


def positive(kind):
    """Argparse type: ``kind(text)``, refused unless it is greater than zero."""
    def parse(text: str):
        value = kind(text)
        if not value > 0:
            raise argparse.ArgumentTypeError(f"must be positive, got {text!r}")
        return value
    parse.__name__ = kind.__name__
    return parse


def interval_length(text: str) -> int:
    """Argparse type: a positive n that ``SchurInstance`` accepts, so an
    instance too large to build is refused before anything is built."""
    n = positive(int)(text)
    try:
        SchurInstance(n, 1)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return n


def writable(path: str) -> str:
    """Argparse type: a path that opens for writing.

    The check leaves no file behind: one it had to create is removed again.
    """
    existed = os.path.exists(path)
    try:
        open(path, "a", encoding="utf-8").close()
    except OSError as exc:
        raise argparse.ArgumentTypeError(
            f"cannot write {path!r}: {exc.strerror}") from None
    if not existed:
        os.remove(path)
    return path


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="valprec",
        description="Value-precedence symmetry breaking: benchmarks and checks")
    sub = parser.add_subparsers(dest="command", required=True)

    schur = sub.add_parser(
        "schur", help="solve Schur instances, one table row per (k, n, sym)")
    schur.add_argument("--n", type=interval_length, nargs="+", required=True,
                       help="interval lengths (each at most 2000)")
    schur.add_argument("--k", type=positive(int), nargs="+", required=True,
                       help="numbers of classes")
    schur.add_argument("--sym", choices=SYM_MODES, nargs="+", required=True,
                       help="symmetry breaking modes")
    schur.add_argument("--mode", choices=("first", "all"), required=True,
                       help="stop at the first solution or enumerate all")
    schur.add_argument("--budget-secs", type=positive(float), default=600.0,
                       help="wall-clock cut-off (default 600)")
    schur.add_argument("--heuristic", choices=HEURISTICS, default="lex-asc")
    schur.add_argument("--csv", metavar="PATH", type=writable, default=None,
                       help="also write the rows to a CSV file")

    sub.add_parser("verify-theorems",
                   help="run the fixed witness instances")

    fuzz = sub.add_parser("fuzz", help="randomized encoding-vs-oracle checks")
    fuzz.add_argument("--seed", type=int, required=True)
    fuzz.add_argument("--cases", type=positive(int), required=True)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command == "schur":
        try:
            # an instance or chain too large to build is refused by its size;
            # every instance is built before the first search
            instances = [SchurInstance(n, k) for k in args.k for n in args.n]
            rows = [run_one(inst, sym, mode=args.mode,
                            budget=Budget(max_seconds=args.budget_secs),
                            heuristic=_parse_heuristic(args.heuristic))[0]
                    for inst in instances for sym in args.sym]
        except ValueError as exc:
            parser.error(str(exc))
        sys.stdout.write(format_table(rows))
        if args.csv:
            write_csv(rows, args.csv)
        return 0

    if args.command == "verify-theorems":
        report = verify_theorems()
        sys.stdout.write(format_report(report))
        return 0 if report.ok else 1

    if args.command == "fuzz":
        report = fuzz_equivalence(args.seed, args.cases)
        sys.stdout.write(format_fuzz(report))
        return 0 if report.ok else 1

    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    raise SystemExit(main())
