"""Command line: Schur benchmarks, witness verification, equivalence fuzzing."""
from __future__ import annotations

import argparse
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


def writable(path: str) -> str:
    """Argparse type: a path that opens for writing (created if missing)."""
    try:
        open(path, "a", encoding="utf-8").close()
    except OSError as exc:
        raise argparse.ArgumentTypeError(
            f"cannot write {path!r}: {exc.strerror}") from None
    return path


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="valprec",
        description="Value-precedence symmetry breaking: benchmarks and checks")
    sub = parser.add_subparsers(dest="command", required=True)

    schur = sub.add_parser("schur", help="solve one Schur instance")
    schur.add_argument("--n", type=positive(int), required=True, help="interval length")
    schur.add_argument("--k", type=positive(int), required=True, help="number of classes")
    schur.add_argument("--sym", choices=SYM_MODES, required=True,
                       help="symmetry breaking mode")
    schur.add_argument("--mode", choices=("first", "all"), required=True,
                       help="stop at the first solution or enumerate all")
    schur.add_argument("--budget-secs", type=positive(float), default=600.0,
                       help="wall-clock cut-off (default 600)")
    schur.add_argument("--heuristic", choices=HEURISTICS, default="lex-asc")
    schur.add_argument("--csv", metavar="PATH", type=writable, default=None,
                       help="also write the row to a CSV file")

    sub.add_parser("verify-theorems",
                   help="run the fixed witness instances")

    fuzz = sub.add_parser("fuzz", help="randomized encoding-vs-oracle checks")
    fuzz.add_argument("--seed", type=int, required=True)
    fuzz.add_argument("--cases", type=positive(int), required=True)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)

    if args.command == "schur":
        inst = SchurInstance(args.n, args.k)
        row, _ = run_one(inst, args.sym, mode=args.mode,
                         budget=Budget(max_seconds=args.budget_secs),
                         heuristic=_parse_heuristic(args.heuristic))
        sys.stdout.write(format_table([row]))
        if args.csv:
            write_csv([row], args.csv)
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
