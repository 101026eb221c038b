"""Schur-number decision models and the benchmark sweep behind the CLI.

A Schur instance asks whether [1, n] splits into k sum-free classes: no class
may contain a, b and a+b (a = b included, so a class containing a may not
contain 2a).  Class labels are fully interchangeable, which makes the model a
natural stress test for the value-precedence encodings.
"""
from __future__ import annotations

import csv
import io
import time
from typing import Iterator, Optional, Sequence

from .engine import IntVar, Model, Record, Value
from .precedence import (TRANSITION_CAP, encode_all_precedence,
                         encode_pair_precedence)
from .search import Budget, Heuristic, SearchResult, solve

SYM_MODES = ("none", "adjacent", "all")


class SchurInstance(Value):
    """[1, n] into k sum-free classes.

    The model posts one constraint per sum triple, n^2/4 of them (rounded
    down), and n variables of k values each, so an instance with more than
    ``TRANSITION_CAP`` triples (any n > 2000) or n*k above it is refused
    before anything is built.
    """
    __slots__ = _fields = ("n", "k")

    def __init__(self, n: int, k: int):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "k", k)
        for name in ("n", "k"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an int, got {value!r}")
        if self.n < 1 or self.k < 1:
            raise ValueError("need n >= 1 and k >= 1")
        if self.n * self.n // 4 > TRANSITION_CAP:
            raise ValueError(f"n={self.n} gives {self.n * self.n // 4} sum "
                             f"triples, more than TRANSITION_CAP ({TRANSITION_CAP})")
        if self.n * self.k > TRANSITION_CAP:
            raise ValueError(f"n*k={self.n * self.k} is more than TRANSITION_CAP "
                             f"({TRANSITION_CAP})")

    @property
    def label(self) -> str:
        return f"S({self.n},{self.k})"


def sum_triples(n: int) -> Iterator[tuple[int, int, int]]:
    """All (a, b, a+b) with a <= b and a+b <= n, by a then b, made one at a time."""
    return ((a, b, a + b)
            for a in range(1, n + 1)
            for b in range(a, n - a + 1))


def build_schur_model(inst: SchurInstance, sym: str = "none") -> tuple[Model, list[IntVar]]:
    """Model with X_i = class of integer i; sym picks the symmetry breaking.

    'none' posts only the sum-free triples, 'adjacent' adds one pair
    precedence chain per adjacent class pair, 'all' one chain ordering the
    first occurrences of all k classes.
    """
    if sym not in SYM_MODES:
        raise ValueError(f"unknown symmetry mode {sym!r}")
    model = Model()
    xs = [model.add_fd_var(range(1, inst.k + 1), name=f"X{i}")
          for i in range(1, inst.n + 1)]
    for a, b, c in sum_triples(inst.n):
        model.post_nae(xs[a - 1], xs[b - 1], xs[c - 1])
    if sym == "adjacent":
        for v in range(1, inst.k):
            encode_pair_precedence(model, v, v + 1, xs)
    elif sym == "all":
        encode_all_precedence(model, list(range(1, inst.k + 1)), xs)
    return model, xs


class ReportRow(Record):
    """One row of the benchmark report; its fields are the CSV columns, in order."""
    __slots__ = _fields = ("instance", "sym", "user_constraints", "encoding_constraints",
                           "backtracks", "nodes", "solutions", "time_ms", "halted")

    def __init__(self, instance: str, sym: str, user_constraints: int,
                 encoding_constraints: int, backtracks: int, nodes: int,
                 solutions: int, time_ms: int, halted: bool):
        self.instance, self.sym = instance, sym
        self.user_constraints, self.encoding_constraints = user_constraints, encoding_constraints
        self.backtracks, self.nodes, self.solutions = backtracks, nodes, solutions
        self.time_ms, self.halted = time_ms, halted


CSV_COLUMNS = ReportRow._fields


def run_one(inst: SchurInstance, sym: str, mode: str = "all",
            budget: Optional[Budget] = None,
            heuristic: Heuristic = Heuristic()) -> tuple[ReportRow, SearchResult]:
    """Build and solve one instance; the budget's seconds cover the build too."""
    t0 = time.perf_counter()
    model, xs = build_schur_model(inst, sym)
    if budget is not None and budget.max_seconds is not None:
        left = budget.max_seconds - (time.perf_counter() - t0)
        budget = Budget(max(0.0, left), budget.max_nodes)
    result = solve(model, xs, heuristic=heuristic, mode=mode, budget=budget)
    counts = model.posted_counts
    row = ReportRow(
        instance=inst.label,
        sym=sym,
        user_constraints=counts.get("user", 0),
        encoding_constraints=counts.get("encoding", 0),
        backtracks=result.stats.backtracks,
        nodes=result.stats.nodes,
        solutions=result.stats.solutions,
        time_ms=round(result.stats.wall_time * 1000),
        halted=result.halted,
    )
    return row, result


def run_bench(instances: Sequence[SchurInstance],
              syms: Sequence[str] = SYM_MODES,
              mode: str = "all",
              budget: Optional[Budget] = Budget(max_seconds=600.0),
              heuristic: Heuristic = Heuristic()) -> list[ReportRow]:
    """One row per instance and symmetry mode, in input order."""
    rows = []
    for inst in instances:
        for sym in syms:
            row, _ = run_one(inst, sym, mode=mode, budget=budget, heuristic=heuristic)
            rows.append(row)
    return rows


def format_table(rows: Sequence[ReportRow]) -> str:
    """Aligned text table; halted rows show '-' for the cut-off counters."""
    header = ["instance", "sym", "user", "encoding", "backtracks",
              "nodes", "solutions", "time_ms", "halted"]
    body = []
    for r in rows:
        cells = [str(c) for c in r._values()]
        if r.halted:
            cells[4:7] = ["-"] * 3  # backtracks, nodes, solutions
        cells[-1] = "yes" if r.halted else "no"
        body.append(cells)
    widths = [max(len(header[i]), *(len(row[i]) for row in body)) if body
              else len(header[i]) for i in range(len(header))]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip()]
    for cells in body:
        lines.append("  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip())
    return "\n".join(lines) + "\n"


def rows_to_csv(rows: Sequence[ReportRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in rows:
        writer.writerow([*r._values()[:-1], "true" if r.halted else "false"])
    return buf.getvalue()


def write_csv(rows: Sequence[ReportRow], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(rows_to_csv(rows))
