"""Depth-first search over a model: binary branching, budgets, stats."""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .engine import Model, IntVar, PropagationStatus


@dataclass(frozen=True)
class Heuristic:
    """Variable and value selection, both deterministic.

    var: 'lex' takes the first unassigned decision variable in posting order,
    'mindom' the one with the smallest domain (ties by order).  val: 'asc'
    tries the smallest value first, 'desc' the largest.
    """
    var: str = "lex"
    val: str = "asc"

    def __post_init__(self):
        if self.var not in ("lex", "mindom"):
            raise ValueError(f"unknown variable heuristic {self.var!r}")
        if self.val not in ("asc", "desc"):
            raise ValueError(f"unknown value heuristic {self.val!r}")


@dataclass(frozen=True)
class Budget:
    """Search cut-offs; None means unlimited."""
    max_seconds: Optional[float] = None
    max_nodes: Optional[int] = None


@dataclass
class SearchStats:
    backtracks: int = 0
    nodes: int = 0
    solutions: int = 0
    wall_time: float = 0.0


@dataclass
class SearchResult:
    solutions: list[tuple[int, ...]] = field(default_factory=list)
    stats: SearchStats = field(default_factory=SearchStats)
    halted: bool = False


def solve(model: Model, variables: Sequence[IntVar],
          heuristic: Heuristic = Heuristic(),
          mode: str = "all",
          budget: Optional[Budget] = None) -> SearchResult:
    """Enumerate assignments of ``variables`` accepted by the model.

    Branches only on the given decision variables; any other variables in the
    model must be functionally determined by them (true for all encoding state
    variables here), otherwise distinct solutions could be reported once.
    mode 'first' stops at the first solution.  A budget makes the search stop
    early with halted=True; whatever was found so far stays in the result.
    """
    if mode not in ("all", "first"):
        raise ValueError(f"unknown mode {mode!r}")
    res = SearchResult()
    stats = res.stats
    t0 = time.perf_counter()

    def pick() -> Optional[IntVar]:
        free = (v for v in variables if v.mask & (v.mask - 1))
        if heuristic.var == "mindom":
            return min(free, key=lambda v: v.mask.bit_count(), default=None)
        return next(free, None)

    def over_budget() -> bool:
        if budget is None:
            return False
        if budget.max_nodes is not None and stats.nodes >= budget.max_nodes:
            return True
        if budget.max_seconds is not None and \
                time.perf_counter() - t0 >= budget.max_seconds:
            return True
        return False

    # One entry per open choice: (variable, value, still on the left branch).
    # The left branch assigns the value, the right branch removes it.
    stack: list[tuple[IntVar, int, bool]] = []
    while True:
        if over_budget():
            res.halted = True
            break
        stats.nodes += 1
        if model.propagate() is PropagationStatus.FAILED:
            stats.backtracks += 1
        else:
            var = pick()
            if var is not None:
                v = var.max() if heuristic.val == "desc" else var.min()
                model.push_choice()
                model.assign(var, v)
                stack.append((var, v, True))
                continue
            res.solutions.append(tuple(x.value() for x in variables))
            if mode == "first":
                break
        # Backtrack: undo finished right branches, then turn the deepest
        # left branch into its right branch.
        while stack and not stack[-1][2]:
            stack.pop()
            model.pop_choice()
        if not stack:
            break
        var, v, _ = stack[-1]
        stack[-1] = (var, v, False)
        model.pop_choice()
        model.push_choice()
        model.remove_value(var, v)
    for _ in stack:
        model.pop_choice()
    stats.wall_time = time.perf_counter() - t0
    stats.solutions = len(res.solutions)
    return res
