"""Depth-first search over a model: binary branching, budgets, stats."""
from __future__ import annotations

import math
import time
from typing import Optional, Sequence

from .engine import Model, IntVar, PropagationStatus, Record, Value


class Heuristic(Value):
    """Variable and value selection, both deterministic.

    var: 'lex' takes the first unassigned decision variable in posting order,
    'mindom' the one with the smallest domain (ties by order).  val: 'asc'
    tries the smallest value first, 'desc' the largest.
    """
    __slots__ = _fields = ("var", "val")

    def __init__(self, var: str = "lex", val: str = "asc"):
        if var not in ("lex", "mindom"):
            raise ValueError(f"unknown variable heuristic {var!r}")
        if val not in ("asc", "desc"):
            raise ValueError(f"unknown value heuristic {val!r}")
        object.__setattr__(self, "var", var)
        object.__setattr__(self, "val", val)


class Budget(Value):
    """Search cut-offs; None means unlimited, 0 visits no node."""
    __slots__ = _fields = ("max_seconds", "max_nodes")

    def __init__(self, max_seconds: Optional[float] = None,
                 max_nodes: Optional[int] = None):
        s, n = max_seconds, max_nodes
        if s is not None and (isinstance(s, bool) or not s >= 0):
            raise ValueError(f"max_seconds must be a number >= 0, got {s!r}")
        if n is not None and not (isinstance(n, int) and not isinstance(n, bool) and n >= 0):
            raise ValueError(f"max_nodes must be an int >= 0, got {n!r}")
        object.__setattr__(self, "max_seconds", s)
        object.__setattr__(self, "max_nodes", n)


class SearchStats(Record):
    __slots__ = _fields = ("backtracks", "nodes", "solutions", "wall_time")

    def __init__(self, backtracks: int = 0, nodes: int = 0, solutions: int = 0,
                 wall_time: float = 0.0):
        self.backtracks, self.nodes = backtracks, nodes
        self.solutions, self.wall_time = solutions, wall_time


class SearchResult(Record):
    __slots__ = _fields = ("solutions", "stats", "halted")

    def __init__(self, solutions: Optional[list[tuple[int, ...]]] = None,
                 stats: Optional[SearchStats] = None, halted: bool = False):
        self.solutions = [] if solutions is None else solutions
        self.stats = SearchStats() if stats is None else stats
        self.halted = halted


def solve(model: Model, variables: Sequence[IntVar],
          heuristic: Heuristic = Heuristic(),
          mode: str = "all",
          budget: Optional[Budget] = None) -> SearchResult:
    """Enumerate assignments of ``variables`` accepted by the model.

    Branches only on the given decision variables; any other variables in the
    model must be functionally determined by them (true for all encoding state
    variables here), otherwise distinct solutions could be reported once.
    mode 'first' stops at the first solution.  A budget, or a
    ``KeyboardInterrupt`` (Ctrl-C), makes the search stop early with
    halted=True; whatever was found so far stays in the result.  Each node
    calls ``model.propagate`` once, looked up on the instance.  The left
    branch narrows the variable to the chosen value's bit, the right branch
    removes that bit.  Every exit, an exception too, undoes the search's
    choices.
    """
    if mode not in ("all", "first"):
        raise ValueError(f"unknown mode {mode!r}")
    res = SearchResult()
    stats, solutions, xs = res.stats, res.solutions, list(variables)
    n, first = len(xs), mode == "first"
    lex, desc = heuristic.var == "lex", heuristic.val == "desc"
    propagate, narrow = model.propagate, model.narrow
    push_choice, pop_choice = model.push_choice, model.pop_choice
    failed, clock = PropagationStatus.FAILED, time.perf_counter
    budget = budget or Budget()
    cap = math.inf if budget.max_nodes is None else budget.max_nodes
    t0 = clock()
    deadline = None if budget.max_seconds is None else t0 + budget.max_seconds
    nodes = backtracks = 0
    # One entry per open choice: (index of its variable, the value's bit,
    # still on the left branch).  Below a choice every decision variable
    # before its index is fixed, so the lex scan resumes there.
    stack: list[tuple[int, int, bool]] = []
    try:
        while True:
            if nodes >= cap or deadline is not None and clock() >= deadline:
                res.halted = True
                break
            nodes += 1
            if propagate() is failed:
                backtracks += 1
            else:
                if lex:
                    i = stack[-1][0] if stack else 0
                    while i < n and not (m := xs[i].mask) & (m - 1):
                        i += 1
                else:  # mindom: the first of the smallest free domains
                    i, size = n, math.inf
                    for j, x in enumerate(xs):
                        if 1 < (c := x.mask.bit_count()) < size:
                            i, size = j, c
                if i < n:
                    m = xs[i].mask
                    bit = 1 << m.bit_length() - 1 if desc else m & -m
                    push_choice()
                    stack.append((i, bit, True))
                    narrow(xs[i], bit)
                    continue
                solutions.append(tuple([x.mask.bit_length() - 1 for x in xs]))
                if first:
                    break
            # Backtrack: undo finished right branches, then turn the deepest
            # left branch into its right branch.
            while stack and not stack[-1][2]:
                stack.pop()
                pop_choice()
            if not stack:
                break
            i, bit, _ = stack[-1]
            stack[-1] = (i, bit, False)
            pop_choice()
            push_choice()
            narrow(xs[i], ~bit)
    except KeyboardInterrupt:
        res.halted = True
    finally:
        for _ in stack:
            pop_choice()
        stats.nodes, stats.backtracks = nodes, backtracks
        stats.solutions = len(solutions)
        stats.wall_time = clock() - t0
    return res
