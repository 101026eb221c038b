"""Time in units of a fixed reference computation, timed beside the work.

The benchmark runs on shared hosts whose speed changes in phases: the same
search can run 1.6 times slower for seconds or minutes while other tenants
are busy, and the phases switch within a run too.  So the benchmark
interleaves short reference slices with the work it times, one after every
fixed amount of work, and reports the work's total time divided by the
slices' mean time: the work's length in reference units (``ref``).  A slow
phase stretches the work and the slices taken during it alike, so the
quotient stays put while raw seconds swing.

A slice counts the 8-queens solutions by backtracking over set domains with
an undo trail: slotted objects, set removals, list trails and recursive
calls, the interpreter work that valprec's engine does.  Under other tenants'
load it slows about as much as valprec does, where plain dict or integer
loops slow more or less.  It is fixed here, outside the program, so a change
to valprec cannot move it.

Set-up time must be reported in seconds, so it is given in reference
seconds: its length in ``ref`` times ``NOMINAL_SLICE_S``, the slice's length
on a quiet host.  There it reads close to wall seconds.
"""
from __future__ import annotations

import time

perf = time.perf_counter
QUEENS = 8
SOLUTIONS = 92
# One ref in reference seconds: about what a slice takes on a quiet 2 GHz Xeon.
NOMINAL_SLICE_S = 0.005


class _Queen:
    __slots__ = ("row", "domain")

    def __init__(self, row: int, n: int):
        self.row = row
        self.domain = set(range(n))


class _Board:
    def __init__(self, n: int):
        self.queens = [_Queen(row, n) for row in range(n)]
        self.trail: list[tuple[_Queen, int]] = []

    def remove(self, queen: _Queen, col: int) -> bool:
        if col in queen.domain:
            queen.domain.discard(col)
            self.trail.append((queen, col))
        return bool(queen.domain)

    def place(self, row: int, col: int) -> bool:
        for queen in self.queens[row + 1:]:
            d = queen.row - row
            for bad in (col, col - d, col + d):
                if not self.remove(queen, bad):
                    return False
        return True

    def undo(self, mark: int) -> None:
        trail = self.trail
        while len(trail) > mark:
            queen, col = trail.pop()
            queen.domain.add(col)

    def count(self, row: int = 0) -> int:
        if row == len(self.queens):
            return 1
        total = 0
        for col in sorted(self.queens[row].domain):
            mark = len(self.trail)
            if self.place(row, col):
                total += self.count(row + 1)
            self.undo(mark)
        return total


def reference_slice() -> int:
    """The reference work: about 5 ms on a 2 GHz Xeon under CPython 3.11."""
    return _Board(QUEENS).count()


class RefClock:
    """Runs reference slices on request and converts seconds to ``ref``."""

    def __init__(self):
        if reference_slice() != SOLUTIONS:      # warm-up, and a check
            raise AssertionError("reference slice miscounted")
        self.slices: list[float] = []

    def tick(self) -> float:
        """Run one slice; its length in seconds."""
        t0 = perf()
        reference_slice()
        elapsed = perf() - t0
        self.slices.append(elapsed)
        return elapsed

    def sample(self, seconds: float) -> float:
        """``seconds`` in ref of the slice run right after them."""
        return seconds / self.tick()

    def slice_s(self) -> float:
        """Mean length of a slice so far, in seconds."""
        return sum(self.slices) / len(self.slices)

    def to_ref(self, seconds: float) -> float:
        return seconds / self.slice_s()
