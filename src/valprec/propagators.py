"""Propagators: ternary tables and not-all-equal.

Every filter here is monotone and idempotent.  Everything else, lexicographic
ordering, set variables and the small relations included, is compiled to
ternary table chains in :mod:`valprec.precedence`.
"""
from __future__ import annotations

from itertools import chain, groupby
from operator import itemgetter
from typing import Iterable, Optional

from .engine import IntVar, Model, Propagator

# --------------------------------------------------------------------- tables


class TernaryTable(Propagator):
    """GAC table constraint over three integer variables.

    A repeated argument keeps only the tuples that agree at its positions.
    A filter scans the tuples that can still be live.  It picks the argument
    with the smallest domain; once that domain has lost a value since
    posting, only the tuples holding one of its remaining values at that
    position are scanned, read from a per-position index (value -> tuples)
    built on first use and never trailed.
    """

    __slots__ = ("x", "y", "z", "triples", "posted_sizes", "by_value")

    def __init__(self, x: IntVar, y: IntVar, z: IntVar,
                 triples: Iterable[tuple[int, int, int]]):
        super().__init__()
        self.x, self.y, self.z = x, y, z
        triples = set(triples)
        if x is y or y is z or x is z:
            triples = {(u, v, w) for u, v, w in triples
                       if (x is not y or u == v) and (y is not z or v == w)
                       and (x is not z or u == w)}
        self.triples = tuple(sorted(triples))
        self.watches = [x, y, z]
        self.posted_sizes = (len(x.domain), len(y.domain), len(z.domain))
        self.by_value: list[Optional[dict[int, tuple]]] = [None, None, None]

    def _index(self, pos: int) -> dict[int, tuple]:
        key = itemgetter(pos)
        index = {a: tuple(group) for a, group
                 in groupby(sorted(self.triples, key=key), key)}
        self.by_value[pos] = index
        return index

    def _candidates(self, dx, dy, dz) -> Iterable[tuple[int, int, int]]:
        """Every tuple, or, once the smallest domain is narrower than at
        posting, only those whose value at its position is in it."""
        if len(dx) <= len(dy) and len(dx) <= len(dz):
            pos, dom = 0, dx
        elif len(dy) <= len(dz):
            pos, dom = 1, dy
        else:
            pos, dom = 2, dz
        if len(dom) == self.posted_sizes[pos]:
            return self.triples
        index = self.by_value[pos] or self._index(pos)
        return chain.from_iterable([index.get(a, ()) for a in dom])

    def filter(self, m: Model) -> bool:
        dx, dy, dz = self.x.domain, self.y.domain, self.z.domain
        sx, sy, sz = set(), set(), set()
        live = 0
        for u, v, w in self._candidates(dx, dy, dz):
            if u in dx and v in dy and w in dz:
                sx.add(u)
                sy.add(v)
                sz.add(w)
                live += 1
        if live == 0:
            return False
        for var, sup in ((self.x, sx), (self.y, sy), (self.z, sz)):
            if not m.retain_values(var, sup):
                return False
        distinct = self.x is not self.y and self.y is not self.z and self.x is not self.z
        if distinct and live == len(sx) * len(sy) * len(sz):
            m.set_entailed(self)
        return True


# -------------------------------------------------------------- small relations


class NotAllEqual3(Propagator):
    """At least two of x, y, z differ.  Arguments may repeat.

    Nothing can be pruned before two arguments are fixed, so only two
    distinct arguments, ``x`` and ``y``, are watched, for fixes.  A fixed
    watched argument hands its watch to the third, ``z``, if that is unfixed.
    Moves are not trailed: backtracking unfixes variables in reverse order,
    so the watched pair is unfixed wherever fewer than two arguments are.  A
    repeated argument leaves a disequality on the pair (``z`` is None).
    """

    __slots__ = ("x", "y", "z")
    wakes_on_fix = True

    def __init__(self, x: IntVar, y: IntVar, z: IntVar):
        super().__init__()
        args = list(dict.fromkeys((x, y, z)))
        self.watches = args[:2]
        self.x, self.y, self.z = (args + [None])[:3] if len(args) > 1 else (x, x, None)

    def filter(self, m: Model) -> bool:
        x, y, z = self.x, self.y, self.z
        if z is None:
            return x is not y and _differ(m, x, y) and _differ(m, y, x)
        dx, dy, dz = x.domain, y.domain, z.domain
        if len(dz) == 1:
            if dz == dx:
                return _differ(m, z, y)
            return dz != dy or _differ(m, z, x)
        # z takes the watch of a fixed x or y; then only x and y can be equal.
        if len(dx) == 1:
            self.x, self.z = z, x
            x.fix_watchers.remove(self)
        elif len(dy) == 1:
            self.y, self.z = z, y
            y.fix_watchers.remove(self)
        else:
            return True
        z.fix_watchers.append(self)
        return dx != dy or _differ(m, x, z)


def _differ(m: Model, fixed: IntVar, other: IntVar) -> bool:
    """Remove a fixed variable's value from ``other`` if it is still there."""
    if len(fixed.domain) == 1:
        (v,) = fixed.domain
        if v in other.domain:
            return m.remove_value(other, v)
    return True
