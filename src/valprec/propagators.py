"""Propagators: ternary tables and not-all-equal.

Every filter here is monotone.  Everything else, lexicographic ordering, set
variables and the small relations included, is compiled to ternary table
chains in :mod:`valprec.precedence`.
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
        sx: set[int] = set()
        sy: set[int] = set()
        sz: set[int] = set()
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

    With a repeated argument the constraint collapses to a disequality on the
    remaining pair, which is what gets propagated then.  Nothing can be pruned
    before a variable is fixed, so the propagator wakes only on fixes.
    """

    __slots__ = ("x", "y", "z")
    wakes_on_fix = True

    def __init__(self, x: IntVar, y: IntVar, z: IntVar):
        super().__init__()
        self.x, self.y, self.z = x, y, z
        self.watches = [x, y, z]

    def _neq(self, m: Model, a: IntVar, b: IntVar) -> bool:
        da, db = a.domain, b.domain
        if len(da) == 1 and not m.remove_value(b, *da):
            return False
        if len(db) == 1 and not m.remove_value(a, *db):
            return False
        if not (a.domain & b.domain):
            m.set_entailed(self)
        return True

    def filter(self, m: Model) -> bool:
        x, y, z = self.x, self.y, self.z
        if x is y and y is z:
            return False
        if x is y:
            return self._neq(m, x, z)
        if y is z or x is z:
            return self._neq(m, x, y)
        # Two equal singletons remove their value from the third variable.
        # The domains are read once: a removal that succeeds cannot make
        # another pair equal singletons.
        dx, dy, dz = x.domain, y.domain, z.domain
        if len(dx) == 1:
            if dx == dy and not m.remove_value(z, *dx):
                return False
            if dx == dz and not m.remove_value(y, *dx):
                return False
        elif len(dy) == 1 and dy == dz and not m.remove_value(x, *dy):
            return False
        if not (x.domain & y.domain & z.domain):
            m.set_entailed(self)
        return True
