"""Propagators: ternary tables, the set channel, and not-all-equal.

Every filter here is monotone.  Everything else, lexicographic ordering and
the small relations included, is compiled to ternary table chains in
:mod:`valprec.precedence`.
"""
from __future__ import annotations

from typing import Iterable, Sequence

from .engine import IntVar, Model, Propagator, SetVar

# --------------------------------------------------------------------- tables


class TernaryTable(Propagator):
    """GAC table constraint over three integer variables."""

    __slots__ = ("x", "y", "z", "triples")

    def __init__(self, x: IntVar, y: IntVar, z: IntVar,
                 triples: Iterable[tuple[int, int, int]]):
        super().__init__()
        self.x, self.y, self.z = x, y, z
        self.triples = tuple(sorted(set(triples)))
        self.watches = [x, y, z]

    def filter(self, m: Model) -> bool:
        dx, dy, dz = self.x.domain, self.y.domain, self.z.domain
        sx: set[int] = set()
        sy: set[int] = set()
        sz: set[int] = set()
        live = 0
        for u, v, w in self.triples:
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


def post_table3(model: Model, x: IntVar, y: IntVar, z: IntVar,
                triples: Iterable[tuple[int, int, int]],
                category: str = "user") -> TernaryTable:
    return model.post(TernaryTable(x, y, z, triples), category)


# ------------------------------------------------------------------ channels


class SetCharChannel(Propagator):
    """Characteristic-vector channel: bits[j] = 1 iff universe[j] is in the set."""

    __slots__ = ("svar", "bits", "universe")

    def __init__(self, svar: SetVar, bits: Sequence[IntVar], universe: Sequence[int]):
        super().__init__()
        self.svar = svar
        self.bits = list(bits)
        self.universe = list(universe)
        self.watches = [svar] + self.bits

    def filter(self, m: Model) -> bool:
        s = self.svar
        for j, v in enumerate(self.universe):
            b = self.bits[j]
            if v in s.lb and not m.remove_value(b, 0):
                return False
            if v not in s.ub and not m.remove_value(b, 1):
                return False
            if b.domain == {1} and not m.include_value(s, v):
                return False
            if b.domain == {0} and not m.exclude_value(s, v):
                return False
        if s.is_assigned() and all(b.is_assigned() for b in self.bits):
            m.set_entailed(self)
        return True


# -------------------------------------------------------------- small relations


class NotAllEqual3(Propagator):
    """At least two of x, y, z differ.  Arguments may repeat.

    With a repeated argument the constraint collapses to a disequality on the
    remaining pair, which is what gets propagated then.
    """

    __slots__ = ("x", "y", "z")

    def __init__(self, x: IntVar, y: IntVar, z: IntVar):
        super().__init__()
        self.x, self.y, self.z = x, y, z
        self.watches = [x, y, z]

    def _neq(self, m: Model, a: IntVar, b: IntVar) -> bool:
        if a.is_assigned() and not m.remove_value(b, a.value()):
            return False
        if b.is_assigned() and not m.remove_value(a, b.value()):
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
        trio = (x, y, z)
        for a, b, c in ((0, 1, 2), (0, 2, 1), (1, 2, 0)):
            va, vb, vc = trio[a], trio[b], trio[c]
            if va.is_assigned() and vb.is_assigned() and va.value() == vb.value():
                if not m.remove_value(vc, va.value()):
                    return False
        if not (x.domain & y.domain & z.domain):
            m.set_entailed(self)
        return True


def post_not_all_equal3(model: Model, x: IntVar, y: IntVar, z: IntVar,
                        category: str = "user") -> NotAllEqual3:
    return model.post(NotAllEqual3(x, y, z), category)
