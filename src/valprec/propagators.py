"""Propagators: ternary tables, lexicographic ordering, the set channel, and
not-all-equal.

Every filter here is monotone.  The lex propagator reasons on product
domains: with columns that share no variables this gives GAC in one call;
with aliased columns the pruning stays sound but may be incomplete, and a
second call may prune more (the engine re-runs a filter that changed one of
its own variables).  Other small relations are compiled to table chains in
:mod:`valprec.precedence`.
"""
from __future__ import annotations

from typing import Iterable, Optional, Sequence

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


# ------------------------------------------------------------- lex ordering


def _max_tuple(doms: Sequence[set[int]]) -> tuple[int, ...]:
    return tuple(max(d) for d in doms)


def _min_tuple(doms: Sequence[set[int]]) -> tuple[int, ...]:
    return tuple(min(d) for d in doms)


def max_leq(doms: Sequence[set[int]], bound: Sequence[int]) -> Optional[tuple[int, ...]]:
    """Largest tuple of the product domain that is lexicographically <= bound."""
    n = len(doms)
    prefix: list[int] = []
    for i in range(n):
        v = max((c for c in doms[i] if c <= bound[i]), default=None)
        if v is None:
            for j in range(i - 1, -1, -1):
                w = max((c for c in doms[j] if c < bound[j]), default=None)
                if w is not None:
                    return tuple(prefix[:j] + [w] + [max(doms[t]) for t in range(j + 1, n)])
            return None
        if v < bound[i]:
            return tuple(prefix + [v] + [max(doms[t]) for t in range(i + 1, n)])
        prefix.append(v)
    return tuple(prefix)


def min_geq(doms: Sequence[set[int]], bound: Sequence[int]) -> Optional[tuple[int, ...]]:
    """Smallest tuple of the product domain that is lexicographically >= bound.

    Negation reverses lex order, so this is ``max_leq`` on negated domains.
    """
    t = max_leq([{-c for c in d} for d in doms], [-b for b in bound])
    return None if t is None else tuple(-c for c in t)


class LexChainComplete(Propagator):
    """columns[0] >=lex columns[1] >=lex ... with filtering across the whole chain.

    For each column the propagator computes the largest tuple that can extend
    to the head of the chain and the smallest that can extend to the tail;
    a value survives iff some column tuple between those two bounds uses it.
    The pruning is sound when columns share variables, and GAC when they do
    not.
    """

    __slots__ = ("columns",)

    def __init__(self, columns: Sequence[Sequence[IntVar]]):
        super().__init__()
        lengths = {len(c) for c in columns}
        if len(lengths) > 1:
            raise ValueError("chain columns must have equal length")
        self.columns = [list(c) for c in columns]
        self.watches = [v for col in self.columns for v in col]

    def filter(self, m: Model) -> bool:
        k = len(self.columns)
        doms = [[v.domain for v in col] for col in self.columns]
        ubs: list[tuple[int, ...]] = []
        for j in range(k):
            t = _max_tuple(doms[j]) if j == 0 else max_leq(doms[j], ubs[j - 1])
            if t is None:
                return False
            ubs.append(t)
        lbs: list[Optional[tuple[int, ...]]] = [None] * k
        for j in range(k - 1, -1, -1):
            t = _min_tuple(doms[j]) if j == k - 1 else min_geq(doms[j], lbs[j + 1])
            if t is None:
                return False
            lbs[j] = t
        for j in range(k):
            ub = ubs[j - 1] if j > 0 else None
            lb = lbs[j + 1] if j < k - 1 else None
            for i, var in enumerate(self.columns[j]):
                keep = []
                col_doms = list(doms[j])
                for v in sorted(var.domain):
                    col_doms[i] = {v}
                    t = _max_tuple(col_doms) if ub is None else max_leq(col_doms, ub)
                    if t is not None and (lb is None or t >= lb):
                        keep.append(v)
                if not keep:
                    return False
                if len(keep) < len(var.domain) and not m.retain_values(var, keep):
                    return False
        doms = [[v.domain for v in col] for col in self.columns]
        if all(_max_tuple(doms[j + 1]) <= _min_tuple(doms[j])
               for j in range(k - 1)):
            m.set_entailed(self)
        return True


def post_lex_leq(model: Model, left: Sequence[IntVar], right: Sequence[IntVar],
                 category: str = "user") -> LexChainComplete:
    """left <=lex right, as the two-column chain [right, left]."""
    return model.post(LexChainComplete([right, left]), category)


def post_lex_chain(model: Model, columns: Sequence[Sequence[IntVar]],
                   complete: bool = False,
                   category: str = "user") -> list[Propagator]:
    """Order columns non-increasingly: columns[0] >=lex columns[1] >=lex ...

    Default posts one two-column chain per adjacent pair.  ``complete=True``
    posts a single chain propagator whose filtering spans all columns.
    """
    if complete:
        return [model.post(LexChainComplete(columns), category)]
    return [post_lex_leq(model, b, a, category)
            for a, b in zip(columns, columns[1:])]


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
