"""Propagators: ternary tables, lexicographic ordering, channels, counting.

Every filter here is idempotent and monotone.  The lex propagators reason on
product domains: with vectors that share no variables this gives GAC; with
aliased vectors the pruning stays sound but may be incomplete (documented on
the posting helpers).
"""
from __future__ import annotations

from typing import Callable, Iterable, Optional, Sequence

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


def _retain_supported(m: Model, xs: Sequence[IntVar], base: tuple[int, ...],
                      supported: Callable[[tuple[int, ...]], bool]) -> bool:
    """Keep each value v of ``xs[i]`` for which ``supported(base with v at i)``."""
    row = list(base)
    for i, var in enumerate(xs):
        if len(var.domain) > 1:
            keep = []
            for v in sorted(var.domain):
                row[i] = v
                if supported(tuple(row)):
                    keep.append(v)
            row[i] = base[i]
            if len(keep) < len(var.domain) and not m.retain_values(var, keep):
                return False
    return True


class LexLeq(Propagator):
    """left <=lex right (optionally strict) over equal-length variable vectors.

    Support reasoning: a value v at position i of the left vector is viable
    iff the smallest left tuple taking v is still <=lex the largest right
    tuple, and symmetrically on the right.  Exact (GAC) when the two vectors
    share no variables.
    """

    __slots__ = ("left", "right", "strict")

    def __init__(self, left: Sequence[IntVar], right: Sequence[IntVar], strict: bool = False):
        super().__init__()
        if len(left) != len(right):
            raise ValueError("lex vectors must have equal length")
        self.left = list(left)
        self.right = list(right)
        self.strict = strict
        self.watches = self.left + self.right

    def _ok(self, a: tuple, b: tuple) -> bool:
        return a < b if self.strict else a <= b

    def filter(self, m: Model) -> bool:
        amin = _min_tuple([v.domain for v in self.left])
        bmax = _max_tuple([v.domain for v in self.right])
        if not self._ok(amin, bmax):
            return False
        amax = _max_tuple([v.domain for v in self.left])
        bmin = _min_tuple([v.domain for v in self.right])
        if self._ok(amax, bmin):
            m.set_entailed(self)
            return True
        return (_retain_supported(m, self.left, amin, lambda t: self._ok(t, bmax))
                and _retain_supported(m, self.right, bmax, lambda t: self._ok(amin, t)))



def post_lex_leq(model: Model, left: Sequence[IntVar], right: Sequence[IntVar],
                 strict: bool = False, category: str = "user") -> LexLeq:
    return model.post(LexLeq(left, right, strict), category)


class LexChainComplete(Propagator):
    """columns[0] >=lex columns[1] >=lex ... with filtering across the whole chain.

    For each column the propagator computes the largest tuple that can extend
    to the head of the chain and the smallest that can extend to the tail;
    a value survives iff some column tuple between those two bounds uses it.
    Columns must not share variables.
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
                col_doms[i] = var.domain
                if not keep:
                    return False
                if len(keep) < len(var.domain) and not m.retain_values(var, keep):
                    return False
        doms = [[v.domain for v in col] for col in self.columns]
        if all(_max_tuple(doms[j + 1]) <= _min_tuple(doms[j])
               for j in range(k - 1)):
            m.set_entailed(self)
        return True


def post_lex_chain(model: Model, columns: Sequence[Sequence[IntVar]],
                   strict: bool = False, complete: bool = False,
                   category: str = "user") -> list[Propagator]:
    """Order columns non-increasingly: columns[0] >=lex columns[1] >=lex ...

    Default posts pairwise LexLeq between adjacent columns.  ``complete=True``
    posts a single chain propagator whose filtering spans all columns (only
    non-strict order is supported there).
    """
    if complete:
        if strict:
            raise ValueError("complete chain filtering supports non-strict order only")
        return [model.post(LexChainComplete(columns), category)]
    props = []
    for a, b in zip(columns, columns[1:]):
        props.append(post_lex_leq(model, b, a, strict=strict, category=category))
    return props


# ------------------------------------------------------------------ channels


class ExactlyOne(Propagator):
    """Exactly one of the 0/1 variables takes value 1."""

    __slots__ = ("bits",)

    def __init__(self, bits: Sequence[IntVar]):
        super().__init__()
        for b in bits:
            if not b.domain <= {0, 1}:
                raise ValueError("exactly-one requires 0/1 variables")
        self.bits = list(bits)
        self.watches = list(self.bits)

    def filter(self, m: Model) -> bool:
        ones = [b for b in self.bits if b.domain == {1}]
        if len(ones) >= 2:
            return False
        if len(ones) == 1:
            chosen = ones[0]
            for b in self.bits:
                if b is not chosen and not m.remove_value(b, 1):
                    return False
            m.set_entailed(self)
            return True
        cand = [b for b in self.bits if 1 in b.domain]
        if not cand:
            return False
        if len(cand) == 1:
            if not m.assign(cand[0], 1):
                return False
            m.set_entailed(self)
        return True


def post_exactly_one(model: Model, bits: Sequence[IntVar],
                     category: str = "user") -> ExactlyOne:
    return model.post(ExactlyOne(bits), category)


class ValueChannel(Propagator):
    """x = values[j]  iff  bits[j] = 1.

    If x takes a value outside ``values`` the whole row is 0; pairing this
    with :class:`ExactlyOne` confines x to the listed values.
    """

    __slots__ = ("x", "bits", "values")

    def __init__(self, x: IntVar, bits: Sequence[IntVar], values: Sequence[int]):
        super().__init__()
        if len(bits) != len(values):
            raise ValueError("one bit per listed value")
        if len(set(values)) != len(values):
            raise ValueError("channel values must be distinct")
        self.x = x
        self.bits = list(bits)
        self.values = list(values)
        self.watches = [x] + self.bits

    def filter(self, m: Model) -> bool:
        x, bits, values = self.x, self.bits, self.values
        fixed_ones = [j for j, b in enumerate(bits) if 0 not in b.domain]
        if len(fixed_ones) >= 2:
            return False
        feas = []
        for j, v in enumerate(values):
            ok = v in x.domain and 1 in bits[j].domain
            if ok and fixed_ones and fixed_ones[0] != j:
                ok = False
            feas.append(ok)
        none_vals = x.domain - set(values)
        none_mode = bool(none_vals) and not fixed_ones
        keep_x = {v for j, v in enumerate(values) if feas[j]}
        if none_mode:
            keep_x |= none_vals
        if not keep_x:
            return False
        if not m.retain_values(x, keep_x):
            return False
        for j, b in enumerate(bits):
            if feas[j]:
                other = none_mode or any(feas[l] for l in range(len(values)) if l != j)
                if not other and not m.assign(b, 1):
                    return False
            elif not m.remove_value(b, 1):
                return False
        if x.is_assigned() and all(b.is_assigned() for b in bits):
            m.set_entailed(self)
        return True


def post_channel(model: Model, x: IntVar, bits: Sequence[IntVar],
                 values: Sequence[int], category: str = "user") -> ValueChannel:
    return model.post(ValueChannel(x, bits, values), category)


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


_OPS = {
    "=": lambda w, b: w == b,
    "<=": lambda w, b: w <= b,
    "<": lambda w, b: w < b,
    "!=": lambda w, b: w != b,
}


class Implication(Propagator):
    """(x = trigger) implies (y op bound); arc consistent on the pair."""

    __slots__ = ("x", "trigger", "y", "op", "bound")

    def __init__(self, x: IntVar, trigger: int, y: IntVar, op: str, bound: int):
        super().__init__()
        if op not in _OPS:
            raise ValueError(f"unknown comparison {op!r}")
        self.x, self.trigger, self.y, self.op, self.bound = x, trigger, y, op, bound
        self.watches = [x, y]

    def filter(self, m: Model) -> bool:
        if self.trigger not in self.x.domain:
            m.set_entailed(self)
            return True
        test = _OPS[self.op]
        ok = {w for w in self.y.domain if test(w, self.bound)}
        if not ok:
            if not m.remove_value(self.x, self.trigger):
                return False
            m.set_entailed(self)
            return True
        if self.x.domain == {self.trigger}:
            if not m.retain_values(self.y, ok):
                return False
        if ok >= self.y.domain:
            m.set_entailed(self)
        return True


def post_implications(model: Model, clauses: Iterable[tuple[IntVar, int, IntVar, str, int]],
                      category: str = "user") -> list[Implication]:
    """Post clauses of the form (x = a) -> (y op b), one propagator each."""
    return [model.post(Implication(x, a, y, op, b), category)
            for (x, a, y, op, b) in clauses]


class LessThan(Propagator):
    """a < b on integer variables."""

    __slots__ = ("a", "b")

    def __init__(self, a: IntVar, b: IntVar):
        super().__init__()
        self.a, self.b = a, b
        self.watches = [a, b]

    def filter(self, m: Model) -> bool:
        hi = self.b.max()
        if not m.retain_values(self.a, {v for v in self.a.domain if v < hi}):
            return False
        lo = self.a.min()
        if not m.retain_values(self.b, {v for v in self.b.domain if v > lo}):
            return False
        if self.a.max() < self.b.min():
            m.set_entailed(self)
        return True


def post_less_than(model: Model, a: IntVar, b: IntVar,
                   category: str = "user") -> LessThan:
    return model.post(LessThan(a, b), category)
