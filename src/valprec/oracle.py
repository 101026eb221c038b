"""Brute-force consistency oracles and definitional predicates.

Everything here works by exhaustive enumeration straight from definitions,
with no shared machinery with the propagation engine.  It is the referee the
encodings are tested against: slow, obvious, and trusted.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

from .symmetry import (SymmetrySpec, WreathInterchange, assignment_orbit,
                       value_permutations, variable_permutations)

ENUM_CAP = 10_000_000


# ----------------------------------------------------------------- predicates


def first_occurrence(xs: Sequence[int], value: int, default: int) -> int:
    """1-based index of the first position taking value, else default."""
    return next((i for i, x in enumerate(xs, start=1) if x == value), default)


def pair_precedence_holds(first: int, second: int, xs: Sequence[int]) -> bool:
    """second never appears strictly before the first occurrence of first."""
    n = len(xs)
    return first_occurrence(xs, first, n + 1) < first_occurrence(xs, second, n + 2)


def all_precedence_holds(values: Sequence[int], xs: Sequence[int]) -> bool:
    """First occurrences of the listed values appear in list order."""
    n = len(xs)
    return all(first_occurrence(xs, values[j], n + 1)
               < first_occurrence(xs, values[k], n + 2)
               for j in range(len(values))
               for k in range(j + 1, len(values)))


def partition_precedence_holds(classes: Sequence[Sequence[int]],
                               xs: Sequence[int]) -> bool:
    return all(all_precedence_holds(cls, xs) for cls in classes)


def wreath_precedence_holds(spec: WreathInterchange, codes: Sequence[int]) -> bool:
    """Canonical order for pair values under outer-then-inner interchange.

    First occurrences of the outer components appear in outer-list order, and
    within each outer component first occurrences of the inner components
    appear in inner-list order.
    """
    pairs = [spec.decode(c) for c in codes]
    n = len(pairs)
    outs = [u for u, _ in pairs]
    if not all(first_occurrence(outs, spec.outer[j], n + 1)
               < first_occurrence(outs, spec.outer[k], n + 2)
               for j in range(len(spec.outer))
               for k in range(j + 1, len(spec.outer))):
        return False
    for u in spec.outer:
        inners = [v for (w, v) in pairs if w == u]
        if not all_precedence_holds(spec.inner, inners):
            return False
    return True


def set_pair_precedence_holds(first: int, second: int,
                              sets: Sequence[frozenset[int]]) -> bool:
    """First set containing first alone precedes the first containing second alone."""
    n = len(sets)
    fj = next((i for i, s in enumerate(sets, start=1) if first in s and second not in s),
              n + 1)
    fk = next((i for i, s in enumerate(sets, start=1) if second in s and first not in s),
              n + 2)
    return fj < fk


def set_precedence_holds(values: Sequence[int], sets: Sequence[frozenset[int]]) -> bool:
    return all(set_pair_precedence_holds(values[j], values[k], sets)
               for j in range(len(values))
               for k in range(j + 1, len(values)))


def increasing_seq_holds(values: Sequence[int], xs: Sequence[int]) -> bool:
    """Staircase over the listed values with non-decreasing block counts.

    The sequence must start at values[0], each step either repeats the current
    value or moves to the next listed value, and among the values actually
    used the occurrence counts are non-decreasing in list order.
    """
    if not xs:
        return True
    idx = {v: j for j, v in enumerate(values)}
    if any(x not in idx for x in xs):
        return False
    if idx[xs[0]] != 0:
        return False
    for a, b in zip(xs, xs[1:]):
        if idx[b] not in (idx[a], idx[a] + 1):
            return False
    used = idx[xs[-1]]
    counts = [sum(1 for x in xs if x == values[j]) for j in range(used + 1)]
    return all(counts[j] <= counts[j + 1] for j in range(used))


# --------------------------------------------------------- consistency oracles


def _check_cap(size: int) -> None:
    if size > ENUM_CAP:
        raise ValueError(f"enumeration space {size} exceeds cap {ENUM_CAP}")


def enumerate_solutions(pred: Callable[[tuple[int, ...]], bool],
                        domains: Sequence[Iterable[int]]) -> list[tuple[int, ...]]:
    doms = [sorted(d) for d in domains]
    size = 1
    for d in doms:
        size *= len(d)
    _check_cap(size)
    return [t for t in itertools.product(*doms) if pred(t)]


def gac_by_definition(pred: Callable[[tuple[int, ...]], bool],
                      domains: Sequence[Iterable[int]]) -> Optional[list[set[int]]]:
    """Domains after removing every value without a solution, None if wiped out."""
    sols = enumerate_solutions(pred, domains)
    return gac_from_solutions(sols, domains)


def iterated_gac(preds: Sequence[Callable[[tuple[int, ...]], bool]],
                 domains: Sequence[Iterable[int]]) -> Optional[list[set[int]]]:
    """Fixpoint of per-constraint GAC over several predicates, None on wipeout.

    This is the reference for what a decomposition can prune: each constraint
    is made GAC in turn until no domain changes.
    """
    doms: Optional[list[set[int]]] = [set(d) for d in domains]
    changed = True
    while changed:
        changed = False
        for pred in preds:
            nxt = gac_by_definition(pred, doms)
            if nxt is None:
                return None
            if nxt != doms:
                doms = nxt
                changed = True
    return doms


def gac_from_solutions(solutions: Iterable[Sequence[int]],
                       domains: Sequence[Iterable[int]]) -> Optional[list[set[int]]]:
    """GAC domains given a precomputed superset of candidate solutions.

    ``solutions`` must contain every solution inside ``domains`` (extra tuples
    outside the domains are ignored), so a full-space solution list can be
    reused across many subdomain queries.
    """
    doms = [set(d) for d in domains]
    out: list[set[int]] = [set() for _ in doms]
    for t in solutions:
        if all(v in d for v, d in zip(t, doms)):
            for s, v in zip(out, t):
                s.add(v)
    if any(not s for s in out):
        return None
    return out


@dataclass(frozen=True)
class SetBounds:
    """Bound domain of a set variable: lb subset-of S subset-of ub."""
    lb: frozenset[int]
    ub: frozenset[int]

    def subsets(self) -> list[frozenset[int]]:
        extra = sorted(self.ub - self.lb)
        return [self.lb | frozenset(combo)
                for r in range(len(extra) + 1)
                for combo in itertools.combinations(extra, r)]


def bc_by_definition(pred: Callable[[tuple[frozenset[int], ...]], bool],
                     set_bounds: Sequence[SetBounds]) -> Optional[list[SetBounds]]:
    """Bound-consistent closure of set bounds by enumeration, None if unsatisfiable.

    ``pred`` is called with a tuple of frozensets.  Lower bounds grow to the
    intersection of supports, upper bounds shrink to their union.
    """
    choices = [sb.subsets() for sb in set_bounds]
    size = 1
    for c in choices:
        size *= len(c)
    _check_cap(size)
    supports = [sets for sets in itertools.product(*choices) if pred(sets)]
    if not supports:
        return None
    return [SetBounds(frozenset.intersection(*seen), frozenset.union(*seen))
            for seen in zip(*supports)]


# ----------------------------------------------------------------- orbit tools


@dataclass(frozen=True)
class Orbit:
    canonical: tuple[int, ...]
    size: int


@dataclass
class OrbitReport:
    orbits: list[Orbit] = field(default_factory=list)

    @property
    def num_orbits(self) -> int:
        return len(self.orbits)

    @property
    def total(self) -> int:
        return sum(o.size for o in self.orbits)

    def canonicals(self) -> set[tuple[int, ...]]:
        return {o.canonical for o in self.orbits}


def enumerate_orbits(solutions: Iterable[Sequence[int]],
                     spec: Optional[SymmetrySpec] = None,
                     variable_group: str = "none") -> OrbitReport:
    """Partition a closed solution set into orbits; canonical = lex-least.

    Raises ValueError if an image of a solution falls outside the given set,
    which would mean the set is not exhaustive or the group is not a symmetry.
    """
    pool = {tuple(s) for s in solutions}
    if not pool:
        return OrbitReport()
    n = len(next(iter(pool)))
    vperms = value_permutations(spec) if spec is not None else [{}]
    pperms = variable_permutations(variable_group, n)
    report = OrbitReport()
    remaining = set(pool)
    while remaining:
        seed = min(remaining)
        orb = assignment_orbit(seed, vperms, pperms)
        stray = orb - pool
        if stray:
            raise ValueError(f"solution set not closed under the group: {min(stray)}")
        report.orbits.append(Orbit(min(orb), len(orb)))
        remaining -= orb
    report.orbits.sort(key=lambda o: o.canonical)
    return report
