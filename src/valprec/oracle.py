"""Brute-force consistency oracles and definitional predicates.

Everything here works by exhaustive enumeration straight from definitions,
with no shared machinery with the propagation engine.  It is the referee the
encodings are tested against: slow, obvious, and trusted.
"""
from __future__ import annotations

import itertools
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
    if not all_precedence_holds(spec.outer, [u for u, _ in pairs]):
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


def enumerate_solutions(pred: Callable[[tuple[int, ...]], bool],
                        domains: Sequence[Iterable[int]]) -> list[tuple[int, ...]]:
    doms = [sorted(d) for d in domains]
    size = 1
    for d in doms:
        size *= len(d)
    if size > ENUM_CAP:
        raise ValueError(f"enumeration space {size} exceeds cap {ENUM_CAP}")
    return [t for t in itertools.product(*doms) if pred(t)]


def gac_by_definition(pred: Callable[[tuple[int, ...]], bool],
                      domains: Sequence[Iterable[int]]) -> Optional[list[set[int]]]:
    """Domains after removing every value without a solution, None if wiped out."""
    sols = enumerate_solutions(pred, domains)
    if not sols:
        return None
    return [set(column) for column in zip(*sols)]


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


# ----------------------------------------------------------------- orbit tools


def enumerate_orbits(assignments: Iterable[Sequence[int]],
                     spec: Optional[SymmetrySpec] = None,
                     variable_group: str = "none"
                     ) -> list[frozenset[tuple[int, ...]]]:
    """Partition a closed set of assignments into the group's orbits.

    The group is ``spec``'s value permutations (none when omitted) combined
    with ``variable_group``'s position permutations.  Each orbit is the
    frozenset of its members, and orbits come in the order of their
    lex-least members.  Raises ValueError if an image of an assignment falls
    outside the given set, which would mean the set is not exhaustive or the
    group is not a symmetry of it.
    """
    pool = {tuple(a) for a in assignments}
    if not pool:
        return []
    vperms = value_permutations(spec) if spec is not None else [{}]
    pperms = variable_permutations(variable_group, len(next(iter(pool))))
    orbits: list[frozenset[tuple[int, ...]]] = []
    seen: set[tuple[int, ...]] = set()
    for t in sorted(pool):
        if t in seen:
            continue
        orbit = frozenset(assignment_orbit(t, vperms, pperms))
        if not orbit <= pool:
            raise ValueError("assignment set not closed under the group: "
                             f"{min(orbit - pool)}")
        orbits.append(orbit)
        seen |= orbit
    return orbits
