"""Brute-force consistency oracles and definitional predicates.

Everything here works by exhaustive enumeration straight from definitions,
with no shared machinery with the propagation engine.  It is the referee the
encodings are tested against: slow, obvious, and trusted.  Every precedence
rule is one predicate, ``partition_precedence_holds``: first-occurrence order
inside value classes, a direct definition that looks up each first
occurrence once per tuple (``list.index``) rather than once per value pair.
Pair, full and partial interchange give it their classes.  Wreath codes give
it one class per outer block plus the class of block heads (the
``WreathInterchange.code_classes``), and a set pair (v, w) is the class
(1, -1) over each set's ``(v in s) - (w in s)``.
"""
from __future__ import annotations

import itertools
from typing import Callable, Iterable, Optional, Sequence

from .symmetry import (ENUM_CAP, SymmetrySpec, WreathInterchange, assignment_orbit,
                       value_group_order, value_permutations, variable_group_order,
                       variable_permutations)


# ----------------------------------------------------------------- predicates


def partition_precedence_holds(classes: Sequence[Sequence[int]],
                               xs: Sequence[int]) -> bool:
    """In each class, first occurrences of its values appear in class order.

    Each class lists distinct values, and classes may share a value (the
    wreath heads class shares each head with its block): each class is
    checked on its own.  An absent value's first occurrence counts as
    n + 1, and the rule fails as soon as one comes earlier than the one
    before it.  That is the pairwise definition, as distinct values that
    occur have distinct first positions.
    """
    absent = len(xs) + 1
    for cls in classes:
        prev = 0
        for v in cls:
            at = xs.index(v) + 1 if v in xs else absent
            if at < prev:
                return False
            prev = at
    return True


def all_precedence_holds(values: Sequence[int], xs: Sequence[int]) -> bool:
    """First occurrences of the listed values appear in list order: one class."""
    return partition_precedence_holds((values,), xs)


def wreath_precedence_holds(spec: WreathInterchange, codes: Sequence[int]) -> bool:
    """Canonical order for pair values under outer-then-inner interchange.

    First occurrences of the outer components appear in outer-list order, and
    within each outer component first occurrences of the inner components
    appear in inner-list order.  That is the class rule over the spec's
    ``code_classes``.  Raises ValueError on a code outside ``spec.codes``.
    """
    spec.require_codes(codes)
    return partition_precedence_holds(spec.code_classes, codes)


def set_pair_precedence_holds(first: int, second: int,
                              sets: Sequence[frozenset[int]]) -> bool:
    """First set containing first alone precedes the first containing second alone.

    Each set is read once: the class (1, -1) over 1 where a set holds first
    alone, -1 where it holds second alone.
    """
    return partition_precedence_holds(
        ((1, -1),), [(first in s) - (second in s) for s in sets])


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
    return list(filter(pred, itertools.product(*doms)))


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
    group is not a symmetry of it, and, before listing either group, if the
    two orders' product (the images made per orbit) exceeds ``ENUM_CAP``.
    """
    pool = {tuple(a) for a in assignments}
    if not pool:
        return []
    n = len(next(iter(pool)))
    vorder = value_group_order(spec) if spec is not None else 1
    porder = variable_group_order(variable_group, n)
    if vorder * porder > ENUM_CAP:
        raise ValueError(f"the value group's {vorder} elements times the position "
                         f"group's {porder} exceed the cap of {ENUM_CAP} images per orbit")
    vperms = value_permutations(spec) if spec is not None else [{}]
    pperms = variable_permutations(variable_group, n)
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
