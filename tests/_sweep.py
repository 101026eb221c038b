"""Shared exhaustive-sweep helpers for the acceptance suite.

One model per (encoding, n) pair is reused across every domain combination:
push a choice point, retain the combination, propagate, compare against the
solution-filtered oracle, pop.  The oracle side filters a precomputed full
solution list instead of re-enumerating, which keeps full sweeps at tens of
microseconds per instance; finite-domain sweeps index that list by
(position, value) as big-int masks of solution ids.
"""
import itertools

from valprec.engine import Model, PropagationStatus
from valprec.fuzz import post_encoding, predicate_for
from valprec.oracle import enumerate_solutions, set_precedence_holds
from valprec.precedence import encode_set_precedence

FAILED = PropagationStatus.FAILED


def nonempty_subsets(universe):
    u = sorted(universe)
    return [frozenset(c) for r in range(1, len(u) + 1)
            for c in itertools.combinations(u, r)]


def sweep_fd(spec, universe, n, combos=None):
    """Check encoding fixpoint == filtered-solution oracle for each combo.

    Returns (checked, mismatches); a mismatch entry carries the combo and the
    two results.  ``combos`` defaults to every tuple of non-empty subsets.
    """
    m = Model()
    xs = [m.add_fd_var(set(universe)) for _ in range(n)]
    post_encoding(m, spec, xs)
    if m.propagate() is FAILED:
        raise AssertionError("encoding fails on full domains")
    root = [frozenset(x.domain) for x in xs]

    pred = predicate_for(spec)
    sols = enumerate_solutions(pred, [set(universe)] * n)
    # has[i][v] = mask of the ids of the solutions with t[i] == v
    has = [dict.fromkeys(universe, 0) for _ in range(n)]
    for sid, t in enumerate(sols):
        for i, v in enumerate(t):
            has[i][v] |= 1 << sid
    if combos is None:
        combos = itertools.product(nonempty_subsets(universe), repeat=n)

    checked = 0
    mismatches = []
    for combo in combos:
        m.push_choice()
        alive = True
        for x, keep in zip(xs, combo):
            if not m.retain_values(x, keep):
                alive = False
                break
        if alive and m.propagate() is not FAILED:
            enc = [set(x.domain) for x in xs]
        else:
            enc = None
        m.pop_choice()

        # the masks of one position are disjoint, so their sum is their union
        surv = -1
        for i, keep in enumerate(combo):
            surv &= sum(has[i][v] for v in keep)
        orc = [{v for v, ids in has[i].items() if ids & surv}
               for i in range(n)] if surv else None

        if enc != orc:
            mismatches.append((combo, enc, orc))
        checked += 1
    assert [frozenset(x.domain) for x in xs] == root
    return checked, mismatches


def bound_pairs(universe):
    """All (lb, ub) bound pairs with lb subset-of ub over the universe."""
    out = []
    for ub in nonempty_subsets(universe) + [frozenset()]:
        members = sorted(ub)
        for r in range(len(members) + 1):
            for lb in itertools.combinations(members, r):
                out.append((frozenset(lb), ub))
    return out


def _mask(s, order):
    bits = 0
    for v in s:
        bits |= 1 << order[v]
    return bits


def sweep_set(values, universe, n, combos=None):
    """Check the set encoding's lb/ub fixpoint against the oracle, exhaustively."""
    universe = sorted(universe)
    order = {v: i for i, v in enumerate(universe)}
    full = (1 << len(universe)) - 1

    m = Model()
    svars = [m.add_set_var(set(), set(universe)) for _ in range(n)]
    encode_set_precedence(m, values, svars)
    if m.propagate() is FAILED:
        raise AssertionError("set encoding fails on free bounds")

    all_sets = [frozenset(c) for r in range(len(universe) + 1)
                for c in itertools.combinations(universe, r)]
    sols = [tuple(_mask(s, order) for s in sets)
            for sets in itertools.product(all_sets, repeat=n)
            if set_precedence_holds(values, sets)]
    if combos is None:
        combos = itertools.product(bound_pairs(universe), repeat=n)

    checked = 0
    mismatches = []
    for combo in combos:
        m.push_choice()
        alive = True
        for sv, (lb, ub) in zip(svars, combo):
            for v in lb:
                if not m.include_value(sv, v):
                    alive = False
                    break
            if not alive:
                break
            for v in set(universe) - ub:
                if not m.exclude_value(sv, v):
                    alive = False
                    break
            if not alive:
                break
        if alive and m.propagate() is not FAILED:
            enc = [(_mask(sv.lb, order), _mask(sv.ub, order)) for sv in svars]
        else:
            enc = None
        m.pop_choice()

        masks = [(_mask(lb, order), _mask(ub, order)) for lb, ub in combo]
        surv = [t for t in sols
                if all(t[i] & masks[i][0] == masks[i][0]
                       and t[i] & ~masks[i][1] & full == 0
                       for i in range(n))]
        if surv:
            orc = []
            for i in range(n):
                lo, hi = full, 0
                for t in surv:
                    lo &= t[i]
                    hi |= t[i]
                orc.append((lo, hi))
        else:
            orc = None

        if enc != orc:
            mismatches.append((combo, enc, orc))
        checked += 1
    return checked, mismatches
