"""Shared exhaustive-sweep helpers for the acceptance suite.

One model per (encoding, n) pair is reused across every domain combination:
push a choice point, retain the combination, propagate, compare against the
solution-filtered oracle, pop.  The oracle side indexes a precomputed full
solution list instead of re-enumerating: by (position, value) for
finite-domain sweeps and by (set, element, in or out) for set sweeps, as
big-int masks of solution ids, so a combo costs one AND per fixed choice.
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


def sweep_set(values, universe, n, combos=None):
    """Check the set encoding's lb/ub fixpoint against the oracle, exhaustively.

    A combo gives each set its (lb, ub); it is applied by fixing the sets'
    bits, and the oracle side indexes the solutions by (set, element, in or
    out) as big-int masks of solution ids, like ``sweep_fd``.
    """
    universe = sorted(universe)
    m = Model()
    svars = [m.add_set_var(set(), universe) for _ in range(n)]
    encode_set_precedence(m, values, svars)
    if m.propagate() is FAILED:
        raise AssertionError("set encoding fails on free bounds")

    all_sets = [frozenset(c) for r in range(len(universe) + 1)
                for c in itertools.combinations(universe, r)]
    sols = [sets for sets in itertools.product(all_sets, repeat=n)
            if set_precedence_holds(values, sets)]
    # has[i][v][b] = mask of the ids of the solutions with (v in S_i) == b
    has = [{v: [0, 0] for v in universe} for _ in range(n)]
    for sid, sets in enumerate(sols):
        for i, s in enumerate(sets):
            for v in universe:
                has[i][v][v in s] |= 1 << sid
    if combos is None:
        combos = itertools.product(bound_pairs(universe), repeat=n)

    checked = 0
    mismatches = []
    for combo in combos:
        # (set, element, bit) for every bit the combo fixes
        fixed = [(i, v, int(v in lb)) for i, (lb, ub) in enumerate(combo)
                 for v in universe if v in lb or v not in ub]
        m.push_choice()
        alive = all(m.retain_values(svars[i].bits[v], (b,)) for i, v, b in fixed)
        if alive and m.propagate() is not FAILED:
            enc = [(sv.lb, sv.ub) for sv in svars]
        else:
            enc = None
        m.pop_choice()

        surv = (1 << len(sols)) - 1
        for i, v, b in fixed:
            surv &= has[i][v][b]
        orc = [(frozenset(v for v in universe if not has[i][v][0] & surv),
                frozenset(v for v in universe if has[i][v][1] & surv))
               for i in range(n)] if surv else None

        if enc != orc:
            mismatches.append((combo, enc, orc))
        checked += 1
    return checked, mismatches
