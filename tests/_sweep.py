"""Shared exhaustive-sweep helper for the acceptance suite.

One model per (encoding, n) pair is reused across every domain combination:
push a choice point, retain the combination, propagate, compare against the
solution-filtered oracle, pop.  The oracle side indexes a precomputed full
solution list by (position, value), as big-int masks of solution ids, so a
combo costs one AND per position.  A set encoding is swept on its sets'
0/1 bits, where GAC is lb/ub bound consistency on the sets.
"""
import itertools

from valprec.engine import Model, PropagationStatus, mask_values
from valprec.fuzz import (on_set_bits, post_encoding, predicate_for,
                          set_bits_holds)
from valprec.oracle import enumerate_solutions
from valprec.precedence import encode_set_precedence

FAILED = PropagationStatus.FAILED


def nonempty_subsets(universe):
    u = sorted(universe)
    return [frozenset(c) for r in range(1, len(u) + 1)
            for c in itertools.combinations(u, r)]


def sweep(post, pred, universe, n):
    """Check ``post``'s fixpoint == the GAC of ``pred`` for each combo.

    ``post(model, xs)`` posts the encoding on ``n`` variables over
    ``universe``, and a combo gives each of them a non-empty subset of it.
    Returns (checked, mismatches); a mismatch entry carries the combo and
    the two results.
    """
    m = Model()
    xs = [m.add_fd_var(set(universe)) for _ in range(n)]
    post(m, xs)
    if m.propagate() is FAILED:
        raise AssertionError("encoding fails on full domains")
    root = [frozenset(x.domain) for x in xs]

    sols = enumerate_solutions(pred, [set(universe)] * n)
    # has[i][v] = mask of the ids of the solutions with t[i] == v
    has = [dict.fromkeys(universe, 0) for _ in range(n)]
    for sid, t in enumerate(sols):
        for i, v in enumerate(t):
            has[i][v] |= 1 << sid

    checked = 0
    mismatches = []
    for combo in itertools.product(nonempty_subsets(universe), repeat=n):
        m.push_choice()
        alive = True
        for x, keep in zip(xs, combo):
            if not m.retain_values(x, keep):
                alive = False
                break
        if alive and m.propagate() is not FAILED:
            enc = [set(mask_values(x.mask)) for x in xs]
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


def sweep_fd(spec, universe, n):
    """``sweep`` of the encoding of ``spec`` against its predicate."""
    return sweep(lambda m, xs: post_encoding(m, spec, xs), predicate_for(spec),
                 universe, n)


def sweep_set(values, universe, n):
    """``sweep`` of the set chain over ``n`` sets' bits: every (lb, ub) pair."""
    return sweep(on_set_bits(lambda m, sets: encode_set_precedence(m, values, sets),
                             universe, n),
                 set_bits_holds(values, universe, n), (0, 1), n * len(universe))
