"""Ground-truth predicates, exhaustive consistency closures, orbit counting."""
import itertools

import pytest
from hypothesis import given, strategies as st

from valprec.oracle import (
    SetBounds,
    all_precedence_holds,
    bc_by_definition,
    enumerate_orbits,
    enumerate_solutions,
    first_occurrence,
    gac_by_definition,
    gac_from_solutions,
    increasing_seq_holds,
    iterated_gac,
    pair_precedence_holds,
    partition_precedence_holds,
    set_pair_precedence_holds,
    set_precedence_holds,
    wreath_precedence_holds,
)
from valprec.symmetry import FullInterchange, WreathInterchange


# ----------------------------------------------------------------- predicates


def test_first_occurrence():
    assert first_occurrence([3, 1, 3], 3, 99) == 1
    assert first_occurrence([3, 1, 3], 1, 99) == 2
    assert first_occurrence([3, 1, 3], 7, 99) == 99


def test_pair_precedence_examples():
    assert pair_precedence_holds(1, 2, [1, 2, 1])
    assert pair_precedence_holds(1, 2, [1, 1, 1])
    assert not pair_precedence_holds(1, 2, [2, 1, 1])
    # neither value present: the missing first defaults earlier than the
    # missing second, so the constraint holds vacuously
    assert pair_precedence_holds(1, 2, [3, 3])
    assert not pair_precedence_holds(1, 2, [3, 2])


def test_all_precedence_examples():
    assert all_precedence_holds([1, 2, 3], [1, 2, 1, 3])
    assert all_precedence_holds([1, 2, 3], [1, 1, 1])
    assert not all_precedence_holds([1, 2, 3], [1, 3, 2])
    assert not all_precedence_holds([1, 2, 3], [2, 1, 3])


def test_partition_precedence_is_per_class():
    classes = [[1, 2], [3, 4]]
    assert partition_precedence_holds(classes, [3, 1, 4, 2])
    assert not partition_precedence_holds(classes, [4, 1, 3, 2])
    assert not partition_precedence_holds(classes, [3, 2, 4, 1])


def test_wreath_precedence_examples():
    spec = WreathInterchange(outer=(1, 2), inner=(3, 4))
    c13, c14, c23, c24 = (spec.code(1, 3), spec.code(1, 4),
                          spec.code(2, 3), spec.code(2, 4))
    assert wreath_precedence_holds(spec, [c13, c23, c14, c24])
    assert wreath_precedence_holds(spec, [c13, c13])
    # outer 2 opens before outer 1
    assert not wreath_precedence_holds(spec, [c23, c13])
    # inner 4 used before inner 3 within outer 1
    assert not wreath_precedence_holds(spec, [c14, c23])
    # inner order is tracked per outer value
    assert wreath_precedence_holds(spec, [c13, c23, c24, c14])


def test_set_precedence_examples():
    s = [frozenset(a) for a in ({0}, {0, 1}, {1}, set())]
    assert set_pair_precedence_holds(0, 1, s)
    assert not set_pair_precedence_holds(1, 0, s)
    # sets containing both or neither are skipped when locating occurrences
    both = [frozenset({0, 1}), frozenset({1})]
    assert not set_pair_precedence_holds(0, 1, both)
    assert set_precedence_holds([0, 1, 2],
                                [frozenset({0}), frozenset({1}), frozenset({2})])
    assert not set_precedence_holds([0, 1, 2],
                                    [frozenset({0}), frozenset({2}), frozenset({1})])


def test_increasing_seq_examples():
    assert increasing_seq_holds([1, 2, 3], [1, 2, 2])
    assert increasing_seq_holds([1, 2, 3], [1, 1, 1])
    assert increasing_seq_holds([1, 2, 3], [1, 2, 3])
    assert not increasing_seq_holds([1, 2, 3], [1, 1, 2])
    assert not increasing_seq_holds([1, 2, 3], [2, 2, 3])
    assert not increasing_seq_holds([1, 2, 3], [1, 3, 3])
    assert not increasing_seq_holds([1, 2, 3], [1, 2, 1])
    assert not increasing_seq_holds([1, 2, 3], [1, 9, 9])
    assert increasing_seq_holds([1, 2, 3], [])


# ------------------------------------------------------------------ gac oracle


def test_gac_prunes_value_without_support():
    doms = [{1}, {1, 2}, {1, 3}, {3, 4}]
    got = gac_by_definition(lambda t: all_precedence_holds([1, 2, 3, 4], t), doms)
    assert got == [{1}, {2}, {1, 3}, {3, 4}]


def test_gac_trivial_predicates():
    doms = [{1, 2}, {3, 4}]
    assert gac_by_definition(lambda t: True, doms) == [set(d) for d in doms]
    assert gac_by_definition(lambda t: False, doms) is None


def test_gac_cap_refused():
    # 100**5 = 10**10 assignments, over ENUM_CAP
    doms = [set(range(100))] * 5
    with pytest.raises(ValueError):
        gac_by_definition(lambda t: True, doms)


@given(st.data())
def test_gac_idempotent(data):
    doms = [data.draw(st.sets(st.integers(0, 3), min_size=1, max_size=4))
            for _ in range(3)]
    allowed = data.draw(st.sets(
        st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)),
        max_size=15))
    got = gac_by_definition(lambda t: t in allowed, doms)
    if got is not None:
        assert gac_by_definition(lambda t: t in allowed, got) == got


def test_gac_from_solutions_agrees_with_direct():
    doms = [{1, 2, 3}, {1, 2, 3}]
    pred = lambda t: t[0] < t[1]
    sols = enumerate_solutions(pred, doms)
    assert gac_from_solutions(sols, doms) == gac_by_definition(pred, doms)
    assert gac_from_solutions([], doms) is None


def test_iterated_gac_is_weaker_than_joint():
    doms = [{1, 2}] * 3
    neq = [lambda t, i=i, j=j: t[i] != t[j]
           for i, j in ((0, 1), (1, 2), (0, 2))]
    per = iterated_gac(neq, doms)
    assert per == [set(d) for d in doms]
    joint = gac_by_definition(lambda t: all(p(t) for p in neq), doms)
    assert joint is None


def test_iterated_gac_reaches_fixpoint_and_reports_wipeout():
    doms = [{1, 2, 3}, {1, 2, 3}]
    got = iterated_gac([lambda t: t[0] < t[1], lambda t: t[1] < t[0]], doms)
    assert got is None
    got = iterated_gac([lambda t: t[0] < t[1], lambda t: t[1] == 2], doms)
    assert got == [{1}, {2}]


# ------------------------------------------------------------------- bc oracle


def test_bc_tightens_set_lower_bound():
    values = [0, 1, 2]
    bounds = [SetBounds(frozenset(), frozenset({0})),
              SetBounds(frozenset(), frozenset({1})),
              SetBounds(frozenset(), frozenset({1})),
              SetBounds(frozenset(), frozenset({0})),
              SetBounds(frozenset({2}), frozenset({2}))]
    new_sets = bc_by_definition(lambda sets: set_precedence_holds(values, sets),
                                bounds)
    assert new_sets is not None
    assert new_sets[0].lb == frozenset({0})
    assert new_sets[0].ub == frozenset({0})


def test_bc_unconstrained_bounds_unchanged():
    bounds = [SetBounds(frozenset({1}), frozenset({1, 2, 3}))]
    new_sets = bc_by_definition(lambda sets: True, bounds)
    assert new_sets is not None
    assert new_sets[0].lb == frozenset({1})
    assert new_sets[0].ub == frozenset({1, 2, 3})


def test_bc_unsatisfiable_returns_none():
    bounds = [SetBounds(frozenset(), frozenset({0, 1}))]
    assert bc_by_definition(lambda sets: False, bounds) is None


def test_bc_cap_refused():
    # 8 sets with 16 subsets each: 2**32 combinations, over ENUM_CAP
    bounds = [SetBounds(frozenset(), frozenset(range(4)))] * 8
    with pytest.raises(ValueError):
        bc_by_definition(lambda sets: True, bounds)


# ----------------------------------------------------------------- orbit tools


def test_orbits_of_free_binary_cube():
    sols = list(itertools.product([1, 2], repeat=3))
    report = enumerate_orbits(sols, FullInterchange(values=(1, 2)))
    assert report.num_orbits == 4
    assert report.total == 8
    assert all(o.size == 2 for o in report.orbits)


def test_orbit_of_constant_solution():
    # the swapped constant is missing, so the set is not closed
    with pytest.raises(ValueError):
        enumerate_orbits([(1, 1)], FullInterchange(values=(1, 2)))
    report = enumerate_orbits([(1, 1), (2, 2)], FullInterchange(values=(1, 2)))
    assert report.num_orbits == 1
    assert report.orbits[0].size == 2
    assert report.orbits[0].canonical == (1, 1)


def test_reflection_plus_value_swap_merges_known_pair():
    report = enumerate_orbits(
        [(1, 2, 2), (2, 1, 1), (1, 1, 2), (2, 2, 1)],
        FullInterchange(values=(1, 2)), variable_group="reflection")
    assert report.num_orbits == 1
    assert report.orbits[0].canonical == (1, 1, 2)


def test_orbit_size_sum_matches_total():
    sols = [t for t in itertools.product([1, 2, 3], repeat=3)]
    report = enumerate_orbits(sols, FullInterchange(values=(1, 2, 3)),
                              variable_group="rotation")
    assert report.total == 27
    assert sum(o.size for o in report.orbits) == 27
    canon = report.canonicals()
    assert all(min(o.canonical for o in report.orbits) in canon
               for _ in range(1))


def test_orbits_empty_input():
    report = enumerate_orbits([])
    assert report.num_orbits == 0
    assert report.total == 0
