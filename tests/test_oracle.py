"""Ground-truth predicates, exhaustive consistency closures, orbit counting."""
import itertools

import pytest
from hypothesis import given, strategies as st

from valprec.oracle import (
    all_precedence_holds,
    enumerate_orbits,
    first_occurrence,
    gac_by_definition,
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


# ----------------------------------------------------------------- orbit tools


def test_orbits_of_free_binary_cube():
    sols = list(itertools.product([1, 2], repeat=3))
    orbits = enumerate_orbits(sols, FullInterchange(values=(1, 2)))
    assert len(orbits) == 4
    assert all(len(o) == 2 for o in orbits)
    assert frozenset().union(*orbits) == set(sols)
    # ordered by lex-least member
    assert [min(o) for o in orbits] == [(1, 1, 1), (1, 1, 2), (1, 2, 1), (1, 2, 2)]


def test_orbit_of_constant_solution():
    # the swapped constant is missing, so the set is not closed
    with pytest.raises(ValueError):
        enumerate_orbits([(1, 1)], FullInterchange(values=(1, 2)))
    orbits = enumerate_orbits([(1, 1), (2, 2)], FullInterchange(values=(1, 2)))
    assert orbits == [frozenset({(1, 1), (2, 2)})]


def test_reflection_plus_value_swap_merges_known_pair():
    sols = [(1, 2, 2), (2, 1, 1), (1, 1, 2), (2, 2, 1)]
    orbits = enumerate_orbits(sols, FullInterchange(values=(1, 2)),
                              variable_group="reflection")
    assert orbits == [frozenset(sols)]
    assert min(orbits[0]) == (1, 1, 2)


def test_orbit_size_sum_matches_total():
    sols = [t for t in itertools.product([1, 2, 3], repeat=3)]
    orbits = enumerate_orbits(sols, FullInterchange(values=(1, 2, 3)),
                              variable_group="rotation")
    assert sum(len(o) for o in orbits) == 27
    assert frozenset().union(*orbits) == set(sols)
    least = [min(o) for o in orbits]
    assert least == sorted(least)


def test_orbits_empty_input():
    assert enumerate_orbits([]) == []
