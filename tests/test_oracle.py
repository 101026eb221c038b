"""Ground-truth predicates, exhaustive consistency closures, orbit counting."""
import itertools
import re

import pytest
from hypothesis import given, strategies as st

from valprec import oracle
from valprec.fuzz import set_bits_holds
from valprec.oracle import (
    all_precedence_holds,
    enumerate_orbits,
    gac_by_definition,
    increasing_seq_holds,
    iterated_gac,
    partition_precedence_holds,
    set_pair_precedence_holds,
    set_precedence_holds,
    wreath_precedence_holds,
)
from valprec.symmetry import FullInterchange, WreathInterchange


# ----------------------------------------------------------------- predicates


def test_pair_precedence_examples():
    assert all_precedence_holds((1, 2), [1, 2, 1])
    assert all_precedence_holds((1, 2), [1, 1, 1])
    assert not all_precedence_holds((1, 2), [2, 1, 1])
    # neither value present: both count as n + 1, so the constraint holds
    # vacuously; the second alone present comes before the absent first
    assert all_precedence_holds((1, 2), [3, 3])
    assert not all_precedence_holds((1, 2), [3, 2])


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


@pytest.mark.parametrize("codes, bad", [([0, -3], "-3"), ([4], "4"), ([1, 2.0], "2.0"),
                                        ([True, False], "True"), ([0, False], "False")])
def test_wreath_precedence_refuses_codes_outside_the_spec(codes, bad):
    spec = WreathInterchange(outer=(1, 2), inner=(3, 4))
    with pytest.raises(ValueError, match="^" + re.escape(f"{bad} is not a code")):
        wreath_precedence_holds(spec, codes)


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


def _pairwise_first_occurrence(xs, value, default):
    return next((i for i, x in enumerate(xs, start=1) if x == value), default)


def _pairwise_all_precedence(values, xs):
    n = len(xs)
    return all(_pairwise_first_occurrence(xs, values[j], n + 1)
               < _pairwise_first_occurrence(xs, values[k], n + 2)
               for j in range(len(values)) for k in range(j + 1, len(values)))


def _pairwise_set_precedence(values, sets):
    n = len(sets)
    return all(
        next((i for i, s in enumerate(sets, start=1) if a in s and b not in s), n + 1)
        < next((i for i, s in enumerate(sets, start=1) if b in s and a not in s), n + 2)
        for j, a in enumerate(values) for b in values[j + 1:])


def _pairwise_wreath_precedence(spec, codes):
    pairs = [spec.decode(c) for c in codes]
    return (_pairwise_all_precedence(spec.outer, [u for u, _ in pairs])
            and all(_pairwise_all_precedence(spec.inner, [v for w, v in pairs if w == u])
                    for u in spec.outer))


def test_predicates_match_pairwise_definitions_exhaustively():
    """Each predicate equals the literal pairwise definition on small inputs.

    The pairwise forms above compare the first occurrences of every ordered
    pair of listed values, the way the definition reads.  ``values`` must be
    distinct, as every symmetry spec enforces: on a repeated value the
    pairwise form (value before itself) and a sortedness test of the first
    occurrences give different answers.
    """
    tuples = [t for n in range(6) for t in itertools.product(range(1, 5), repeat=n)]
    pairwise = {values: [_pairwise_all_precedence(values, t) for t in tuples]
                for m in range(1, 5) for values in itertools.permutations(range(1, 5), m)}
    for values, want in pairwise.items():
        assert [all_precedence_holds(values, t) for t in tuples] == want
        # every split of the listed values into two classes
        for cut in range(1, len(values)):
            classes = (values[:cut], values[cut:])
            assert ([partition_precedence_holds(classes, t) for t in tuples]
                    == [all(col) for col in zip(*(pairwise[c] for c in classes))])

    # the code classes depend on the numbers of outer and inner values
    specs = [WreathInterchange(outer=outer, inner=inner)
             for outer, inner in itertools.product(itertools.permutations((1, 2)), repeat=2)]
    specs += [WreathInterchange(outer=tuple(range(1, m + 1)), inner=tuple(range(1, p + 1)))
              for m, p in ((3, 2), (2, 3), (1, 3), (3, 1))]
    for spec in specs:
        codes = [c for n in range(6) for c in itertools.product(spec.codes, repeat=n)]
        assert ([wreath_precedence_holds(spec, c) for c in codes]
                == [_pairwise_wreath_precedence(spec, c) for c in codes]), spec

    for w in range(1, 4):
        universe = list(range(w))
        for n in range(1, 4):
            rows = list(itertools.product((0, 1), repeat=n * w))
            sets = [[frozenset(v for v, b in zip(universe, bits[i * w:(i + 1) * w]) if b)
                     for i in range(n)] for bits in rows]
            for values in (p for m in range(1, w + 1)
                           for p in itertools.permutations(universe, m)):
                want = [_pairwise_set_precedence(values, s) for s in sets]
                assert list(map(set_bits_holds(values, universe, n), rows)) == want
                if len(values) == 2:
                    assert [set_pair_precedence_holds(*values, s) for s in sets] == want


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


def test_orbit_group_over_the_cap_is_refused_before_enumeration(monkeypatch):
    """Each group is under the cap, but every orbit would apply their product."""
    monkeypatch.setattr(oracle, "ENUM_CAP", 100)
    sols = list(itertools.product((1, 2, 3, 4), repeat=4))
    with pytest.raises(ValueError, match="value group's 24 elements times the position "
                                         "group's 24 exceed the cap of 100"):
        enumerate_orbits(sols, FullInterchange((1, 2, 3, 4)), variable_group="full")
    # a product under the cap is enumerated: 4! * 4 rotations
    assert sum(map(len, enumerate_orbits(sols, FullInterchange((1, 2, 3, 4)),
                                         variable_group="rotation"))) == 256
