"""``fuzz.sweep`` catches encodings weaker than GAC, and passes the chains."""
from itertools import combinations, product

import pytest

from valprec.engine import Model
from valprec.fuzz import (check, on_set_bits, post_encoding, predicate_for, set_bits_holds,
                          sweep)
from valprec.oracle import all_precedence_holds
from valprec.precedence import (encode_all_precedence, encode_matrix_precedence,
                                encode_pair_precedence, encode_puget_surjection,
                                encode_set_precedence)
from valprec.symmetry import FullInterchange, WreathInterchange

VALUES = (1, 2, 3, 4)


def _pairwise(m, xs):
    for first, second in combinations(VALUES, 2):
        encode_pair_precedence(m, first, second, xs)


def _chain(m, xs):
    post_encoding(m, FullInterchange(VALUES), xs)


def _set_case(posted, values, sets=1):
    """(post, pred, universe, n): the set chain over ``posted`` against the
    rule over ``values``, on the bits of ``sets`` sets over the elements 0, 1
    and 2."""
    return (on_set_bits(lambda m, ss: encode_set_precedence(m, posted, ss),
                        [0, 1, 2], sets),
            set_bits_holds(values, [0, 1, 2], sets), (0, 1), 3 * sets)


def _sweep_set(posted, values, sets=1):
    return sweep(*_set_case(posted, values, sets))


WITNESS_1 = ({1}, {1, 2}, {1, 3}, {3, 4})
THREE = (1, 2, 3)


def _sweep_matrix(n):
    return sweep(lambda m, xs: encode_matrix_precedence(m, THREE, xs),
                 lambda t: all_precedence_holds(THREE, t), THREE, n)


def _sweep_puget(n):
    """Puget's encoding is sound only on surjections, so its rule is both."""
    return sweep(lambda m, xs: encode_puget_surjection(m, xs, THREE),
                 lambda t: set(t) == set(THREE) and all_precedence_holds(THREE, t),
                 THREE, n)


@pytest.mark.parametrize("run, checked, mismatched, first", [
    (lambda: sweep(_pairwise, lambda t: all_precedence_holds(VALUES, t), VALUES, 4),
     15 ** 4, 64, WITNESS_1),
    (lambda: sweep(_chain, lambda t: all_precedence_holds(VALUES, t), VALUES, 4),
     15 ** 4, 0, None),
    (lambda: _sweep_set([0, 1], [0, 1, 2]), 27, 10, None),
    (lambda: _sweep_set([0], [0, 1]), 27, 9, None),
    (lambda: _sweep_set([0, 1, 2], [0, 1, 2]), 27, 0, None),
    (lambda: _sweep_set([0, 1], [0, 1]), 27, 0, None),
    (lambda: _sweep_matrix(1), 7, 2, ({1, 2},)),
    (lambda: _sweep_matrix(2), 49, 14, ({1}, {2, 3})),
    (lambda: _sweep_matrix(3), 343, 98, ({1}, {1}, {2, 3})),
    (lambda: _sweep_puget(3), 343, 0, None),
    (lambda: _sweep_puget(4), 2401, 0, None),
    (lambda: sweep(lambda m, xs: encode_all_precedence(m, (1,), xs),
                   lambda t: all_precedence_holds((1,), t), (1,), 2000), 1, 0, None),
], ids=["full pairwise split", "full chain", "set chain without its last value",
        "set pair chain without its last value", "set chain", "set pair chain",
        "matrix n=1", "matrix n=2", "matrix n=3", "puget n=3", "puget n=4",
        "one value n=2000"])
def test_sweep_counts_mismatches(run, checked, mismatched, first):
    c, mis = run()
    assert (c, len(mis)) == (checked, mismatched)
    if first is not None:
        assert mis[0][0] == first


@pytest.mark.parametrize("post, pred, universe, n, checked, mismatched", [
    (lambda m, xs: encode_all_precedence(m, (1, 2, 3), xs),
     lambda t: all_precedence_holds(VALUES, t), VALUES, 3, 15 ** 3, 2016),
    (*_set_case([0, 1], [0, 1, 2]), 27, 10),
    (lambda m, xs: None, lambda t: False, (1,), 0, 1, 1),
    (lambda m, xs: encode_pair_precedence(m, 2, 1, xs),
     lambda t: all_precedence_holds((1, 2), t), THREE, 3, 343, 342),
], ids=["full chain without its last value", "set chain without its last value",
        "no variables", "pair chain for the other rule"])
def test_sweep_equals_check_on_every_combination(post, pred, universe, n, checked,
                                                 mismatched):
    """``sweep``'s shared prefixes give, combination by combination in its
    order, what ``check`` gives on a fresh model: also with no variables, and
    with prefixes that fail while the oracle still has solutions."""
    subsets = [frozenset(c) for r in range(1, len(universe) + 1)
               for c in combinations(sorted(universe), r)]
    want = [(c, enc, orc) for c in product(subsets, repeat=n)
            for agree, enc, orc in [check(post, pred, c)] if not agree]
    assert len(want) == mismatched
    assert sweep(post, pred, universe, n) == (checked, want)


def test_sweep_nests_one_choice_point_per_position(monkeypatch):
    """The sweep over three sets' nine bits pushes a choice point per bit,
    nine deep, and pops back to the model's root."""
    depth = deepest = 0
    push, pop = Model.push_choice, Model.pop_choice

    def counted_push(model):
        nonlocal depth, deepest
        depth += 1
        deepest = max(deepest, depth)
        push(model)

    def counted_pop(model):
        nonlocal depth
        depth -= 1
        pop(model)

    monkeypatch.setattr(Model, "push_choice", counted_push)
    monkeypatch.setattr(Model, "pop_choice", counted_pop)
    assert _sweep_set([0, 1, 2], [0, 1, 2], sets=3) == (3 ** 9, [])
    assert (deepest, depth) == (9, 0)


def test_sweep_refuses_an_encoding_that_fails_on_full_domains():
    with pytest.raises(AssertionError, match="^encoding fails on full domains$"):
        sweep(lambda m, xs: encode_pair_precedence(m, 1, 2, xs), lambda t: True, (2,), 1)


@pytest.mark.parametrize("outer, inner, n, checked", [
    ((1, 2, 3), (4, 5), 2, 63 ** 2),
    ((1, 2), (3, 4, 5), 2, 63 ** 2),
    ((1,), (2, 3, 4), 4, 7 ** 4),
    ((1, 2, 3), (4,), 4, 7 ** 4),
], ids=["3x2", "2x3", "1x3", "3x1"])
def test_sweep_passes_non_square_wreath_chains(outer, inner, n, checked):
    """The wreath chain is GAC on every combination of code domains, for
    shapes whose block and heads classes differ in length."""
    spec = WreathInterchange(outer, inner)
    assert sweep(lambda m, xs: post_encoding(m, spec, xs), predicate_for(spec),
                 spec.codes, n) == (checked, [])
