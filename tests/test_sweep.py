"""``fuzz.sweep`` catches encodings weaker than GAC, and passes the chains."""
from itertools import combinations

import pytest

from valprec.fuzz import on_set_bits, post_encoding, set_bits_holds, sweep
from valprec.oracle import all_precedence_holds
from valprec.precedence import encode_pair_precedence, encode_set_precedence
from valprec.symmetry import FullInterchange

VALUES = (1, 2, 3, 4)


def _pairwise(m, xs):
    for first, second in combinations(VALUES, 2):
        encode_pair_precedence(m, first, second, xs)


def _chain(m, xs):
    post_encoding(m, FullInterchange(VALUES), xs)


def _sweep_set(posted, values):
    """The set chain over ``posted`` against the rule over ``values``, swept
    on the bits of one set over the elements 0, 1 and 2."""
    return sweep(on_set_bits(lambda m, sets: encode_set_precedence(m, posted, sets),
                             [0, 1, 2], 1),
                 set_bits_holds(values, [0, 1, 2], 1), (0, 1), 3)


WITNESS_1 = ({1}, {1, 2}, {1, 3}, {3, 4})


@pytest.mark.parametrize("run, checked, mismatched, first", [
    (lambda: sweep(_pairwise, lambda t: all_precedence_holds(VALUES, t), VALUES, 4),
     15 ** 4, 64, WITNESS_1),
    (lambda: sweep(_chain, lambda t: all_precedence_holds(VALUES, t), VALUES, 4),
     15 ** 4, 0, None),
    (lambda: _sweep_set([0, 1], [0, 1, 2]), 27, 10, None),
    (lambda: _sweep_set([0], [0, 1]), 27, 9, None),
    (lambda: _sweep_set([0, 1, 2], [0, 1, 2]), 27, 0, None),
    (lambda: _sweep_set([0, 1], [0, 1]), 27, 0, None),
], ids=["full pairwise split", "full chain", "set chain without its last value",
        "set pair chain without its last value", "set chain", "set pair chain"])
def test_sweep_counts_mismatches(run, checked, mismatched, first):
    c, mis = run()
    assert (c, len(mis)) == (checked, mismatched)
    if first is not None:
        assert mis[0][0] == first
