"""Symmetry group enumeration: sizes, codings, orbit application."""
import math
import re

import pytest

from valprec import symmetry
from valprec.symmetry import (
    FullInterchange,
    PairInterchange,
    PartitionInterchange,
    WreathInterchange,
    assignment_orbit,
    apply_symmetry,
    value_permutations,
    variable_permutations,
)


def test_pair_group_has_two_elements():
    perms = value_permutations(PairInterchange(first=3, second=7))
    assert len(perms) == 2
    images = {tuple(p.get(v, v) for v in (3, 7, 9)) for p in perms}
    assert images == {(3, 7, 9), (7, 3, 9)}


def test_full_group_is_symmetric_group():
    for m in (1, 2, 3, 4):
        perms = value_permutations(FullInterchange(values=tuple(range(m))))
        assert len(perms) == math.factorial(m)
    perms = value_permutations(FullInterchange(values=(1, 2, 3)))
    assert len({tuple(sorted(p.items())) for p in perms}) == 6


def test_partition_group_is_product_of_class_groups():
    spec = PartitionInterchange(classes=((1, 2, 3), (4, 5)))
    perms = value_permutations(spec)
    assert len(perms) == math.factorial(3) * math.factorial(2)
    # no permutation maps across classes
    assert all(p.get(v, v) in {1, 2, 3} for p in perms for v in (1, 2, 3))
    assert all(p.get(v, v) in {4, 5} for p in perms for v in (4, 5))


def test_partition_classes_must_be_disjoint():
    with pytest.raises(ValueError):
        PartitionInterchange(classes=((1, 2), (2, 3)))


def test_wreath_group_size_and_coding():
    spec = WreathInterchange(outer=(1, 2), inner=(3, 4))
    assert len(value_permutations(spec)) == math.factorial(2) * math.factorial(2) ** 2
    for u in spec.outer:
        for v in spec.inner:
            assert spec.decode(spec.code(u, v)) == (u, v)
    assert sorted(spec.codes) == [0, 1, 2, 3]


@pytest.mark.parametrize("call, named", [
    (lambda spec: spec.decode(-1), "-1 is not a code"),
    (lambda spec: spec.decode(4), "4 is not a code"),
    (lambda spec: spec.decode(1.5), "1.5 is not a code"),
    (lambda spec: spec.code(3, 3), "<3, 3> is not a pair"),
    (lambda spec: spec.code(1, 5), "<1, 5> is not a pair"),
    (lambda spec: spec.decode(True), "True is not a code"),
    (lambda spec: spec.code(True, 3), "<True, 3> is not a pair"),
    (lambda spec: spec.code(2, True), "<2, True> is not a pair"),
], ids=["decode-negative", "decode-past-end", "decode-non-int", "code-outer",
        "code-inner", "decode-bool", "code-bool-outer", "code-bool-inner"])
def test_wreath_coding_refuses_values_outside_the_spec(call, named):
    spec = WreathInterchange(outer=(1, 2), inner=(3, 4))
    with pytest.raises(ValueError, match="^" + re.escape(named)):
        call(spec)


def test_wreath_code_classes_are_blocks_then_heads():
    assert WreathInterchange((1, 2), (3, 4)).code_classes == ((0, 1), (2, 3), (0, 2))
    assert WreathInterchange((1, 2, 3), (4, 5)).code_classes == (
        (0, 1), (2, 3), (4, 5), (0, 2, 4))
    assert WreathInterchange((7,), (1, 2, 3)).code_classes == ((0, 1, 2), (0,))
    assert WreathInterchange((1, 2, 3), (9,)).code_classes == ((0,), (1,), (2,), (0, 1, 2))


def test_wreath_permutations_act_blockwise():
    spec = WreathInterchange(outer=(1, 2), inner=(3, 4))
    for p in value_permutations(spec):
        # each outer block maps onto a single outer block
        outs = {spec.decode(p.get(c, c))[0] for c in (spec.code(1, 3), spec.code(1, 4))}
        assert len(outs) == 1


def test_variable_groups():
    assert variable_permutations("none", 4) == [(0, 1, 2, 3)]
    assert len(variable_permutations("full", 4)) == 24
    assert set(variable_permutations("reflection", 3)) == {(0, 1, 2), (2, 1, 0)}
    rots = variable_permutations("rotation", 3)
    assert len(rots) == 3
    # every group holds the identity, the empty one at n = 0 included
    for kind in ("none", "full", "reflection", "rotation"):
        assert () in variable_permutations(kind, 0)
    with pytest.raises(ValueError):
        variable_permutations("mirror", 3)


def test_groups_over_the_cap_are_refused_before_enumeration(monkeypatch):
    monkeypatch.setattr(symmetry, "ENUM_CAP", 100)
    with pytest.raises(ValueError, match="has 120 elements, over the cap of 100"):
        value_permutations(FullInterchange(tuple(range(5))))
    with pytest.raises(ValueError, match="has 120 elements, over the cap of 100"):
        variable_permutations("full", 5)
    with pytest.raises(ValueError, match="has 1296 elements"):  # 3! * (3!)**3
        value_permutations(WreathInterchange((1, 2, 3), (4, 5, 6)))
    with pytest.raises(ValueError, match="has 101 elements"):
        variable_permutations("rotation", 101)
    # under the cap, and for the small groups, nothing changes
    assert len(value_permutations(FullInterchange(tuple(range(4))))) == 24
    assert len(value_permutations(WreathInterchange((1, 2), (3, 4)))) == 8
    assert len(variable_permutations("rotation", 5)) == 5


def test_apply_symmetry_composes_value_and_position_maps():
    a = (1, 2, 2)
    swapped = apply_symmetry(a, {1: 2, 2: 1}, (0, 1, 2))
    assert swapped == (2, 1, 1)
    reflected = apply_symmetry(a, {}, (2, 1, 0))
    assert reflected == (2, 2, 1)


def test_assignment_orbit():
    orb = assignment_orbit((1, 2, 2),
                           value_permutations(FullInterchange(values=(1, 2))),
                           variable_permutations("reflection", 3))
    assert orb == {(1, 2, 2), (2, 1, 1), (2, 2, 1), (1, 1, 2)}
