"""First-occurrence ordering encodings vs the consistency oracle."""
import itertools
import operator
import random
import time

import pytest

from conftest import ENCODER_ARGS, domains_of, encoder_args, mask_of, vals
from valprec import precedence
from valprec.engine import Model, PropagationStatus, TernaryTable
from valprec.fuzz import (check, check_fd_instance, fd_fixpoint, post_encoding,
                          predicate_for)
from valprec.oracle import (
    all_precedence_holds,
    increasing_seq_holds,
)
from valprec.precedence import (
    TRANSITION_CAP,
    encode_all_precedence,
    encode_increasing_seq,
    encode_matrix_precedence,
    encode_pair_precedence,
    encode_partial_precedence,
    encode_puget_surjection,
    encode_reflection_lex,
    encode_rotation_lex,
    encode_set_precedence,
    encode_wreath_precedence,
)
from valprec.schur import SchurInstance, build_schur_model
from valprec.search import solve
from valprec.symmetry import (
    FullInterchange,
    PairInterchange,
    PartitionInterchange,
    WreathInterchange,
    value_permutations,
)

FAILED = PropagationStatus.FAILED
AT_FIXPOINT = PropagationStatus.AT_FIXPOINT


# ------------------------------------------------------------ pair precedence


def test_pair_first_position_cannot_take_second_value():
    got = fd_fixpoint([{1, 2}, {1, 2}],
                      lambda m, xs: encode_pair_precedence(m, 1, 2, xs))
    assert got == [{1}, {1, 2}]


def test_pair_single_variable_second_value_fails():
    assert fd_fixpoint([{2}],
                       lambda m, xs: encode_pair_precedence(m, 1, 2, xs)) is None


def test_pair_other_values_pass_through():
    got = fd_fixpoint([{3, 4}, {2, 3}],
                      lambda m, xs: encode_pair_precedence(m, 1, 2, xs))
    assert got == [{3, 4}, {3}]


def test_pair_identical_values_rejected():
    m = Model()
    xs = [m.add_fd_var({1, 2})]
    with pytest.raises(ValueError):
        encode_pair_precedence(m, 5, 5, xs)


@pytest.mark.parametrize("call,error,match", [
    (lambda m: encode_set_precedence(m, [1, 1], [m.add_set_var(set(), {1})]),
     ValueError, "distinct"),
    (lambda m: encode_increasing_seq(m, [m.add_fd_var({1, 2})], [1, 1]),
     ValueError, "distinct"),
    (lambda m: build_schur_model(SchurInstance(4, 2), sym="bogus"),
     ValueError, "unknown symmetry mode"),
    (lambda m: value_permutations((1, 2)), TypeError, "unknown symmetry spec"),
    (lambda m: predicate_for((1, 2)), TypeError, "no predicate"),
    (lambda m: post_encoding(m, (1, 2), [m.add_fd_var({1, 2})]),
     TypeError, "no encoding"),
    (lambda m: PairInterchange(1, 1), ValueError, "distinct"),
    (lambda m: FullInterchange((1, 1)), ValueError, "distinct"),
    (lambda m: FullInterchange(()), ValueError, "non-empty"),
    (lambda m: PartitionInterchange(((), (1, 2))), ValueError, "non-empty"),
    (lambda m: WreathInterchange((1, 1), (3, 4)), ValueError, "distinct"),
    (lambda m: WreathInterchange((1, 2), (3, 3)), ValueError, "distinct"),
    (lambda m: WreathInterchange((1, 2), ()), ValueError, "non-empty"),
    (lambda m: WreathInterchange((), (3, 4)), ValueError, "non-empty"),
    (lambda m: encode_wreath_precedence(m, [], [1, 2], [m.add_fd_var({0, 1})]),
     ValueError, "non-empty"),
    (lambda m: encode_wreath_precedence(m, [1, 2], [3, 3], [m.add_fd_var({0, 1})]),
     ValueError, "distinct"),
    (lambda m: encode_wreath_precedence(m, [1, 2], [3, 4], [m.add_fd_var({0, 7})]),
     ValueError, "^7 is not a code"),
    (lambda m: encode_puget_surjection(m, [m.add_fd_var({1, 2})], [1, 1]),
     ValueError, "distinct"),
    (lambda m: m.post(TernaryTable(*(m.add_fd_var({0}, name=f"x{i}") for i in range(3)),
                                   [(-1, 0, 0), (0, 0, 0)])),
     ValueError, r"^table over x0, x1, x2: a tuple holds three ints from 0 to "
                 r"TRANSITION_CAP \(1000000\), got \(-1, 0, 0\)$"),
    (lambda m: m.post(TernaryTable(*(m.add_fd_var({0}, name=f"x{i}") for i in range(3)),
                                   [(0.5, 0, 0), (0, 0, 0)])),
     ValueError, r"^table over x0, x1, x2: a tuple holds three ints from 0 to "
                 r"TRANSITION_CAP \(1000000\), got \(0\.5, 0, 0\)$"),
    # (1, 0, 0) comes first, so the bool tuple would merge into it
    (lambda m: m.post(TernaryTable(*(m.add_fd_var({0, 1}, name=f"x{i}") for i in range(3)),
                                   [(1, 0, 0), (True, 0, 0)])),
     ValueError, r"^table over x0, x1, x2: a tuple holds three ints from 0 to "
                 r"TRANSITION_CAP \(1000000\), got \(True, 0, 0\)$"),
    (lambda m: m.post(TernaryTable(*(m.add_fd_var({0}, name=f"x{i}") for i in range(3)),
                                   [(0, 0, 0), (10**8, 0, 0)])),
     ValueError, r"^table over x0, x1, x2: a tuple holds three ints from 0 to "
                 r"TRANSITION_CAP \(1000000\), got \(100000000, 0, 0\)$"),
    # a list passes the per-tuple check; the entry that cannot be hashed is named
    (lambda m: m.post(TernaryTable(*(m.add_fd_var({0, 1}, name=f"x{i}") for i in range(3)),
                                   [(1, 0, 0), [0, 0, 0], (0, 0, 0)])),
     ValueError, r"^table over x0, x1, x2: a tuple holds three ints from 0 to "
                 r"TRANSITION_CAP \(1000000\), got \[0, 0, 0\]$"),
    (lambda m: m.post(TernaryTable(x := m.add_fd_var({0, 1}, name="x"), x,
                                   m.add_fd_var({0}, name="z"), [(0, 1, 0), (1, 0, 0)])),
     ValueError, "^table over x, x, z: its three variables must be distinct$"),
    (lambda m: m.add_set_var(set(), {"a"}, name="S"),
     ValueError, "^S: a set holds only non-negative int elements, got 'a'$"),
    (lambda m: m.add_set_var(set(), {1.5}, name="S"),
     ValueError, r"^S: a set holds only non-negative int elements, got 1\.5$"),
    (lambda m: m.add_set_var({True}, {True, 2}, name="S"),
     ValueError, "^S: a set holds only non-negative int elements, got True$"),
    (lambda m: encode_pair_precedence(m, 1.5, 2, [m.add_fd_var({1, 2})]),
     ValueError, r"non-negative ints, got \(1\.5, 2\)$"),
    (lambda m: FullInterchange((True, 2)), ValueError, r"non-negative ints, got \(True, 2\)$"),
    (lambda m: PartitionInterchange(((1, 2), (-3, 4))),
     ValueError, r"non-negative ints, got \(-3, 4\)$"),
    (lambda m: PartitionInterchange(((True, 2),)), ValueError,
     r"non-negative ints, got \(True, 2\)$"),
    (lambda m: WreathInterchange((1, "b"), (3, 4)), ValueError, r"distinct ints, got \(1, 'b'\)$"),
    (lambda m: encode_set_precedence(m, [1.5, 2], [m.add_set_var(set(), {1, 2})]),
     ValueError, r"non-negative ints, got \(1\.5, 2\)$"),
    (lambda m: encode_increasing_seq(m, [m.add_fd_var({1, 2})], [1.5, 2]),
     ValueError, r"non-negative ints, got \(1\.5, 2\)$"),
    (lambda m: encode_puget_surjection(m, [m.add_fd_var({1, 2})], [True, 2]),
     ValueError, r"non-negative ints, got \(True, 2\)$"),
    (lambda m: encode_matrix_precedence(m, [1, 1], [m.add_fd_var({1})]),
     ValueError, "distinct"),
    (lambda m: encode_matrix_precedence(m, [1.5, 2], [m.add_fd_var({1, 2})]),
     ValueError, r"non-negative ints, got \(1\.5, 2\)$"),
    (lambda m: m.add_fd_var({True, 2}, name="x"),
     ValueError, r"^x: a domain holds ints from 0 to TRANSITION_CAP \(1000000\), got True$"),
    (lambda m: m.add_fd_var([1, 10**8], name="x"),
     ValueError, r"^x: a domain holds ints from 0 to TRANSITION_CAP \(1000000\), got 100000000$"),
], ids=["set-repeated-value", "incr-seq-repeated-value", "schur-unknown-sym",
        "value-perms-non-spec", "predicate-non-spec",
        "post-encoding-non-spec", "pair-spec-repeated-value",
        "full-spec-repeated-value", "full-spec-no-values",
        "partition-spec-empty-class", "wreath-spec-repeated-outer",
        "wreath-spec-repeated-inner", "wreath-spec-empty-inner",
        "wreath-spec-empty-outer", "wreath-encoder-empty-outer",
        "wreath-encoder-repeated-inner", "wreath-encoder-non-code",
        "puget-repeated-value", "table-negative-value", "table-non-int-value",
        "table-bool-value", "table-over-cap", "table-unhashable-tuple",
        "table-repeated-argument", "set-var-str-element", "set-var-float-element",
        "set-var-bool-element", "pair-spec-float", "full-spec-bool",
        "partition-spec-negative", "partition-spec-bool", "wreath-spec-str",
        "set-precedence-float", "incr-seq-float", "puget-bool", "matrix-repeated-value",
        "matrix-float-value", "fd-var-bool", "fd-var-over-cap"])
def test_documented_input_errors(call, error, match):
    m = Model()
    with pytest.raises(error, match=match):
        call(m)
    # bad input is refused before any constraint, an encoder's chain included,
    # is posted
    assert m.propagators == [] and not m.posted_counts


def test_pair_chain_matches_oracle_300_cases():
    rng = random.Random(31)
    for _ in range(300):
        n = rng.randint(1, 6)
        d = rng.randint(2, 5)
        doms = [set(rng.sample(range(1, d + 1), rng.randint(1, d)))
                for _ in range(n)]
        vj, vk = rng.sample(range(1, d + 1), 2)
        _, got, want = check_fd_instance(PairInterchange(vj, vk), doms)
        assert got == want, doms


# ------------------------------------------------------------- all precedence


def test_all_precedence_prunes_beyond_pairwise():
    doms = [{1}, {1, 2}, {1, 3}, {3, 4}]
    values = [1, 2, 3, 4]
    got = fd_fixpoint(doms, lambda m, xs: encode_all_precedence(m, values, xs))
    assert got == [{1}, {2}, {1, 3}, {3, 4}]

    # every pairwise ordering alone leaves the domains untouched
    m = Model()
    xs = [m.add_fd_var(d) for d in doms]
    for j in range(len(values)):
        for k in range(j + 1, len(values)):
            encode_pair_precedence(m, values[j], values[k], xs)
    assert m.propagate() is AT_FIXPOINT
    assert domains_of(xs) == doms


def test_all_precedence_forces_first_variable():
    got = fd_fixpoint([{1, 2, 3}] * 3,
                      lambda m, xs: encode_all_precedence(m, [1, 2, 3], xs))
    assert got is not None
    assert got[0] == {1}


def test_all_precedence_validates_values():
    m = Model()
    xs = [m.add_fd_var({1, 2})]
    with pytest.raises(ValueError):
        encode_all_precedence(m, [], xs)
    with pytest.raises(ValueError):
        encode_all_precedence(m, [1, 1], xs)


def test_all_chain_matches_oracle_300_cases():
    rng = random.Random(47)
    for _ in range(300):
        n = rng.randint(1, 6)
        d = rng.randint(2, 5)
        m_vals = rng.randint(1, min(4, d))
        values = rng.sample(range(1, d + 1), m_vals)
        doms = [set(rng.sample(range(1, d + 1), rng.randint(1, d)))
                for _ in range(n)]
        _, got, want = check_fd_instance(FullInterchange(tuple(values)), doms)
        assert got == want, doms


# --------------------------------------------------------- partition classes


def test_partition_fails_where_per_class_chains_do_not():
    doms = [{1, 2, 3, 4, 5, 6}] * 3 + [{3}, {6}]
    classes = ((1, 2, 3), (4, 5, 6))
    assert check_fd_instance(PartitionInterchange(classes), doms) == (True, None, None)

    def per_class(m, xs):
        for cls in classes:
            encode_all_precedence(m, cls, xs)

    # the per-class chains stop where each class's rule alone is GAC
    got = fd_fixpoint(doms, per_class)
    assert got == [{1, 4}, {1, 2, 4, 5}, {1, 2, 3, 4, 5, 6}, {3}, {6}]
    for cls in classes:
        assert check_fd_instance(FullInterchange(cls), got) == (True, got, got)


def test_partition_single_class_equals_all_precedence():
    rng = random.Random(99)
    for _ in range(50):
        n = rng.randint(1, 5)
        doms = [set(rng.sample(range(1, 5), rng.randint(1, 4)))
                for _ in range(n)]
        values = rng.sample(range(1, 5), rng.randint(2, 4))
        a = fd_fixpoint(doms,
                        lambda m, xs: encode_partial_precedence(m, [values], xs))
        b = fd_fixpoint(doms,
                        lambda m, xs: encode_all_precedence(m, values, xs))
        assert a == b


def test_partition_singleton_classes_post_nothing():
    m = Model()
    xs = [m.add_fd_var({1, 2, 3}) for _ in range(3)]
    enc = encode_partial_precedence(m, [[1], [2], [3]], xs)
    assert not m.posted_counts
    assert enc.state_vars == [] and enc.propagators == []
    assert m.propagate() is AT_FIXPOINT
    assert domains_of(xs) == [{1, 2, 3}] * 3


def test_partition_validates_classes():
    m = Model()
    xs = [m.add_fd_var({1, 2})]
    with pytest.raises(ValueError):
        encode_partial_precedence(m, [[1], []], xs)
    with pytest.raises(ValueError):
        encode_partial_precedence(m, [[1, 2], [2, 3]], xs)


def test_partition_chain_matches_oracle_200_cases():
    rng = random.Random(140)
    for _ in range(200):
        n = rng.randint(1, 5)
        d = rng.randint(2, 5)
        vals = rng.sample(range(1, d + 1), rng.randint(2, min(4, d)))
        cut = rng.randint(1, len(vals) - 1)
        spec = PartitionInterchange((tuple(vals[:cut]), tuple(vals[cut:])))
        doms = [set(rng.sample(range(1, d + 1), rng.randint(1, d)))
                for _ in range(n)]
        _, got, want = check_fd_instance(spec, doms)
        assert got == want, doms


# --------------------------------------------------------------------- wreath


def test_wreath_first_variable_forced_to_least_pair():
    spec = WreathInterchange(outer=(1, 2), inner=(3, 4))
    got = fd_fixpoint([set(spec.codes)] * 2,
                      lambda m, xs: encode_wreath_precedence(m, [1, 2], [3, 4], xs))
    assert got is not None
    assert got[0] == {spec.code(1, 3)}


def test_wreath_chain_matches_oracle_200_cases():
    spec = WreathInterchange(outer=(1, 2), inner=(3, 4))
    rng = random.Random(555)
    for _ in range(200):
        n = rng.randint(1, 5)
        doms = [set(rng.sample(spec.codes, rng.randint(1, 4)))
                for _ in range(n)]
        _, got, want = check_fd_instance(spec, doms)
        assert got == want, doms


def test_wreath_larger_inner_group():
    spec = WreathInterchange(outer=(1, 2), inner=(3, 4, 5))
    rng = random.Random(556)
    for _ in range(40):
        n = rng.randint(1, 4)
        doms = [set(rng.sample(spec.codes, rng.randint(1, 6)))
                for _ in range(n)]
        _, got, want = check_fd_instance(spec, doms)
        assert got == want, doms


# ------------------------------------------------------------ matrix encoding


def test_matrix_column_ordering_prunes_middle_variable():
    # ground neighbours squeeze the middle variable through the bit columns
    doms = [{1}, {1, 2, 3}, {3}]
    m = Model()
    xs = [m.add_fd_var(d) for d in doms]
    encode_matrix_precedence(m, [1, 2, 3], xs)
    assert m.propagate() is AT_FIXPOINT
    assert vals(xs[1].mask) == (2,)


def test_matrix_weaker_than_chain_on_open_prefix():
    # genuine gap: the bit-matrix decomposition keeps everything while the
    # automaton chain prunes
    doms = [{1, 2}, {1, 2, 3}]
    m = Model()
    xs = [m.add_fd_var(d) for d in doms]
    encode_matrix_precedence(m, [1, 2, 3], xs)
    assert m.propagate() is AT_FIXPOINT
    assert domains_of(xs) == doms

    got = fd_fixpoint(doms,
                      lambda m, xs: encode_all_precedence(m, [1, 2, 3], xs))
    assert got == [{1}, {1, 2}]


def test_matrix_single_row_is_unit_vector():
    m = Model()
    x = m.add_fd_var({1, 2, 3})
    enc = encode_matrix_precedence(m, [1, 2, 3], [x])
    assert m.propagate() is AT_FIXPOINT
    assert m.narrow(x, mask_of(1))
    assert m.propagate() is AT_FIXPOINT
    assert [vals(b.mask) for b in enc.bits[0]] == [(1,), (0,), (0,)]
    # the only full solution is x = 1: larger values break the column order
    m2 = Model()
    x2 = m2.add_fd_var({1, 2, 3})
    encode_matrix_precedence(m2, [1, 2, 3], [x2])
    assert [s for s in solve(m2, [x2]).solutions] == [(1,)]


def test_matrix_solution_set_equals_chain():
    values = [1, 2, 3]
    for n in (1, 2, 3, 4):
        for doms in itertools.product([frozenset({1, 2, 3}), frozenset({1, 2})],
                                      repeat=n):
            m1 = Model()
            xs1 = [m1.add_fd_var(d) for d in doms]
            encode_matrix_precedence(m1, values, xs1)
            got = {s for s in solve(m1, xs1).solutions}
            want = {t for t in itertools.product(*map(sorted, doms))
                    if all_precedence_holds(values, t)}
            assert got == want


# ----------------------------------------------------------- puget surjection


def test_puget_identity_surjection_consistent():
    m = Model()
    xs = [m.add_fd_var({i}) for i in (1, 2, 3)]
    enc = encode_puget_surjection(m, xs, [1, 2, 3])
    assert m.propagate() is AT_FIXPOINT
    assert [vals(z.mask) for z in enc.first_index] == [(1,), (2,), (3,)]


def test_puget_implications_alone_miss_chain_pruning():
    doms = [{1}, {1, 2}, {1, 3}, {3, 4}, {2}, {3}, {4}]
    m = Model()
    xs = [m.add_fd_var(d) for d in doms]
    enc = encode_puget_surjection(m, xs, [1, 2, 3, 4])
    assert m.propagate() is AT_FIXPOINT
    assert domains_of(xs) == doms
    assert domains_of(enc.first_index) == [{1}, {2, 5}, {3, 4, 6}, {4, 7}]

    got = fd_fixpoint(doms,
                      lambda m, xs: encode_all_precedence(m, [1, 2, 3, 4], xs))
    assert got is not None
    assert got[1] == {2}


def test_puget_ground_solutions_match_surjective_precedence():
    values = [1, 2, 3]
    n = 4
    for t in itertools.product(values, repeat=n):
        m = Model()
        xs = [m.add_fd_var({v}) for v in t]
        encode_puget_surjection(m, xs, values)
        ok = m.propagate() is AT_FIXPOINT
        surjective = set(t) == set(values)
        assert ok == (surjective and all_precedence_holds(values, t))


# ----------------------------------------------------------------- set chains


def test_set_chain_tightens_first_bound():
    bounds = [(set(), {0}), (set(), {1}), (set(), {1}), (set(), {0}), ({2}, {2})]
    m = Model()
    sets = [m.add_set_var(lb, ub) for lb, ub in bounds]
    encode_set_precedence(m, [0, 1, 2], sets)
    assert m.propagate() is AT_FIXPOINT
    assert (sets[0].lb, sets[0].ub) == ({0}, {0})


def test_set_ground_equal_rows_entail_everything():
    # equal ground rows satisfy the ordering only when the common set holds
    # a prefix of the value order; {0, 1} does, {0, 2} skips 1 and fails
    m = Model()
    sets = [m.add_set_var({0, 1}, {0, 1}) for _ in range(3)]
    enc = encode_set_precedence(m, [0, 1, 2], sets)
    assert m.propagate() is AT_FIXPOINT
    assert all(p.entailed for p in enc.propagators)

    m2 = Model()
    sets2 = [m2.add_set_var({0, 2}, {0, 2}) for _ in range(3)]
    encode_set_precedence(m2, [0, 1, 2], sets2)
    assert m2.propagate() is FAILED


# ------------------------------------------------------- increasing sequences


def ground_ok(encode, t, *args, **kwargs):
    m = Model()
    xs = [m.add_fd_var({v}) for v in t]
    encode(m, *args, xs=xs, **kwargs)
    return m.propagate() is AT_FIXPOINT


def test_increasing_seq_ground_members():
    assert ground_ok(encode_increasing_seq, (1, 2, 2), values=[1, 2, 3])
    assert ground_ok(encode_increasing_seq, (1, 1, 1), values=[1, 2, 3])
    assert ground_ok(encode_increasing_seq, (1, 1, 2, 2), values=[1, 2, 3])
    assert not ground_ok(encode_increasing_seq, (1, 1, 2), values=[1, 2, 3])
    assert not ground_ok(encode_increasing_seq, (2, 2, 2), values=[1, 2, 3])
    assert not ground_ok(encode_increasing_seq, (1, 3, 3), values=[1, 2, 3])


def test_increasing_seq_matches_oracle_200_cases():
    rng = random.Random(2718)
    for _ in range(200):
        n = rng.randint(1, 5)
        values = [1, 2, 3][:rng.randint(2, 3)]
        doms = [set(rng.sample(values, rng.randint(1, len(values))))
                for _ in range(n)]
        _, got, want = check(lambda m, xs: encode_increasing_seq(m, xs, values),
                             lambda t: increasing_seq_holds(values, t), doms)
        assert got == want, doms


def test_increasing_seq_unlisted_value_fails():
    assert fd_fixpoint([{9}],
                       lambda m, xs: encode_increasing_seq(m, xs, [1, 2])) is None


# --------------------------------------------- reflection and rotation orders


def test_reflection_compares_halves_outside_in():
    assert ground_ok(encode_reflection_lex, (1, 9, 2))
    assert not ground_ok(encode_reflection_lex, (2, 9, 1))
    assert ground_ok(encode_reflection_lex, (1, 2, 2, 1))
    assert not ground_ok(encode_reflection_lex, (2, 1, 1, 1))


def test_reflection_plus_precedence_keeps_known_symmetric_pair():
    for t in ((1, 2, 1, 1, 2), (1, 2, 2, 1, 2)):
        m = Model()
        xs = [m.add_fd_var({v}) for v in t]
        encode_reflection_lex(m, xs)
        encode_pair_precedence(m, 1, 2, xs)
        assert m.propagate() is AT_FIXPOINT


def test_rotation_plus_precedence_keeps_known_symmetric_pair():
    for t in ((1, 1, 2, 1, 2), (1, 2, 1, 2, 2)):
        m = Model()
        xs = [m.add_fd_var({v}) for v in t]
        encode_rotation_lex(m, xs)
        encode_pair_precedence(m, 1, 2, xs)
        assert m.propagate() is AT_FIXPOINT


def test_rotation_accepts_constant_sequence():
    assert ground_ok(encode_rotation_lex, (5, 5, 5, 5))


def test_rotation_rejects_smaller_rotation():
    assert not ground_ok(encode_rotation_lex, (2, 1, 3))
    assert ground_ok(encode_rotation_lex, (1, 3, 2))


def _rotation_least(t):
    return all(t <= t[r:] + t[:r] for r in range(1, len(t)))


def test_rotation_lex_on_shared_variables_sound_and_exact_on_grounds():
    # each comparison shares variables between its two sides: the fixpoint
    # may keep more than GAC, never less, and ground sequences are decided
    rng = random.Random(6007)
    for _ in range(300):
        n = rng.randint(1, 5)
        doms = [set(rng.sample([0, 1, 2], rng.randint(1, 3))) for _ in range(n)]
        _, got, want = check(encode_rotation_lex, _rotation_least, doms)
        if want is not None:
            assert got is not None
            assert all(g >= w for g, w in zip(got, want))
        ground = tuple(rng.choice(sorted(d)) for d in doms)
        assert ground_ok(encode_rotation_lex, ground) == _rotation_least(ground)


# --------------------------------------------------------- functional chains


@pytest.mark.parametrize("encode,args,values_pool", [
    (encode_pair_precedence, (1, 2), [1, 2, 3]),
    (encode_all_precedence, ([1, 2, 3],), [1, 2, 3]),
    (encode_partial_precedence, ([[1, 2], [3, 4]],), [1, 2, 3, 4]),
    (encode_wreath_precedence, ([1, 2], [3, 4]), [0, 1, 2, 3]),
    (encode_increasing_seq, None, [1, 2, 3]),
])
def test_ground_prefix_grounds_chain_states(encode, args, values_pool):
    rng = random.Random(1234)
    grounded = 0
    for _ in range(60):
        n = rng.randint(1, 5)
        t = tuple(rng.choice(values_pool) for _ in range(n))
        m = Model()
        xs = [m.add_fd_var({v}) for v in t]
        if encode is encode_increasing_seq:
            enc = encode(m, xs, [1, 2, 3])
        else:
            enc = encode(m, *args, xs=xs)
        if m.propagate() is FAILED:
            continue
        assert all(sv.mask.bit_count() == 1 for sv in enc.state_vars)
        grounded += 1
    assert grounded > 0


# ------------------------------------------------------------ chain compiler


@pytest.mark.parametrize("encode,n,dom,tuples,state_sizes", [
    (lambda m, xs: encode_wreath_precedence(m, range(5), range(5), xs),
     9, range(25), 4411, [1, 1, 3, 7, 15, 31, 61, 115, 206, 349]),
    (lambda m, xs: encode_pair_precedence(m, 1, 2, xs),
     6, range(1, 4), 39, [1, 2, 3, 3, 3, 3, 3]),
    (lambda m, xs: encode_all_precedence(m, [1, 2, 3], xs),
     5, range(1, 5), 42, [1, 2, 3, 4, 4, 4]),
    (lambda m, xs: encode_partial_precedence(m, [[1, 2], [3, 4, 5]], xs),
     5, range(1, 6), 95, [1, 2, 5, 8, 10, 11]),
    (lambda m, xs: encode_increasing_seq(m, xs, [1, 2, 3]),
     6, range(1, 4), 27, [1, 1, 2, 4, 6, 7, 7]),
])
def test_chain_sizes_pinned(encode, n, dom, tuples, state_sizes):
    m = Model()
    xs = [m.add_fd_var(dom) for _ in range(n)]
    enc = encode(m, xs)
    assert len(enc.propagators) == n
    assert sum(len(p.triples) for p in enc.propagators) == tuples
    assert [sv.mask.bit_count() for sv in enc.state_vars] == state_sizes
    # each layer's states are numbered 0..k-1
    assert all(sv.mask == (1 << sv.mask.bit_count()) - 1 for sv in enc.state_vars)


def _posted_tables(post, n, dom):
    """Position, triples and state domains of each table ``post`` posts on n variables."""
    m = Model()
    xs = [m.add_fd_var(dom) for _ in range(n)]
    post(m, xs)
    return [(xs.index(p.x), p.triples, p.y.mask, p.z.mask) for p in m.propagators]


def test_post_encoding_posts_the_named_encoders_chains():
    # the fuzzer posts pair and full specs through the partition encoder;
    # its tables must be the ones encode_pair/all_precedence post for Schur
    for n in (1, 3, 5):
        for first, second in ((1, 2), (2, 1), (4, 2)):
            assert (_posted_tables(lambda m, xs: post_encoding(
                        m, PairInterchange(first, second), xs), n, range(1, 5))
                    == _posted_tables(lambda m, xs: encode_pair_precedence(
                        m, first, second, xs), n, range(1, 5)))
        for values in ((1, 2), (3, 1, 2), (2, 4, 1, 3)):
            assert (_posted_tables(lambda m, xs: post_encoding(
                        m, FullInterchange(values), xs), n, range(1, 6))
                    == _posted_tables(lambda m, xs: encode_all_precedence(
                        m, values, xs), n, range(1, 6)))


def test_no_encoder_calls_another(monkeypatch):
    # a tracer that wraps every encode_* name would count a nested call's
    # tables under both encoders
    depth, nested = [0], []

    def counted(name, encode):
        def wrapper(*args, **kwargs):
            if depth[0]:
                nested.append(name)
            depth[0] += 1
            try:
                return encode(*args, **kwargs)
            finally:
                depth[0] -= 1
        return wrapper

    names = sorted(name for name in vars(precedence) if name.startswith("encode_"))
    for name in names:
        monkeypatch.setattr(precedence, name, counted(name, getattr(precedence, name)))
    assert sorted(ENCODER_ARGS) == names
    m = Model()
    for name in names:
        getattr(precedence, name)(*encoder_args(name, m))
    assert nested == []


def _reference_class_step(classes):
    """The class chain's step on a tuple of counters, one per class."""
    place = {}
    for ci, cls in enumerate(classes):
        for mi, v in enumerate(cls):
            place.setdefault(v, []).append((ci, mi))

    def step(counts, v):
        nxt = counts
        for ci, mi in place.get(v, ()):
            if mi > counts[ci]:
                return None
            if mi == counts[ci]:
                nxt = nxt[:ci] + (mi + 1,) + nxt[ci + 1:]
        return nxt

    return step, (0,) * len(classes)


def _reference_chain(masks, step, start, accept):
    """Each table's (triples, columns) and the state masks, as a compiler
    that expands states in set order and builds each table by dropping
    repeats through a set and then sorting would post them."""
    layers, edges = [{start}], []
    for mask in masks:
        edges.append([(v, s, t) for v in vals(mask) for s in layers[-1]
                      if (t := step(s, v)) is not None])
        layers.append({t for _, _, t in edges[-1]})
    if accept is not None:
        layers[-1] = {s for s in layers[-1] if accept(s)}
    for i in range(len(masks) - 1, -1, -1):
        edges[i] = [e for e in edges[i] if e[2] in layers[i + 1]]
        layers[i] = {s for _, s, _ in edges[i]}
    if not layers[0]:
        return [((), (0,) * 6)], []
    ids = [{s: k for k, s in enumerate(sorted(layer))} for layer in layers]
    tables = []
    for i, edge in enumerate(edges):
        triples = {(v, ids[i][s], ids[i + 1][t]) for v, s, t in edge}
        cols = [mask_of(*(t[j] for t in triples)) for j in range(3)]
        tables.append((tuple(sorted(triples)), (*cols, *(c.bit_count() for c in cols))))
    return tables, [(1 << len(layer)) - 1 for layer in layers]


def _sets(m, k):
    """k set variables over 0..k-1."""
    return [m.add_set_var(set(), range(k)) for _ in range(k)]


@pytest.mark.parametrize("post,n,dom", [
    (lambda m, xs: encode_pair_precedence(m, 1, 2, xs), 6, range(1, 4)),
    (lambda m, xs: encode_all_precedence(m, [1, 2, 3], xs), 5, range(1, 5)),
    (lambda m, xs: encode_partial_precedence(m, [[1, 2], [3], [4, 5, 6]], xs),
     5, range(1, 7)),
    (lambda m, xs: encode_wreath_precedence(m, range(5), range(5), xs), 9, range(25)),
    (lambda m, xs: encode_wreath_precedence(m, range(2), range(3), xs), 6, range(6)),
    (lambda m, xs: encode_wreath_precedence(m, range(3), range(2), xs), 6, range(6)),
    (lambda m, xs: precedence.post_lex_chain(m, [xs[:3], xs[3:]]), 6, range(3)),
    (lambda m, xs: encode_set_precedence(m, range(5), _sets(m, 5)), 1, range(1)),
    (lambda m, xs: precedence.post_exactly_one(m, xs), 5, range(2)),
    (lambda m, xs: precedence.post_exactly_one(m, xs), 3, range(1)),  # accepts nothing
    (lambda m, xs: encode_increasing_seq(m, xs, [1, 2, 3]), 6, range(1, 4)),
    (lambda m, xs: precedence.post_binary_relation(m, xs[0], xs[1], operator.lt, "L"),
     2, range(6)),
], ids=["pair", "all", "partial-single-value-class", "wreath-5x5", "wreath-2x3",
        "wreath-3x2", "lex", "set-5x5", "exactly-one", "exactly-one-empty",
        "increasing-seq", "binary-relation"])
def test_chains_match_the_reference_compiler(monkeypatch, post, n, dom):
    """Every chain posts the tables, columns and state domains of a compiler
    that steps class chains on tuples of counters, expands states in set
    order and builds each table through a set, on full and on narrowed
    domains."""
    calls, ref_steps = [], []
    post_state_chain, class_chain = precedence.post_state_chain, precedence._class_chain

    def recorded_chain(model, xs, step, start, accept=None, label="Y"):
        masks = [x.mask for x in xs]
        enc = post_state_chain(model, xs, step, start, accept, label)
        if ref_steps:  # a class chain: check it against the tuple counters
            step, start = ref_steps.pop()
        calls.append((masks, step, start, accept, enc))
        return enc

    def recorded_class_chain(model, classes, xs):
        ref_steps.append(_reference_class_step(classes))
        return class_chain(model, classes, xs)

    monkeypatch.setattr(precedence, "post_state_chain", recorded_chain)
    monkeypatch.setattr(precedence, "_class_chain", recorded_class_chain)
    rng = random.Random(34)
    for trial in range(8):
        m = Model()
        xs = [m.add_fd_var(dom if trial == 0 else
                           rng.sample(dom, rng.randint(1, len(dom)))) for _ in range(n)]
        post(m, xs)
    assert calls and not ref_steps
    for masks, step, start, accept, enc in calls:
        tables, state_masks = _reference_chain(masks, step, start, accept)
        assert [(p.triples, p.columns) for p in enc.propagators] == tables
        assert [y.mask for y in enc.state_vars] == state_masks


def test_one_class_chain_over_many_values_builds_in_linear_time():
    """The class chain's value-to-place map is built in one pass, so 20,000
    values on one variable build in well under 2 s (searching each class
    for each value is quadratic, about 5 s at this size)."""
    m = Model()
    x = m.add_fd_var(range(20_000))
    t0 = time.perf_counter()
    encode_all_precedence(m, range(20_000), [x])
    assert time.perf_counter() - t0 < 2
    assert m.posted_counts == {"encoding": 1}
    assert m.propagate() is PropagationStatus.AT_FIXPOINT and x.mask == 1


def test_transition_cap_refuses_large_chain_before_posting():
    m = Model()
    xs = [m.add_fd_var(range(36)) for _ in range(30)]
    # a lex chain over k columns holds up to 2^(k-1) states per layer
    ms = Model()
    sets = [ms.add_set_var(set(), range(13)) for _ in range(13)]
    for model, encode in (
            (m, lambda: encode_wreath_precedence(m, range(6), range(6), xs)),
            (ms, lambda: encode_set_precedence(ms, range(13), sets))):
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match=str(TRANSITION_CAP)):
            encode()
        assert time.perf_counter() - t0 < 10
        assert not model.posted_counts
        assert model.propagate() is AT_FIXPOINT
    assert all(x.mask == (1 << 36) - 1 for x in xs)
    assert all(not s.lb and s.ub == frozenset(range(13)) for s in sets)
