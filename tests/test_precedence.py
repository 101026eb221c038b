"""First-occurrence ordering encodings vs the consistency oracle."""
import itertools
import random
import time

import pytest

from valprec.engine import Model, PropagationStatus
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


def domains_of(xs):
    return [set(x.domain) for x in xs]


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
    (lambda m: m.add_fd_var({1, 2}).value(), ValueError, "not assigned"),
    (lambda m: value_permutations((1, 2)), TypeError, "unknown symmetry spec"),
    (lambda m: predicate_for((1, 2)), TypeError, "no predicate"),
    (lambda m: post_encoding(m, (1, 2), [m.add_fd_var({1, 2})]),
     TypeError, "no encoding"),
    (lambda m: PairInterchange(1, 1), ValueError, "distinct"),
    (lambda m: FullInterchange((1, 1)), ValueError, "distinct"),
    (lambda m: FullInterchange(()), ValueError, "non-empty"),
    (lambda m: WreathInterchange((1, 1), (3, 4)), ValueError, "distinct"),
    (lambda m: WreathInterchange((1, 2), (3, 3)), ValueError, "distinct"),
    (lambda m: WreathInterchange((1, 2), ()), ValueError, "non-empty"),
    (lambda m: WreathInterchange((), (3, 4)), ValueError, "non-empty"),
], ids=["set-repeated-value", "incr-seq-repeated-value", "schur-unknown-sym",
        "value-of-unfixed", "value-perms-non-spec", "predicate-non-spec",
        "post-encoding-non-spec", "pair-spec-repeated-value",
        "full-spec-repeated-value", "full-spec-no-values", "wreath-spec-repeated-outer",
        "wreath-spec-repeated-inner", "wreath-spec-empty-inner",
        "wreath-spec-empty-outer"])
def test_documented_input_errors(call, error, match):
    with pytest.raises(error, match=match):
        call(Model())


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
    assert m.posted_total() == 0
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


def test_wreath_out_of_range_codes_pruned():
    got = fd_fixpoint([{0, 7}],
                      lambda m, xs: encode_wreath_precedence(m, [1, 2], [3, 4], xs))
    assert got == [{0}]


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
    assert xs[1].domain == {2}


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
    assert m.assign(x, 1)
    assert m.propagate() is AT_FIXPOINT
    assert [b.value() for b in enc.bits[0]] == [1, 0, 0]
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
    assert [z.value() for z in enc.first_index] == [1, 2, 3]


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
        assert all(sv.is_assigned() for sv in enc.state_vars)
        grounded += 1
    assert grounded > 0


# ------------------------------------------------------------ chain compiler


@pytest.mark.parametrize("encode,n,dom,tuples,state_sizes", [
    (lambda m, xs: encode_wreath_precedence(m, range(5), range(5), xs),
     9, range(25), 4411, [1, 1, 3, 7, 15, 31, 61, 115, 206, 349]),
    (lambda m, xs: encode_pair_precedence(m, 1, 2, xs),
     6, range(1, 4), 27, [1, 2, 2, 2, 2, 2, 2]),
    (lambda m, xs: encode_all_precedence(m, [1, 2, 3], xs),
     5, range(1, 5), 34, [1, 2, 3, 3, 3, 3]),
    (lambda m, xs: encode_partial_precedence(m, [[1, 2], [3, 4, 5]], xs),
     5, range(1, 6), 60, [1, 2, 4, 5, 5, 5]),
    (lambda m, xs: encode_increasing_seq(m, xs, [1, 2, 3]),
     6, range(1, 4), 27, [1, 1, 2, 4, 6, 7, 7]),
])
def test_chain_sizes_pinned(encode, n, dom, tuples, state_sizes):
    m = Model()
    xs = [m.add_fd_var(dom) for _ in range(n)]
    enc = encode(m, xs)
    assert len(enc.propagators) == n
    assert sum(len(p.triples) for p in enc.propagators) == tuples
    assert [len(sv.domain) for sv in enc.state_vars] == state_sizes
    # each layer's states are numbered 0..k-1
    assert all(sv.domain == frozenset(range(len(sv.domain)))
               for sv in enc.state_vars)


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
        assert model.posted_total() == 0
        assert model.propagate() is AT_FIXPOINT
    assert all(x.domain == frozenset(range(36)) for x in xs)
    assert all(not s.lb and s.ub == frozenset(range(13)) for s in sets)
