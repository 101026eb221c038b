"""Propagator filtering vs the definition-based consistency oracle."""
import itertools
import operator
import random

import pytest
from hypothesis import given, strategies as st

from conftest import domains_of, mask_of, vals
from valprec.engine import IntVar, Model, PropagationStatus, TernaryTable
from valprec.fuzz import check, sweep
from valprec.oracle import gac_by_definition, iterated_gac
from valprec.precedence import (
    encode_wreath_precedence,
    post_binary_relation,
    post_exactly_one,
    post_lex_chain,
    post_lex_leq,
)
from valprec.schur import SchurInstance, build_schur_model
from valprec.search import Budget, solve
from valprec.symmetry import WreathInterchange

FAILED = PropagationStatus.FAILED
AT_FIXPOINT = PropagationStatus.AT_FIXPOINT


# ------------------------------------------------------------- ternary table


def test_table_single_tuple_fixes_all():
    m = Model()
    xs = [m.add_fd_var({0, 1}, name=f"x{i}") for i in range(3)]
    m.post(TernaryTable(*xs, {(0, 0, 0)}))
    assert m.propagate() is AT_FIXPOINT
    assert [vals(x.mask) for x in xs] == [(0,)] * 3


def test_table_full_product_entailed_without_pruning():
    m = Model()
    xs = [m.add_fd_var({0, 1}) for _ in range(3)]
    prop = m.post(TernaryTable(*xs, set(itertools.product([0, 1], repeat=3))))
    assert m.propagate() is AT_FIXPOINT
    assert prop.entailed
    assert domains_of(xs) == [{0, 1}] * 3


def _first_seen_triples(first, second, values):
    """State-transition table: state flips 0->1 on `first`, forbids `second` at 0."""
    triples = set()
    for v in values:
        for s in (0, 1):
            if v == second and s == 0:
                continue
            t = 1 if v == first else s
            triples.add((v, s, t))
    return triples


def test_table_rejects_second_value_before_first():
    m = Model()
    x = m.add_fd_var({2})
    s = m.add_fd_var({0})
    t = m.add_fd_var({0, 1})
    m.post(TernaryTable(x, s, t, _first_seen_triples(1, 2, [1, 2, 3])))
    assert m.propagate() is FAILED


def test_table_empty_after_filter_fails():
    m = Model()
    xs = [m.add_fd_var({0, 1}) for _ in range(3)]
    m.post(TernaryTable(*xs, {(2, 2, 2)}))
    assert m.propagate() is FAILED


@given(st.data())
def test_table_fixpoint_matches_oracle(data):
    doms = [data.draw(st.sets(st.integers(0, 3), min_size=1, max_size=4))
            for _ in range(3)]
    pool = list(itertools.product(range(4), repeat=3))
    triples = data.draw(st.sets(st.sampled_from(pool), min_size=1, max_size=20))
    _, got, want = check(lambda m, xs: m.post(TernaryTable(*xs, triples)),
                         lambda t: t in triples, doms)
    assert got == want


def _live_tuples(prop):
    """The table's tuples that lie in the current domains, by a full scan."""
    dx, dy, dz = prop.x.mask, prop.y.mask, prop.z.mask
    return [(u, v, w) for u, v, w in prop.triples
            if dx >> u & 1 and dy >> v & 1 and dz >> w & 1]


def _full_scan_entailed(prop):
    """Entailment as a scan of every tuple finds it on the current domains."""
    live = _live_tuples(prop)
    supports = [len({t[i] for t in live}) for i in range(3)]
    return len(live) == supports[0] * supports[1] * supports[2]


def _copy_table(prop):
    """A copy of ``prop`` over fresh variables."""
    return TernaryTable(*(IntVar(var.mask, var.name) for var in prop.watches), prop.triples)


def _check_memo_hits(monkeypatch):
    """Patch ``TernaryTable.filter`` so that each call that hits the memo is
    compared with a copy of the table whose memo is emptied first.

    The copy, its arguments set to the same masks and filtered on a fresh
    model, must reach the same result, masks and entailment, and store the
    same outcome.  Returns the list of tables hit, one entry per hit.
    """
    filter_ = TernaryTable.filter
    copies, hits = {}, []

    def checked(prop, m):
        masks = [var.mask for var in prop.watches]
        key = tuple(d & c for d, c in zip(masks, prop.columns))
        hit = key in prop.memo
        ok = filter_(prop, m)
        if hit:
            hits.append(prop)
            if prop not in copies:
                copies[prop] = _copy_table(prop)
            copy = copies[prop]
            for var, mask in zip(copy.watches, masks):
                var.mask = mask
            copy.memo.clear()
            copy.entailed = False
            got = filter_(copy, Model())
            assert (got, [var.mask for var in copy.watches], copy.entailed) \
                == (ok, [var.mask for var in prop.watches], prop.entailed)
            assert copy.memo == {key: prop.memo[key]}
        return ok

    monkeypatch.setattr(TernaryTable, "filter", checked)
    return hits


def test_table_narrowed_fixpoints_match_oracle_and_full_scan(monkeypatch):
    """Random tables narrowed under choice points, arguments in five orders.

    Narrowing an argument below the values its column holds makes the
    filter scan only the indexed slice of the table at the position with
    the smallest live share; every position must be indexed by some table.
    Each fixpoint must still be the oracle's GAC, and entailment what a scan
    of every tuple gives.  Popping a choice must restore the domains and the
    entailment of its push.  Domains seen again after a pop hit the memo,
    and each hit must equal a from-scratch filter.
    """
    hits = _check_memo_hits(monkeypatch)
    rng = random.Random(2007)
    pool = list(itertools.product(range(5), repeat=3))
    indexed = 0
    by_position = [0, 0, 0]
    for _ in range(400):
        args = rng.choice([(0, 1, 2), (1, 0, 2), (2, 1, 0), (0, 2, 1), (1, 2, 0)])
        triples = set(rng.sample(pool, rng.randint(1, 40)))
        doms = [set(rng.sample(range(5), rng.randint(1, 5))) for _ in range(3)]
        m = Model()
        vs = [m.add_fd_var(d) for d in doms]
        prop = m.post(TernaryTable(*(vs[i] for i in args), triples))

        def at_oracle_fixpoint(status):
            want = gac_by_definition(
                lambda t: tuple(t[i] for i in args) in triples, doms)
            if want is None:
                assert status is FAILED
                return False
            assert status is AT_FIXPOINT
            assert domains_of(vs) == want
            assert prop.entailed == _full_scan_entailed(prop)
            return True

        ok = at_oracle_fixpoint(m.propagate())
        pushed = []
        for _ in range(rng.randint(1, 10)):
            free = [v for v in vs if v.mask.bit_count() > 1]
            if ok and free and rng.random() < 0.7:
                pushed.append((domains_of(vs), prop.entailed))
                m.push_choice()
                var = rng.choice(free)
                keep = rng.sample(vals(var.mask),
                                  rng.randint(1, var.mask.bit_count() - 1))
                assert m.narrow(var, mask_of(*keep))
                doms = domains_of(vs)
                ok = at_oracle_fixpoint(m.propagate())
            elif pushed:
                m.pop_choice()
                assert (domains_of(vs), prop.entailed) == pushed.pop()
                ok = True
        indexed += any(index is not None for index in prop.by_value)
        for pos, index in enumerate(prop.by_value):
            by_position[pos] += index is not None
    assert indexed >= 100
    assert all(by_position), by_position
    assert len(hits) >= 20, len(hits)


def test_memo_holds_at_most_one_entry_per_tuple():
    """One table swept over every combination of sub-domains of its columns.

    Every fixpoint is the oracle's GAC, and the memo, which never shrinks,
    ends at one entry per tuple, so it held at most that many all along.
    """
    triples = {(0, 0, 0), (0, 1, 2), (1, 2, 0), (2, 0, 1),
               (1, 1, 1), (2, 2, 2), (0, 2, 1), (2, 1, 0)}
    tables = []
    assert sweep(lambda m, xs: tables.append(m.post(TernaryTable(*xs, triples))),
                 lambda t: t in triples, range(3), 3) == (343, [])
    assert len(tables[0].memo) == len(triples)


def _wreath_search():
    spec = WreathInterchange(tuple(range(1, 6)), tuple(range(1, 6)))
    m = Model()
    xs = [m.add_fd_var(spec.codes, name=f"X{i}") for i in range(9)]
    encode_wreath_precedence(m, spec.outer, spec.inner, xs)
    return m, xs, Budget(max_nodes=2000), (2000, 0, 997)


def _schur_adjacent_search():
    m, xs = build_schur_model(SchurInstance(13, 3), "adjacent")
    return m, xs, None, (59, 27, 3)


@pytest.mark.parametrize("search, min_hits", [(_wreath_search, 1777),
                                              (_schur_adjacent_search, 0)],
                         ids=["wreath", "schur-13-3-adjacent"])
def test_memo_hits_in_real_searches_match_a_fresh_table(search, min_hits, monkeypatch):
    """Each memo hit in a pinned search equals a from-scratch filter.

    The search runs twice on one model, as the benchmark's rounds do: the
    second round meets the memo the first one filled.  Both keep the counts.
    S(13,3)'s tables are all entailed within the root propagation, so its
    search makes no hit; it checks that the wrapper changes no count.
    """
    hits = _check_memo_hits(monkeypatch)
    m, xs, budget, counts = search()
    for _ in range(2):
        res = solve(m, xs, budget=budget)
        assert (res.stats.nodes, res.stats.backtracks, res.stats.solutions) == counts
    assert len(hits) >= min_hits


@pytest.mark.parametrize("search", [_wreath_search, _schur_adjacent_search],
                         ids=["wreath", "schur-13-3-adjacent"])
def test_table_fixpoints_in_real_searches_match_full_scan(search):
    """At every search node's fixpoint, each table is GAC by a full scan.

    ``model.propagate`` is shadowed on the instance, as a benchmark that
    times the search does.  After each fixpoint, a table that is not
    entailed changes nothing when filtered again, every value of its
    arguments has a live tuple, and its entailment is what a scan of every
    tuple gives.  The search's counts stay pinned under the wrapper.
    """
    m, xs, budget, counts = search()
    tables = [p for p in m.propagators if isinstance(p, TernaryTable)]
    propagate, checked = m.propagate, 0

    def checked_propagate():
        nonlocal checked
        status = propagate()
        if status is AT_FIXPOINT:
            for prop in tables:
                args = prop.watches
                assert prop.entailed == _full_scan_entailed(prop)
                if not prop.entailed:
                    doms = [x.mask for x in args]
                    assert prop.filter(m)
                    assert [x.mask for x in args] == doms and not prop.entailed
                live = _live_tuples(prop)
                assert [{t[i] for t in live} for i in range(3)] == domains_of(args)
            checked += 1
        return status

    m.propagate = checked_propagate
    res = solve(m, xs, budget=budget)
    del m.propagate
    assert (res.stats.nodes, res.stats.backtracks, res.stats.solutions) == counts
    assert checked == res.stats.nodes - res.stats.backtracks


# ------------------------------------------------------------------- lex leq


def test_lex_prefix_violation_fails():
    m = Model()
    a = [m.add_fd_var({1}), m.add_fd_var({0, 1})]
    b = [m.add_fd_var({0}), m.add_fd_var({0, 1})]
    post_lex_leq(m, a, b)
    assert m.propagate() is FAILED


def test_lex_tail_forcing():
    m = Model()
    a = [m.add_fd_var({0}), m.add_fd_var({1})]
    b = [m.add_fd_var({0}), m.add_fd_var({0, 1})]
    post_lex_leq(m, a, b)
    assert m.propagate() is AT_FIXPOINT
    assert vals(b[1].mask) == (1,)


def test_lex_entailed_when_max_left_below_min_right():
    # every assignment satisfies the ordering, so no table may prune
    m = Model()
    a = [m.add_fd_var({0}), m.add_fd_var({0, 1})]
    b = [m.add_fd_var({1}), m.add_fd_var({0, 1})]
    post_lex_leq(m, a, b)
    assert m.propagate() is AT_FIXPOINT
    assert domains_of(a + b) == [{0}, {0, 1}, {1}, {0, 1}]


def _lex_pred(n):
    return lambda t: t[:n] <= t[n:]


def _post_lex(n):
    return lambda m, vs: post_lex_leq(m, vs[:n], vs[n:])


def test_lex_binary_instances_match_oracle_500_cases():
    rng = random.Random(1405)
    for _ in range(500):
        n = rng.randint(1, 6)
        doms = [set(rng.sample([0, 1], rng.randint(1, 2))) for _ in range(2 * n)]
        _, got, want = check(_post_lex(n), _lex_pred(n), doms)
        assert got == want, doms


@given(st.data())
def test_lex_general_integer_instances_match_oracle(data):
    n = data.draw(st.integers(1, 3))
    doms = [data.draw(st.sets(st.integers(0, 3), min_size=1, max_size=4))
            for _ in range(2 * n)]
    _, got, want = check(_post_lex(n), _lex_pred(n), doms)
    assert got == want


def test_lex_length_mismatch_rejected():
    m = Model()
    a = [m.add_fd_var({0, 1})]
    b = [m.add_fd_var({0, 1}), m.add_fd_var({0, 1})]
    with pytest.raises(ValueError):
        post_lex_leq(m, a, b)


# ----------------------------------------------------------------- lex chain


def _chain_pred(n, k):
    def pred(t):
        cols = [t[j * n:(j + 1) * n] for j in range(k)]
        return all(cols[j] >= cols[j + 1] for j in range(k - 1))
    return pred


def _columns(vs, n, k):
    return [vs[j * n:(j + 1) * n] for j in range(k)]


def _chain_cases(seed, cases, k, max_n, values=(0, 1)):
    rng = random.Random(seed)
    for _ in range(cases):
        n = rng.randint(1, max_n)
        yield n, k, [set(rng.sample(values, rng.randint(1, len(values))))
                     for _ in range(k * n)]


def test_chain_complete_matches_oracle_200_cases():
    for n, k, doms in itertools.chain(_chain_cases(4099, 200, 3, 3),
                                      _chain_cases(77, 100, 2, 4),
                                      _chain_cases(78, 100, 3, 2, (0, 1, 2)),
                                      _chain_cases(79, 60, 4, 2, (0, 1, 2))):
        _, got, want = check(lambda m, vs: post_lex_chain(m, _columns(vs, n, k)),
                             _chain_pred(n, k), doms)
        assert got == want, doms


def test_chain_pairwise_is_sound_but_may_prune_less():
    rng = random.Random(4100)
    for _ in range(100):
        n = rng.randint(1, 3)
        k = 3
        doms = [set(rng.sample([0, 1], rng.randint(1, 2))) for _ in range(k * n)]

        def pairwise(m, vs):
            cols = _columns(vs, n, k)
            for a, b in zip(cols, cols[1:]):
                post_lex_leq(m, b, a)

        _, got, want = check(pairwise, _chain_pred(n, k), doms)
        if want is None:
            # pairwise may fail later, but must never report spurious solutions
            continue
        assert got is not None
        assert all(g >= w for g, w in zip(got, want))


def test_chain_entailed_on_ground_equal_columns():
    # equal ground columns satisfy the ordering: nothing to prune, no failure
    m = Model()
    cols = [[m.add_fd_var({1}), m.add_fd_var({0})] for _ in range(3)]
    post_lex_chain(m, cols)
    assert m.propagate() is AT_FIXPOINT
    assert [domains_of(c) for c in cols] == [[{1}, {0}]] * 3


# --------------------------------------------------------------- exactly one


def test_exactly_one_forces_rest_zero():
    m = Model()
    bits = [m.add_fd_var({1}), m.add_fd_var({0, 1}), m.add_fd_var({0, 1})]
    post_exactly_one(m, bits)
    assert m.propagate() is AT_FIXPOINT
    assert [vals(b.mask) for b in bits] == [(1,), (0,), (0,)]


def test_exactly_one_forces_last_one():
    m = Model()
    bits = [m.add_fd_var({0}), m.add_fd_var({0}), m.add_fd_var({0, 1})]
    post_exactly_one(m, bits)
    assert m.propagate() is AT_FIXPOINT
    assert vals(bits[2].mask) == (1,)


def test_exactly_one_all_zero_fails():
    m = Model()
    bits = [m.add_fd_var({0}) for _ in range(3)]
    post_exactly_one(m, bits)
    assert m.propagate() is FAILED


def test_exactly_one_rejects_non_binary():
    m = Model()
    with pytest.raises(ValueError):
        post_exactly_one(m, [m.add_fd_var({0, 2})])


@given(st.lists(st.sets(st.integers(0, 1), min_size=1, max_size=2),
                min_size=1, max_size=6))
def test_exactly_one_matches_oracle(doms):
    _, got, want = check(post_exactly_one, lambda t: sum(t) == 1, doms)
    assert got == want


# ------------------------------------------------------------------- channel


def _post_channel(m, x, bits, values):
    """x = values[j] iff bits[j] = 1, one binary relation per bit."""
    for b, v in zip(bits, values):
        post_binary_relation(m, x, b, lambda u, w, v=v: (u == v) == w, "C")


def test_channel_assigned_value_sets_unit_row():
    m = Model()
    x = m.add_fd_var({20})
    bits = [m.add_fd_var({0, 1}) for _ in range(3)]
    _post_channel(m, x, bits, [10, 20, 30])
    assert m.propagate() is AT_FIXPOINT
    assert [vals(b.mask) for b in bits] == [(0,), (1,), (0,)]


def test_channel_zero_bit_prunes_value():
    m = Model()
    x = m.add_fd_var({10, 20, 30})
    bits = [m.add_fd_var({0, 1}), m.add_fd_var({0}), m.add_fd_var({0, 1})]
    _post_channel(m, x, bits, [10, 20, 30])
    assert m.propagate() is AT_FIXPOINT
    assert vals(x.mask) == (10, 30)


def test_channel_with_out_of_list_values_keeps_zero_row_open():
    m = Model()
    x = m.add_fd_var({10, 99})
    bits = [m.add_fd_var({0, 1})]
    _post_channel(m, x, bits, [10])
    assert m.propagate() is AT_FIXPOINT
    assert vals(x.mask) == (10, 99)
    assert vals(bits[0].mask) == (0, 1)
    assert m.narrow(x, mask_of(99))
    assert m.propagate() is AT_FIXPOINT
    assert vals(bits[0].mask) == (0,)


# ------------------------------------------------------------- not-all-equal


def test_nae_prunes_third_when_two_equal():
    m = Model()
    x = m.add_fd_var({5})
    y = m.add_fd_var({5})
    z = m.add_fd_var({4, 5, 6})
    m.post_nae(x, y, z)
    assert m.propagate() is AT_FIXPOINT
    assert vals(z.mask) == (4, 6)


def test_nae_disjoint_pair_prunes_nothing():
    m = Model()
    x = m.add_fd_var({1})
    y = m.add_fd_var({2})
    z = m.add_fd_var({1, 2, 3})
    m.post_nae(x, y, z)
    assert m.propagate() is AT_FIXPOINT
    assert vals(z.mask) == (1, 2, 3)
    assert m.narrow(z, mask_of(1))
    assert m.propagate() is AT_FIXPOINT
    assert domains_of([x, y, z]) == [{1}, {2}, {1}]


def test_nae_all_same_constant_fails():
    m = Model()
    vs = [m.add_fd_var({7}) for _ in range(3)]
    m.post_nae(*vs)
    assert m.propagate() is FAILED


def test_nae_aliased_pair_becomes_disequality():
    m = Model()
    x = m.add_fd_var({3, 4})
    z = m.add_fd_var({3})
    m.post_nae(x, x, z)
    assert m.propagate() is AT_FIXPOINT
    assert vals(x.mask) == (4,)


def test_nae_fully_aliased_fails():
    m = Model()
    x = m.add_fd_var({1, 2})
    m.post_nae(x, x, x)
    assert m.propagate() is FAILED


@given(st.lists(st.sets(st.integers(0, 3), min_size=1, max_size=4),
                min_size=3, max_size=3))
def test_nae_matches_oracle(doms):
    _, got, want = check(lambda m, vs: m.post_nae(*vs),
                         lambda t: not (t[0] == t[1] == t[2]), doms)
    assert got == want


@given(st.data())
def test_nae_incremental_edits_match_oracle(data):
    """After each edit and propagation the domains are GAC of the edited ones.

    The propagator wakes only on fixes, so this checks that every fix that
    makes pruning possible wakes it, through removals and assignments alike.
    """
    doms = [data.draw(st.sets(st.integers(0, 3), min_size=1, max_size=4))
            for _ in range(3)]
    a, b, c = data.draw(st.sampled_from([(0, 1, 2), (0, 0, 2), (0, 2, 2),
                                         (0, 2, 0)]))
    m = Model()
    vs = [m.add_fd_var(d) for d in doms]
    m.post_nae(vs[a], vs[b], vs[c])

    def pred(t):
        return not (t[a] == t[b] == t[c])

    def at_oracle_fixpoint(status):
        expect = gac_by_definition(pred, doms)
        if expect is None:
            assert status is FAILED
            return False
        assert status is AT_FIXPOINT
        assert domains_of(vs) == expect
        return True

    if not at_oracle_fixpoint(m.propagate()):
        return
    for _ in range(data.draw(st.integers(1, 6))):
        free = [v for v in vs if v.mask.bit_count() > 1]
        if not free:
            return
        var = data.draw(st.sampled_from(free))
        value = data.draw(st.sampled_from(vals(var.mask)))
        if data.draw(st.booleans()):
            assert m.narrow(var, ~mask_of(value))
        else:
            assert m.narrow(var, mask_of(value))
        doms = domains_of(vs)
        if not at_oracle_fixpoint(m.propagate()):
            return


def _nae_network(rng):
    """Random domains and NAE triples over them, aliased triples included."""
    n = rng.randint(3, 5)
    doms = [set(rng.sample(range(4), rng.randint(2, 4))) for _ in range(n)]
    triples = []
    for _ in range(rng.randint(1, 5)):
        a, b, c = (rng.randrange(n) for _ in range(3))
        if rng.random() < 0.2:
            b = a
        triples.append(rng.sample((a, b, c), 3))
    return doms, triples


def test_nae_networks_match_iterated_oracle_under_choices():
    """Networks of NAEs under push/remove/pop sequences.

    The NAE rule runs only when a fixed variable is popped, and a pop of the
    choice stack empties that queue, so every fix after a backtrack must be
    seen again.  After every propagation the domains must be the fixpoint of
    per-constraint GAC, and FAILED exactly when that fixpoint wipes out; a
    pop must restore the domains of its push.
    """
    rng = random.Random(2006)
    for _ in range(1000):
        doms, triples = _nae_network(rng)
        preds = [lambda t, a=a, b=b, c=c: not (t[a] == t[b] == t[c])
                 for a, b, c in triples]
        m = Model()
        vs = [m.add_fd_var(d) for d in doms]
        for a, b, c in triples:
            m.post_nae(vs[a], vs[b], vs[c])

        def at_oracle_fixpoint(status, doms):
            want = iterated_gac(preds, doms)
            if want is None:
                assert status is FAILED
                return False
            assert status is AT_FIXPOINT
            assert domains_of(vs) == want
            return True

        ok = at_oracle_fixpoint(m.propagate(), doms)
        pushed = []
        for _ in range(rng.randint(1, 20)):
            free = [v for v in vs if v.mask.bit_count() > 1]
            if ok and free and rng.random() < 0.6:
                pushed.append(domains_of(vs))
                m.push_choice()
                for var in rng.sample(free, rng.randint(1, min(2, len(free)))):
                    assert m.narrow(var, ~mask_of(rng.choice(vals(var.mask))))
                ok = at_oracle_fixpoint(m.propagate(), domains_of(vs))
            elif pushed:
                m.pop_choice()
                assert domains_of(vs) == pushed.pop()
                ok = True


# ---------------------------------------------------------- binary relation


def test_implication_bounds_consequent():
    m = Model()
    x = m.add_fd_var({1})
    z = m.add_fd_var({1, 2, 3})
    post_binary_relation(m, x, z, lambda u, w: u != 1 or w <= 1, "I")
    assert m.propagate() is AT_FIXPOINT
    assert vals(z.mask) == (1,)


def test_implication_assigns_consequent():
    m = Model()
    z = m.add_fd_var({3})
    x = m.add_fd_var({1, 2, 3})
    post_binary_relation(m, z, x, lambda u, w: u != 3 or w == 2, "I")
    assert m.propagate() is AT_FIXPOINT
    assert vals(x.mask) == (2,)


def test_implication_contrapositive_removes_trigger():
    m = Model()
    x = m.add_fd_var({1, 2})
    z = m.add_fd_var({5})
    post_binary_relation(m, x, z, lambda u, w: u != 1 or w < 5, "I")
    assert m.propagate() is AT_FIXPOINT
    assert vals(x.mask) == (2,)


def test_less_than_prunes_bounds():
    m = Model()
    a = m.add_fd_var({1, 2, 3})
    b = m.add_fd_var({1, 2, 3})
    post_binary_relation(m, a, b, operator.lt, "L")
    assert m.propagate() is AT_FIXPOINT
    assert vals(a.mask) == (1, 2)
    assert vals(b.mask) == (2, 3)


def test_less_than_entailed_and_failure():
    m = Model()
    a = m.add_fd_var({1})
    b = m.add_fd_var({5, 6})
    enc = post_binary_relation(m, a, b, operator.lt, "L")
    assert m.propagate() is AT_FIXPOINT
    assert all(p.entailed for p in enc.propagators)

    m2 = Model()
    post_binary_relation(m2, m2.add_fd_var({4, 5}), m2.add_fd_var({1, 2}), operator.lt, "L")
    assert m2.propagate() is FAILED


def _channel_pred(values):
    def pred(t):
        return all((t[0] == v) == (b == 1) for v, b in zip(values, t[1:]))
    return pred


# seven of the 16 pairs over 0..3, with no pattern to them
_SOME_PAIRS = frozenset(random.Random(7).sample(list(itertools.product(range(4), repeat=2)), 7))


@pytest.mark.parametrize("post, pred, universes", [
    (lambda m, xs: _post_channel(m, xs[0], xs[1:], (10, 20, 30)),
     _channel_pred((10, 20, 30)), [(10, 20, 30, 99)] + [(0, 1)] * 3),
    (lambda m, xs: post_binary_relation(m, *xs, lambda u, w: u != 2 or w <= 1, "I"),
     lambda t: t[0] != 2 or t[1] <= 1, [range(4)] * 2),
    (lambda m, xs: post_binary_relation(m, *xs, lambda u, w: u != 1 or w == 3, "I"),
     lambda t: t[0] != 1 or t[1] == 3, [range(4)] * 2),
    (lambda m, xs: post_binary_relation(m, *xs, operator.lt, "L"),
     lambda t: t[0] < t[1], [range(4)] * 2),
    (lambda m, xs: post_binary_relation(m, *xs, lambda u, w: (u, w) in _SOME_PAIRS, "R"),
     lambda t: t in _SOME_PAIRS, [range(4)] * 2),
], ids=["channel-row", "implication-bound", "implication-value", "less-than",
        "arbitrary-relation"])
@given(data=st.data())
def test_binary_relation_matches_oracle(post, pred, universes, data):
    """The channel row is a star of relations sharing only x: GAC together."""
    doms = [data.draw(st.sets(st.sampled_from(u), min_size=1)) for u in universes]
    _, got, want = check(post, pred, doms)
    assert got == want


# --------------------------------------------------------- entailment safety


def _random_subdomains(rng, doms):
    out = []
    for d in doms:
        keep = {v for v in d if rng.random() < 0.7}
        out.append(keep or {rng.choice(sorted(d))})
    return out


def test_entailment_is_stable_under_further_pruning():
    """Once a propagator says entailed, later domain shrinking never falsifies it."""
    rng = random.Random(909)
    checked = 0
    for _ in range(200):
        n = rng.randint(1, 3)
        doms = [set(rng.sample([0, 1], rng.randint(1, 2))) for _ in range(2 * n)]
        m = Model()
        vs = [m.add_fd_var(d) for d in doms]
        enc = post_lex_leq(m, vs[:n], vs[n:])
        if m.propagate() is FAILED:
            continue
        entailed = [p for p in enc.propagators if p.entailed]
        sub = _random_subdomains(rng, domains_of(vs))
        for v, keep in zip(vs, sub):
            assert m.narrow(v, mask_of(*keep))
        every = vs + enc.state_vars
        before = domains_of(every)
        for prop in entailed:
            assert prop.filter(m)
            assert domains_of(every) == before
        checked += len(entailed)
    assert checked > 0
