"""Core engine: domains, trail, queue, watchers, entailment, the NAE rule."""
import random
import time
from itertools import chain

import pytest
from hypothesis import given, strategies as st

from conftest import mask_of, vals
from valprec.engine import (TRANSITION_CAP, IntVar, Model, PropagationStatus, Propagator,
                            TernaryTable, mask_values)
from valprec.fuzz import Divergence, FuzzReport
from valprec.precedence import post_state_chain
from valprec.schur import SchurInstance, build_schur_model
from valprec.search import Budget, Heuristic, SearchResult, SearchStats, solve
from valprec.symmetry import (FullInterchange, PairInterchange, PartitionInterchange,
                              WreathInterchange)


def test_fd_var_basics():
    m = Model()
    x = m.add_fd_var([3, 1, 2], name="x")
    assert x.mask == 0b1110 and vals(x.mask) == (1, 2, 3)
    assert repr(x) == "IntVar(x, [1, 2, 3])"


def test_mask_values_matches_a_bit_loop():
    """Masks below, at and above 64 bits, with empty 64-bit words inside,
    list the same values as testing each bit; a 200,000-bit mask is read
    in linear time (clearing one bit at a time copies the int each time,
    about 4 s at this size)."""
    rng = random.Random(5)
    masks = [0, 1, (1 << 63) | 1, 1 << 64, (1 << 64) - 1, (1 << 130) | (1 << 3)]
    masks += [rng.getrandbits(rng.randint(1, 3000)) for _ in range(200)]
    masks += [rng.getrandbits(rng.randint(1, 3000)) & rng.getrandbits(3000)
              & rng.getrandbits(3000) for _ in range(100)]
    for mask in masks:
        assert list(mask_values(mask)) == [v for v in range(mask.bit_length()) if mask >> v & 1]
    t0 = time.perf_counter()
    assert list(mask_values((1 << 200_000) - 1)) == list(range(200_000))
    assert time.perf_counter() - t0 < 2


def test_fd_var_empty_domain_rejected():
    m = Model()
    with pytest.raises(ValueError):
        m.add_fd_var([])


def test_range_domain_mask():
    m = Model()
    assert m.add_fd_var(range(3, 7)).mask == 0b1111000
    assert m.add_fd_var(range(0, 1)).mask == 1
    assert vals(m.add_fd_var(range(2, 9, 3)).mask) == (2, 5, 8)
    with pytest.raises(ValueError, match="empty domain"):
        m.add_fd_var(range(4, 4))
    with pytest.raises(ValueError, match="^neg: .*got -2"):
        m.add_fd_var(range(-2, 3), name="neg")
    assert m.add_fd_var(range(TRANSITION_CAP, TRANSITION_CAP + 1)).mask == 1 << TRANSITION_CAP
    with pytest.raises(ValueError, match=f"^big: .*got {TRANSITION_CAP + 1}$"):
        m.add_fd_var(range(1, TRANSITION_CAP + 2), name="big")


def test_negative_values_refused_by_name():
    m = Model()
    with pytest.raises(ValueError, match="^neg: "):
        m.add_fd_var([0, -1, 2], name="neg")
    with pytest.raises(ValueError, match="^S: "):
        m.add_set_var(set(), {-1, 1}, name="S")
    with pytest.raises(ValueError, match="^T: "):
        m.add_set_var({-2}, {-2, 1}, name="T")
    with pytest.raises(ValueError, match=r"^x: a domain holds only int values, got 1\.5$"):
        m.add_fd_var([0, 1.5], name="x")
    with pytest.raises(ValueError, match="^y: a domain holds only int values, got 'a'$"):
        m.add_fd_var(["a"], name="y")


def test_absent_or_negative_value_is_not_in_domain():
    """Dropping absent values changes nothing, and keeping only absent ones
    fails.  A negative value has no bit, and ``add_fd_var`` refuses it."""
    m = Model()
    x = m.add_fd_var([0, 2, 3])
    assert not x.mask & mask_of(1, 64)
    m.push_choice()
    for v in (1, 5, 64):
        assert m.narrow(x, ~mask_of(v))
    assert vals(x.mask) == (0, 2, 3) and not m.failed and m._trail == []
    assert m.narrow(x, mask_of(0, 2, 3, 64)) and vals(x.mask) == (0, 2, 3)
    assert not m.narrow(x, mask_of(64)) and m.failed
    m.pop_choice()
    m.push_choice()
    assert m.narrow(x, ~mask_of(0)) and vals(x.mask) == (2, 3)
    m.pop_choice()
    assert vals(x.mask) == (0, 2, 3)


def test_set_var_bounds_validated():
    m = Model()
    s = m.add_set_var({1}, {1, 2, 3})
    assert s.lb == {1} and s.ub == {1, 2, 3}
    m.push_choice()
    # a required element cannot be dropped
    assert not m.narrow(s.bits[1], mask_of(0))
    assert m.failed
    m.pop_choice()
    assert s.lb == {1} and s.ub == {1, 2, 3}
    with pytest.raises(ValueError):
        m.add_set_var({4}, {1, 2})


def test_add_set_var_makes_one_bit_per_ub_element():
    m = Model()
    s = m.add_set_var({1}, {1, 2, 5}, name="S")
    assert sorted(s.bits) == [1, 2, 5]
    assert len({id(b) for b in s.bits.values()}) == 3
    assert s.bits[1].mask == mask_of(1)
    assert s.bits[2].mask == s.bits[5].mask == mask_of(0, 1)
    assert s.lb == {1} and s.ub == {1, 2, 5}
    assert m.add_set_var(set(), set()).bits == {}
    with pytest.raises(ValueError):
        m.add_set_var({1, 4}, {1, 2})


def test_remove_and_retain():
    m = Model()
    x = m.add_fd_var([1, 2, 3])
    assert m.narrow(x, ~mask_of(2))
    assert vals(x.mask) == (1, 3)
    assert m.narrow(x, mask_of(3, 9))
    assert x.mask == mask_of(3)


def test_wipeout_fails_model():
    m = Model()
    x = m.add_fd_var([1])
    assert not m.narrow(x, ~mask_of(1))
    assert m.failed
    assert m.propagate() is PropagationStatus.FAILED


def test_assign():
    m = Model()
    x = m.add_fd_var([1, 2, 3])
    assert m.narrow(x, mask_of(2))
    assert x.mask == mask_of(2)
    assert not m.narrow(x, mask_of(3))


def test_set_ops_and_guards():
    m = Model()
    s = m.add_set_var(set(), {1, 2, 3})
    m.push_choice()
    assert m.narrow(s.bits[1], mask_of(1))
    assert s.lb == {1}
    assert m.narrow(s.bits[2], mask_of(0))
    assert s.ub == {1, 3}
    # including an element already excluded fails the model
    assert not m.narrow(s.bits[2], mask_of(1))
    assert m.failed
    m.pop_choice()
    assert s.lb == set() and s.ub == {1, 2, 3}


def test_push_pop_restores_everything():
    m = Model()
    x = m.add_fd_var([1, 2, 3])
    s = m.add_set_var({1}, {1, 2, 3})
    p = m.post(_Recorder(x))
    m.push_choice()
    m.narrow(x, ~mask_of(1))
    m.narrow(s.bits[2], mask_of(1))
    m.narrow(s.bits[3], mask_of(0))
    m.set_entailed(p)
    assert p.entailed and s.lb == {1, 2} and s.ub == {1, 2}
    m.pop_choice()
    assert vals(x.mask) == (1, 2, 3)
    assert s.lb == {1} and s.ub == {1, 2, 3}
    assert not p.entailed


def test_pop_without_push_raises():
    m = Model()
    with pytest.raises(RuntimeError):
        m.pop_choice()


def test_pop_clears_failure():
    m = Model()
    x = m.add_fd_var([1])
    m.push_choice()
    m.narrow(x, ~mask_of(1))
    assert m.failed
    m.pop_choice()
    assert not m.failed
    assert vals(x.mask) == (1,)


def test_always_fail_propagation():
    """A chain that accepts nothing posts one table without tuples, which
    fails at its first filter, with or without variables."""
    for n in (0, 2):
        m = Model()
        xs = [m.add_fd_var([1, 2]) for _ in range(n)]
        post_state_chain(m, xs, lambda s, v: s, start=0, accept=lambda s: False)
        assert m.posted_counts == {"encoding": 1}
        assert m.propagate() is PropagationStatus.FAILED
        assert [vals(x.mask) for x in xs] == [(1, 2)] * n


def test_posted_counts_by_category():
    m = Model()
    x, y = m.add_fd_var([1, 2]), m.add_fd_var([1, 2])
    posted = [m.post(_Recorder(x), category="user"),
              m.post(_Recorder(y), category="encoding")]
    m.post_nae(x, y, x)  # counts as a user constraint, lists no propagator
    assert m.posted_counts == {"user": 2, "encoding": 1}
    assert sum(m.posted_counts.values()) == 3
    assert m.propagators == posted


class _Recorder(Propagator):
    """Counts filter calls; never prunes."""

    def __init__(self, *watches):
        super().__init__()
        self.calls = 0
        self.watches = list(watches)

    def filter(self, model):
        self.calls += 1
        return True


def test_watcher_woken_once_per_change():
    m = Model()
    x = m.add_fd_var([1, 2, 3, 4])
    p = _Recorder(x)
    m.post(p)
    m.propagate()
    p.calls = 0
    m.narrow(x, ~mask_of(2))     # interior value
    m.propagate()
    assert p.calls == 1
    m.narrow(x, ~mask_of(1))     # the minimum
    m.propagate()
    assert p.calls == 2


def test_entailed_propagator_not_rescheduled():
    m = Model()
    x = m.add_fd_var([1, 2, 3])
    p = _Recorder(x)
    m.post(p)
    m.propagate()
    m.set_entailed(p)
    p.calls = 0
    m.narrow(x, ~mask_of(1))
    m.propagate()
    assert p.calls == 0


def _posted(m, prop):
    """Post ``prop``, run its first filter and reset its call count."""
    m.post(prop)
    assert m.propagate() is PropagationStatus.AT_FIXPOINT
    prop.calls = 0
    return prop


class _CountedPairs(list):
    """A ``nae_pairs`` list that counts how often the NAE rule runs over it."""
    runs = 0

    def __iter__(self):
        self.runs += 1
        return super().__iter__()


def _counted(var):
    var.nae_pairs = _CountedPairs(var.nae_pairs)
    return var.nae_pairs


def test_nae_rule_ignores_removal_leaving_two_values():
    m = Model()
    x, y, z = (m.add_fd_var([1, 2, 3, 4]) for _ in range(3))
    m.post_nae(x, y, z)
    pairs = _counted(x)
    m.narrow(x, ~mask_of(2))
    m.narrow(x, mask_of(1, 3, 9))
    assert m.propagate() is PropagationStatus.AT_FIXPOINT
    assert vals(x.mask) == (1, 3)
    assert pairs.runs == 0


@pytest.mark.parametrize("keep", [~mask_of(1), mask_of(2, 9), mask_of(2)],
                         ids=["drop-one-value", "keep-a-subset", "keep-one-value"])
def test_nae_rule_runs_once_per_kind_of_fix(keep):
    m = Model()
    x, y, z = m.add_fd_var([1, 2, 3]), m.add_fd_var([2]), m.add_fd_var([1, 2, 3])
    m.post_nae(x, y, z)
    assert m.propagate() is PropagationStatus.AT_FIXPOINT
    pairs = _counted(x)
    m.narrow(x, ~mask_of(3))
    assert m.propagate() is PropagationStatus.AT_FIXPOINT
    assert pairs.runs == 0
    assert m.narrow(x, keep)
    assert vals(x.mask) == (2,)
    assert m.propagate() is PropagationStatus.AT_FIXPOINT
    assert pairs.runs == 1
    assert vals(z.mask) == (1, 3)


def test_plain_watcher_woken_by_every_change():
    m = Model()
    x = m.add_fd_var([1, 2, 3, 4])
    p = _posted(m, _Recorder(x))
    assert x.watchers == [p] and x.nae_pairs == []
    m.narrow(x, ~mask_of(4))
    m.propagate()
    m.narrow(x, mask_of(1, 2))
    m.propagate()
    m.narrow(x, mask_of(1))
    m.propagate()
    assert p.calls == 3


def test_repeated_watch_filters_once_per_change():
    m = Model()
    x = m.add_fd_var([1, 2, 3])
    y = m.add_fd_var([1, 2])
    p = _posted(m, _Recorder(x, y, x))
    assert x.watchers.count(p) == 1
    m.narrow(x, ~mask_of(3))
    m.propagate()
    m.narrow(x, mask_of(1))
    m.propagate()
    assert p.calls == 2


def test_nae_arguments_fixed_before_post_prune_at_root():
    """Posting queues the arguments already fixed, even ones that an
    earlier propagation has popped already."""
    m = Model()
    x, y = m.add_fd_var([2]), m.add_fd_var([1, 2])
    z, w = m.add_fd_var([1, 2, 3]), m.add_fd_var([1, 2, 3])
    m.post_nae(x, z, w)
    m.post_nae(y, z, w)
    assert m.narrow(y, mask_of(2))
    assert m.propagate() is PropagationStatus.AT_FIXPOINT
    assert vals(z.mask) == vals(w.mask) == (1, 2, 3)
    m.post_nae(x, y, z)
    assert m.propagate() is PropagationStatus.AT_FIXPOINT
    assert vals(z.mask) == (1, 3) and vals(w.mask) == (1, 2, 3)


def test_nae_prune_in_place_wakes_chains_fails_and_pops():
    """The rule prunes in place: it trails the old mask, wakes the pruned
    variable's watchers once, queues it if fixed, and fails on a wipeout."""
    m = Model()
    x, y = m.add_fd_var([1, 2, 3]), m.add_fd_var([1, 2, 3])
    z, u, v = m.add_fd_var([1, 2]), m.add_fd_var([1]), m.add_fd_var([1, 2, 3])
    m.post_nae(x, y, z)
    m.post_nae(z, u, v)
    p = _posted(m, _Recorder(z))
    initial = [w.mask for w in (x, y, z, u, v)]
    m.push_choice()
    assert m.narrow(x, mask_of(2)) and m.narrow(y, mask_of(2))
    assert m.propagate() is PropagationStatus.AT_FIXPOINT
    assert vals(z.mask) == (1,) and p.calls == 1   # pruned by x = y = 2
    assert vals(v.mask) == (2, 3)                   # then z = u = 1 prunes v
    assert (z, 0b110) in m._trail and (v, 0b1110) in m._trail
    m.pop_choice()
    assert [w.mask for w in (x, y, z, u, v)] == initial and m._trail == []
    m.push_choice()
    assert m.narrow(x, mask_of(1)) and m.narrow(y, mask_of(1)) and m.narrow(z, mask_of(1))
    trail = list(m._trail)
    assert m.propagate() is PropagationStatus.FAILED
    assert m._trail == trail and vals(z.mask) == (1,)  # z kept its one value
    m.pop_choice()
    assert [w.mask for w in (x, y, z, u, v)] == initial and not m.failed


def _nae_prune(m, x, y, a):
    """Fix x = y = 1 under a choice, so that the rule removes 1 from a."""
    m.push_choice()
    assert m.narrow(x, mask_of(1)) and m.narrow(y, mask_of(1))
    assert m.propagate() is PropagationStatus.AT_FIXPOINT
    assert vals(a.mask) == (2, 3)


def _at_least(m, a, b):
    """b >= a over 1..3, as a table with a new {0} third variable."""
    return TernaryTable(a, b, m.add_fd_var([0]),
                        [(u, v, 0) for u in (1, 2, 3) for v in (1, 2, 3) if v >= u])


def test_nae_prune_wakes_again_after_an_undone_entailment_or_a_post():
    """A prune that finds every watcher of its variable entailed flags the
    variable ``quiet``, and later prunes skip its wake loop.  Restoring an
    entailment and posting a propagator both clear the flag: the next prune
    of the variable wakes its table again, seen as the table's prune of b."""
    for case in ("pop", "post"):
        m = Model()
        x, y, a, b = (m.add_fd_var([1, 2, 3], name=n) for n in "xyab")
        m.post_nae(x, y, a)
        table = _at_least(m, a, b)
        if case == "pop":
            m.post(table)
            m.push_choice()                          # depth 1: b = 3 entails b >= a
            assert m.narrow(b, mask_of(3))
            assert m.propagate() is PropagationStatus.AT_FIXPOINT and table.entailed
            _nae_prune(m, x, y, a)
            assert a.quiet is True                   # the only watcher is entailed
            m.pop_choice()
            assert a.quiet is True                   # no entailment undone yet
            m.pop_choice()
            assert not table.entailed and vals(b.mask) == (1, 2, 3)
        else:
            _nae_prune(m, x, y, a)
            assert a.quiet is True and a.watchers == []
            m.pop_choice()
            m.post(table)
            assert m.propagate() is PropagationStatus.AT_FIXPOINT
            assert not table.entailed and vals(b.mask) == (1, 2, 3)
        assert a.quiet is False, case
        _nae_prune(m, x, y, a)
        assert vals(b.mask) == (2, 3), case         # the table ran after a lost 1
        assert a.quiet is False, case
        m.pop_choice()


def test_undone_entailment_clears_the_flag_only_on_its_tables_variables():
    """Two NAE variables a and d, each watched by one table, both flagged by
    one prune.  Undoing a's table's entailment clears the flag on that
    table's variables, and d, whose table stays entailed, keeps its flag."""
    m = Model()
    x, y, a, b, d, e = (m.add_fd_var([1, 2, 3], name=n) for n in "xyabde")
    m.post_nae(x, y, a)
    m.post_nae(x, y, d)
    ta, td = m.post(_at_least(m, a, b)), m.post(_at_least(m, d, e))
    assert m.propagate() is PropagationStatus.AT_FIXPOINT
    for var, table in ((e, td), (b, ta)):           # depths 1 and 2
        m.push_choice()
        assert m.narrow(var, mask_of(3))
        assert m.propagate() is PropagationStatus.AT_FIXPOINT and table.entailed
    _nae_prune(m, x, y, a)                           # depth 3
    assert vals(d.mask) == (2, 3) and a.quiet is True and d.quiet is True
    m.pop_choice()
    assert a.quiet is True and d.quiet is True
    m.pop_choice()                                   # undoes ta's entailment
    assert not ta.entailed and td.entailed
    assert not any(v.quiet for v in ta.watches)
    assert d.quiet is True
    m.pop_choice()                                   # undoes td's entailment
    assert not any(v.quiet for v in (a, b, d, e))


class _CountedEntailed(_Recorder):
    """A recorder that counts the reads of its ``entailed`` flag."""

    def __init__(self, *watches):
        self.reads = 0
        super().__init__(*watches)

    @property
    def entailed(self):
        self.reads += 1
        return self._entailed

    @entailed.setter
    def entailed(self, value):
        self._entailed = value


def test_narrow_on_a_flagged_variable_reads_no_watcher():
    m = Model()
    x, y, a = (m.add_fd_var([1, 2, 3, 4], name=n) for n in "xya")
    m.post_nae(x, y, a)
    p = _posted(m, _CountedEntailed(a))
    m.set_entailed(p)
    p.reads = 0
    assert m.narrow(a, ~mask_of(4))                  # not flagged: reads its watcher
    assert p.reads == 1
    m.push_choice()
    assert m.narrow(x, mask_of(1)) and m.narrow(y, mask_of(1))
    assert m.propagate() is PropagationStatus.AT_FIXPOINT
    assert vals(a.mask) == (2, 3) and a.quiet is True
    p.reads = 0
    assert m.narrow(a, mask_of(2))
    assert m.propagate() is PropagationStatus.AT_FIXPOINT
    assert vals(a.mask) == (2,) and p.reads == 0 and p.calls == 0
    m.pop_choice()


def test_flagged_variables_have_only_entailed_watchers_throughout_a_search():
    """After every ``propagate`` and ``pop_choice`` of the S(14,3) sym=all
    search for all solutions, each flagged variable's watchers are all
    entailed, and some variable is flagged at some point."""
    m, xs = build_schur_model(SchurInstance(14, 3), sym="all")
    variables = list(dict.fromkeys(
        chain(xs, (v for p in m.propagators for v in p.watches))))
    flagged = 0

    def checked(method):
        def run():
            nonlocal flagged
            out = method()
            quiet = [v for v in variables if v.quiet]
            assert all(p.entailed for v in quiet for p in v.watchers)
            flagged += bool(quiet)
            return out
        return run

    m.propagate, m.pop_choice = checked(m.propagate), checked(m.pop_choice)
    res = solve(m, xs, mode="all")
    assert res.stats.solutions == 0 and res.stats.nodes > 1 and flagged > 0


@pytest.mark.parametrize("order", ["xzx", "zxx", "xxz"])
def test_nae_repeated_argument_acts_as_disequality(order):
    for first in ("x", "z"):
        m = Model()
        v = {"x": m.add_fd_var([1, 2, 3]), "z": m.add_fd_var([1, 2, 3])}
        m.post_nae(*(v[c] for c in order))
        assert v["x"].nae_pairs == v["z"].nae_pairs and len(v["x"].nae_pairs) == 2
        assert m.propagate() is PropagationStatus.AT_FIXPOINT
        m.push_choice()
        assert m.narrow(v[first], mask_of(2))
        assert m.propagate() is PropagationStatus.AT_FIXPOINT
        assert vals(v["x" if first == "z" else "z"].mask) == (1, 3)
        m.pop_choice()
        m.push_choice()
        assert m.narrow(v["x"], mask_of(2)) and m.narrow(v["z"], mask_of(2))
        assert m.propagate() is PropagationStatus.FAILED
        m.pop_choice()
        assert m.narrow(v["x"], mask_of(1)) and m.narrow(v["z"], mask_of(3))
        assert m.propagate() is PropagationStatus.AT_FIXPOINT


@given(st.data())
def test_trail_restores_random_edits(data):
    """Random edits under nested choices, each checked against frozenset
    reference domains; every pop restores the domains of its push."""
    m = Model()
    xs = [m.add_fd_var(range(1, 5)) for _ in range(2)] + [m.add_fd_var({0, 3, 6})]
    s = m.add_set_var(set(), {1, 2, 3})
    props = [m.post(_Recorder(x)) for x in xs]
    m.set_entailed(props[0])
    refs = [frozenset(vals(x.mask)) for x in xs + list(s.bits.values())]
    snap = ([x.mask for x in xs], set(s.lb), set(s.ub),
            [p.entailed for p in props])
    saved = []
    m.push_choice()
    for _ in range(data.draw(st.integers(0, 12))):
        kind = data.draw(st.sampled_from(["rm", "keep", "inc", "exc", "entail",
                                          "push", "pop"]))
        i = data.draw(st.integers(0, 2))
        x = xs[i]
        if kind == "rm":
            v = data.draw(st.integers(0, 7))
            if len(refs[i]) > 1:
                assert m.narrow(x, ~mask_of(v))
                refs[i] = refs[i] - {v}
        elif kind == "keep":
            keep = data.draw(st.sets(st.integers(0, 7)))
            if refs[i] & keep:
                assert m.narrow(x, mask_of(*keep))
                refs[i] = refs[i] & keep
        elif kind in ("inc", "exc"):
            free = sorted(s.ub - s.lb)
            if free:
                v = data.draw(st.sampled_from(free))
                m.narrow(s.bits[v], mask_of(1) if kind == "inc" else mask_of(0))
                refs[2 + v] = frozenset({1} if kind == "inc" else {0})
        elif kind == "entail":
            m.set_entailed(data.draw(st.sampled_from(props)))
        elif kind == "push":
            m.push_choice()
            saved.append(list(refs))
        elif saved:
            m.pop_choice()
            refs = saved.pop()
        for var, ref in zip(xs + list(s.bits.values()), refs):
            assert var.mask == mask_of(*ref)
        assert s.lb == {v for v in s.bits if refs[2 + v] == {1}}
        assert s.ub == {v for v in s.bits if 1 in refs[2 + v]}
    for owner, old in m._trail:   # one layout: (var, old mask) or (prop, None)
        assert (isinstance(owner, IntVar) and isinstance(old, int)
                or isinstance(owner, Propagator) and old is None)
    for _ in range(len(saved) + 1):
        m.pop_choice()
    assert [x.mask for x in xs] == snap[0]
    assert s.lb == snap[1] and s.ub == snap[2]
    assert [p.entailed for p in props] == snap[3]


class _Retain(_Recorder):
    """Restricts ``var`` to ``keep`` on every run: an idempotent filter."""

    def __init__(self, var, keep, *watches):
        super().__init__(*watches)
        self.var, self.keep = var, mask_of(*keep)

    def filter(self, model):
        self.calls += 1
        return model.narrow(self.var, self.keep)


def test_own_change_does_not_requeue_but_another_filters_does():
    m = Model()
    x = m.add_fd_var(range(1, 6))
    a = m.post(_Retain(x, {1, 2, 3}, x))
    assert m.propagate() is PropagationStatus.AT_FIXPOINT
    assert vals(x.mask) == (1, 2, 3) and a.calls == 1
    b = m.post(_Retain(x, {2, 3, 4}, x))
    assert m.propagate() is PropagationStatus.AT_FIXPOINT
    assert vals(x.mask) == (2, 3)
    assert (a.calls, b.calls) == (2, 1)


class _Interrupting(_Recorder):
    """Raises ``KeyboardInterrupt`` on its ``at``-th filter call."""

    def __init__(self, at, *watches):
        super().__init__(*watches)
        self.at = at

    def filter(self, model):
        self.calls += 1
        if self.calls == self.at:
            raise KeyboardInterrupt
        return True


def test_interrupted_propagate_resumes_its_fixpoint():
    """A filter that raises stays queued, and so does the work behind it:
    the next propagate reaches the fixpoint an uninterrupted one would."""
    m = Model()
    x = m.add_fd_var(range(1, 6))
    stop = m.post(_Interrupting(1, x))
    keep = m.post(_Retain(x, {2, 3}, x))
    with pytest.raises(KeyboardInterrupt):
        m.propagate()
    assert vals(x.mask) == (1, 2, 3, 4, 5)
    assert stop.queued and keep.queued
    assert m.propagate() is PropagationStatus.AT_FIXPOINT
    assert vals(x.mask) == (2, 3)
    assert (stop.calls, keep.calls) == (3, 1)   # rerun, then woken by keep
    assert not stop.queued and not keep.queued


class _TrippingWatcher(_Recorder):
    """Raises ``KeyboardInterrupt`` on the first ``entailed`` read after
    ``armed`` is set."""
    armed = False

    @property
    def entailed(self):
        if self.armed:
            self.armed = False
            raise KeyboardInterrupt
        return self._entailed

    @entailed.setter
    def entailed(self, value):
        self._entailed = value


def test_interrupted_nae_prune_resumes_its_fixpoint():
    """The NAE rule wakes before it writes, and its fixed variable stays
    queued until its pairs are done: an exception in the wake loop leaves
    the prune unmade, and the next propagate makes it and the rest."""
    m = Model()
    x, y, z, w = (m.add_fd_var([1, 2], name=n) for n in "xyzw")
    m.post_nae(x, y, z)
    m.post_nae(x, y, w)
    watcher = _posted(m, _TrippingWatcher(z))
    m.narrow(x, mask_of(1))
    assert m.propagate() is PropagationStatus.AT_FIXPOINT
    m.push_choice()
    m.narrow(y, mask_of(1))
    watcher.armed = True
    with pytest.raises(KeyboardInterrupt):
        m.propagate()                  # z is to lose 1, and its watcher is read
    assert vals(z.mask) == vals(w.mask) == (1, 2)
    assert m.propagate() is PropagationStatus.AT_FIXPOINT
    assert vals(z.mask) == vals(w.mask) == (2,)
    assert watcher.calls == 1
    m.pop_choice()
    assert [vals(v.mask) for v in (x, y, z, w)] == [(1,), (1, 2), (1, 2), (1, 2)]


def test_narrow_is_all_or_nothing():
    """``narrow`` wakes before it writes: an exception in its wake loop
    leaves the domain and the trail as they were, so narrowing again makes
    the change and wakes the watcher."""
    m = Model()
    x = m.add_fd_var([1, 2, 3])
    watcher = _posted(m, _TrippingWatcher(x))
    m.push_choice()
    watcher.armed = True
    with pytest.raises(KeyboardInterrupt):
        m.narrow(x, mask_of(1, 2))
    assert vals(x.mask) == (1, 2, 3) and m._trail == []
    assert m.narrow(x, mask_of(1, 2))
    assert m.propagate() is PropagationStatus.AT_FIXPOINT
    assert vals(x.mask) == (1, 2) and watcher.calls == 1


class _Guard(_Recorder):
    """Fails once its watched variable has lost the value 9."""

    def filter(self, model):
        self.calls += 1
        return bool(self.watches[0].mask & mask_of(9))


def test_no_stale_fix_runs_after_failure_or_pop():
    m = Model()
    x, y, z = (m.add_fd_var([1, 2]) for _ in range(3))
    g = m.add_fd_var([1, 9])
    m.post_nae(x, y, z)
    _posted(m, _Guard(g))
    pairs = _counted(y)
    m.push_choice()
    m.narrow(y, mask_of(1))
    m.narrow(g, ~mask_of(9))       # the guard is queued before y's fix runs
    assert m.propagate() is PropagationStatus.FAILED
    assert pairs.runs == 0
    m.pop_choice()
    assert m.propagate() is PropagationStatus.AT_FIXPOINT
    assert pairs.runs == 0
    m.push_choice()
    m.narrow(y, mask_of(2))        # fixed, then unfixed before any propagate
    m.pop_choice()
    assert m.propagate() is PropagationStatus.AT_FIXPOINT
    assert pairs.runs == 0
    assert vals(x.mask) == vals(y.mask) == vals(z.mask) == (1, 2)


@pytest.mark.parametrize("make, text, field, other", [
    (lambda: PairInterchange(1, 2), "PairInterchange(first=1, second=2)", "first",
     PairInterchange(2, 1)),
    (lambda: FullInterchange((1, 2)), "FullInterchange(values=(1, 2))", "values",
     FullInterchange((1, 3))),
    (lambda: PartitionInterchange(((1, 2), (3,))),
     "PartitionInterchange(classes=((1, 2), (3,)))", "classes",
     PartitionInterchange(((1,), (2, 3)))),
    (lambda: WreathInterchange((1, 2), (3,)), "WreathInterchange(outer=(1, 2), inner=(3,))",
     "inner", WreathInterchange((1,), (2, 3))),
    (lambda: Heuristic(), "Heuristic(var='lex', val='asc')", "val", Heuristic("mindom")),
    (lambda: Budget(max_nodes=5), "Budget(max_seconds=None, max_nodes=5)", "max_nodes",
     Budget(5)),
    (lambda: SchurInstance(44, 4), "SchurInstance(n=44, k=4)", "k", SchurInstance(45, 4)),
], ids=["pair", "full", "partition", "wreath", "heuristic", "budget", "schur-instance"])
def test_value_records_show_compare_and_hash_by_fields(make, text, field, other):
    """The value types print their fields in order, in error messages and
    fuzz labels too; equal fields make equal, equally hashed values, and no
    field can be assigned."""
    a, b = make(), make()
    assert repr(a) == text
    assert a == b and a is not b and hash(a) == hash(b)
    assert a != other and a != text
    with pytest.raises(AttributeError):
        setattr(a, field, getattr(other, field))
    assert a == b


def test_mutable_records_get_fresh_containers_and_no_hash():
    a, b = SearchResult(), SearchResult()
    a.solutions.append((1,))
    a.stats.nodes = 3
    assert b == SearchResult(solutions=[], stats=SearchStats(), halted=False) != a
    r, s = FuzzReport(1, 2), FuzzReport(1, 2)
    r.checked["pair"] = 1
    r.divergences.append(Divergence("pair", "x"))
    assert s == FuzzReport(seed=1, cases=2, checked={}, divergences=[]) != r
    for record in (a, a.stats, r, r.divergences[0]):
        with pytest.raises(TypeError):
            hash(record)
