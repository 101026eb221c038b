"""Core engine: domains, trail, queue, watchers, entailment."""
import pytest
from hypothesis import given, strategies as st

from valprec.engine import AlwaysFail, Model, PropagationStatus, Propagator


def test_fd_var_basics():
    m = Model()
    x = m.add_fd_var([3, 1, 2], name="x")
    assert x.values() == (1, 2, 3)
    assert x.min() == 1 and x.max() == 3
    assert not x.is_assigned()
    assert 2 in x and 5 not in x


def test_fd_var_empty_domain_rejected():
    m = Model()
    with pytest.raises(ValueError):
        m.add_fd_var([])


def test_set_var_bounds_validated():
    m = Model()
    s = m.add_set_var({1}, {1, 2, 3})
    assert s.lb == {1} and s.ub == {1, 2, 3}
    m.push_choice()
    # a required element cannot be dropped
    assert not m.retain_values(s.bits[1], (0,))
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
    assert s.bits[1].domain == {1}
    assert s.bits[2].domain == s.bits[5].domain == {0, 1}
    assert s.lb == {1} and s.ub == {1, 2, 5}
    assert m.add_set_var(set(), set()).bits == {}
    with pytest.raises(ValueError):
        m.add_set_var({1, 4}, {1, 2})


def test_remove_and_retain():
    m = Model()
    x = m.add_fd_var([1, 2, 3])
    assert m.remove_value(x, 2)
    assert x.values() == (1, 3)
    assert m.retain_values(x, {3, 9})
    assert x.values() == (3,)
    assert x.is_assigned() and x.value() == 3


def test_wipeout_fails_model():
    m = Model()
    x = m.add_fd_var([1])
    assert not m.remove_value(x, 1)
    assert m.failed
    assert m.propagate() is PropagationStatus.FAILED


def test_assign():
    m = Model()
    x = m.add_fd_var([1, 2, 3])
    assert m.assign(x, 2)
    assert x.values() == (2,)
    assert not m.assign(x, 3)


def test_set_ops_and_guards():
    m = Model()
    s = m.add_set_var(set(), {1, 2, 3})
    m.push_choice()
    assert m.retain_values(s.bits[1], (1,))
    assert s.lb == {1}
    assert m.retain_values(s.bits[2], (0,))
    assert s.ub == {1, 3}
    # including an element already excluded fails the model
    assert not m.retain_values(s.bits[2], (1,))
    assert m.failed
    m.pop_choice()
    assert s.lb == set() and s.ub == {1, 2, 3}


def test_push_pop_restores_everything():
    m = Model()
    x = m.add_fd_var([1, 2, 3])
    s = m.add_set_var({1}, {1, 2, 3})
    p = AlwaysFail()
    m.post(p)
    m.push_choice()
    m.remove_value(x, 1)
    m.retain_values(s.bits[2], (1,))
    m.retain_values(s.bits[3], (0,))
    m.set_entailed(p)
    assert p.entailed and s.lb == {1, 2} and s.ub == {1, 2}
    m.pop_choice()
    assert x.values() == (1, 2, 3)
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
    m.remove_value(x, 1)
    assert m.failed
    m.pop_choice()
    assert not m.failed
    assert x.values() == (1,)


def test_always_fail_propagation():
    m = Model()
    m.post(AlwaysFail())
    assert m.propagate() is PropagationStatus.FAILED


def test_posted_counts_by_category():
    m = Model()
    m.post(AlwaysFail(), category="user")
    m.post(AlwaysFail(), category="encoding")
    m.post(AlwaysFail(), category="encoding")
    assert m.posted_counts == {"user": 1, "encoding": 2}
    assert m.posted_total() == 3


class _Recorder(Propagator):
    """Counts filter calls; never prunes."""

    def __init__(self, var):
        super().__init__()
        self.calls = 0
        self.watches = [var]

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
    m.remove_value(x, 2)          # interior value
    m.propagate()
    assert p.calls == 1
    m.remove_value(x, 1)          # the minimum
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
    m.remove_value(x, 1)
    m.propagate()
    assert p.calls == 0


@given(st.data())
def test_trail_restores_random_edits(data):
    m = Model()
    xs = [m.add_fd_var(range(1, 5)) for _ in range(3)]
    s = m.add_set_var(set(), {1, 2, 3})
    props = [m.post(_Recorder(x)) for x in xs]
    m.set_entailed(props[0])
    snap = ([set(x.domain) for x in xs], set(s.lb), set(s.ub),
            [p.entailed for p in props])
    m.push_choice()
    for _ in range(data.draw(st.integers(0, 8))):
        kind = data.draw(st.sampled_from(["rm", "inc", "exc", "entail"]))
        if kind == "rm":
            x = xs[data.draw(st.integers(0, 2))]
            if len(x.domain) > 1:
                m.remove_value(x, data.draw(st.sampled_from(sorted(x.domain))))
        elif kind in ("inc", "exc"):
            free = sorted(s.ub - s.lb)
            if free:
                bit = s.bits[data.draw(st.sampled_from(free))]
                m.retain_values(bit, (1,) if kind == "inc" else (0,))
        else:
            m.set_entailed(data.draw(st.sampled_from(props)))
    m.pop_choice()
    assert [set(x.domain) for x in xs] == snap[0]
    assert s.lb == snap[1] and s.ub == snap[2]
    assert [p.entailed for p in props] == snap[3]
