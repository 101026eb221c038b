"""Depth-first search: completeness, determinism, budgets, heuristics."""
import itertools

import pytest

from valprec.engine import Model
from valprec.oracle import all_precedence_holds
from valprec.precedence import (encode_all_precedence, encode_pair_precedence,
                                post_less_than)
from valprec.propagators import NotAllEqual3
from valprec.search import Budget, Heuristic, solve


def two_var_model():
    m = Model()
    a = m.add_fd_var({1, 2, 3}, name="a")
    b = m.add_fd_var({1, 2, 3}, name="b")
    post_less_than(m, a, b)
    return m, [a, b]


def test_single_free_variable_all_mode():
    m = Model()
    x = m.add_fd_var({1, 2})
    res = solve(m, [x])
    assert sorted(res.solutions) == [(1,), (2,)]
    assert res.stats.backtracks == 0
    assert not res.halted


def test_all_mode_enumerates_exactly_the_solutions():
    m, xs = two_var_model()
    res = solve(m, xs)
    assert set(res.solutions) == {(a, b) for a in (1, 2, 3) for b in (1, 2, 3)
                                  if a < b}
    assert res.stats.solutions == len(res.solutions)


def test_first_mode_stops_at_lex_least():
    m, xs = two_var_model()
    res = solve(m, xs, mode="first")
    assert res.solutions == [(1, 2)]


def test_solutions_invariant_across_heuristics():
    expected = None
    for var in ("lex", "mindom"):
        for val in ("asc", "desc"):
            m, xs = two_var_model()
            res = solve(m, xs, heuristic=Heuristic(var=var, val=val))
            got = set(res.solutions)
            if expected is None:
                expected = got
            assert got == expected


def test_search_is_deterministic():
    runs = []
    for _ in range(2):
        m, xs = two_var_model()
        res = solve(m, xs)
        runs.append((res.solutions, res.stats.nodes, res.stats.backtracks))
    assert runs[0] == runs[1]


def test_node_budget_halts_search():
    m = Model()
    xs = [m.add_fd_var({1, 2, 3}) for _ in range(6)]
    res = solve(m, xs, budget=Budget(max_nodes=5))
    assert res.halted
    assert res.stats.nodes <= 5
    assert len(res.solutions) < 3 ** 6


def test_time_budget_halts_search():
    m = Model()
    xs = [m.add_fd_var(range(4)) for _ in range(10)]
    res = solve(m, xs, budget=Budget(max_seconds=0.0))
    assert res.halted
    assert res.stats.solutions < 4 ** 10


def test_backtracks_bounded_by_nodes():
    m = Model()
    xs = [m.add_fd_var({1, 2, 3}) for _ in range(4)]
    for i in range(3):
        m.post(NotAllEqual3(xs[i], xs[i + 1], xs[(i + 2) % 4]))
    res = solve(m, xs)
    assert res.stats.backtracks <= res.stats.nodes


def test_infeasible_model_reports_zero_solutions():
    m = Model()
    a = m.add_fd_var({2, 3})
    b = m.add_fd_var({1, 2})
    post_less_than(m, a, b)
    post_less_than(m, b, a)
    res = solve(m, [a, b])
    assert res.solutions == []
    assert not res.halted


def test_search_undoes_choices_but_keeps_root_propagation():
    m, xs = two_var_model()
    m.propagate()
    rooted = [set(x.domain) for x in xs]
    solve(m, xs)
    assert [set(x.domain) for x in xs] == rooted
    # a second search over the same model gives the same answer
    again = solve(m, xs)
    assert set(again.solutions) == {(a, b) for a in (1, 2, 3) for b in (1, 2, 3)
                                    if a < b}


def test_search_branches_only_on_decision_variables():
    m = Model()
    xs = [m.add_fd_var({1, 2, 3}) for _ in range(3)]
    encode_all_precedence(m, [1, 2, 3], xs)
    res = solve(m, xs)
    want = {t for t in itertools.product((1, 2, 3), repeat=3)
            if all_precedence_holds([1, 2, 3], t)}
    assert set(res.solutions) == want
    assert all(len(s) == 3 for s in res.solutions)


def test_invalid_heuristic_and_mode_rejected():
    with pytest.raises(ValueError):
        Heuristic(var="random")
    with pytest.raises(ValueError):
        Heuristic(val="updown")
    m, xs = two_var_model()
    with pytest.raises(ValueError):
        solve(m, xs, mode="some")


def test_deep_search_needs_no_recursion():
    m = Model()
    xs = [m.add_fd_var({1, 2}) for _ in range(1200)]
    encode_pair_precedence(m, 1, 2, xs)
    res = solve(m, xs, mode="first")
    assert res.solutions == [(1,) * 1200]
    assert res.stats.nodes == 1200
    assert res.stats.backtracks == 0
