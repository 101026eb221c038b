"""Depth-first search: completeness, determinism, budgets, heuristics."""
import itertools

import pytest

from conftest import mask_of, vals
from valprec.engine import Model, PropagationStatus, Propagator, TernaryTable
from valprec.oracle import all_precedence_holds, wreath_precedence_holds
from valprec.precedence import (encode_all_precedence, encode_pair_precedence,
                                encode_wreath_precedence, post_less_than)
from valprec.schur import SchurInstance, build_schur_model
from valprec.search import Budget, Heuristic, solve
from valprec.symmetry import WreathInterchange


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
    assert res.stats.nodes == 5
    assert len(res.solutions) < 3 ** 6


def test_zero_node_budget_visits_no_node():
    m, xs = two_var_model()
    res = solve(m, xs, budget=Budget(max_nodes=0))
    assert res.halted
    assert (res.stats.nodes, res.stats.solutions, res.solutions) == (0, 0, [])


def test_time_budget_halts_search():
    m = Model()
    xs = [m.add_fd_var(range(4)) for _ in range(10)]
    res = solve(m, xs, budget=Budget(max_seconds=0.0))
    assert res.halted
    assert res.stats.solutions < 4 ** 10


@pytest.mark.parametrize("kwargs", [
    {"max_seconds": float("nan")},
    {"max_seconds": -1.0},
    {"max_nodes": -5},
    {"max_nodes": 2.5},
    {"max_nodes": True},
    {"max_seconds": True},
], ids=["nan-seconds", "negative-seconds", "negative-nodes", "float-nodes", "bool-nodes",
        "bool-seconds"])
def test_budget_refuses_values_that_mean_something_else(kwargs):
    with pytest.raises(ValueError):
        Budget(**kwargs)


def test_budget_accepts_zero_and_infinite_limits():
    m, xs = two_var_model()
    assert solve(m, xs, budget=Budget(max_seconds=0.0, max_nodes=0)).stats.nodes == 0
    res = solve(m, xs, budget=Budget(max_seconds=float("inf")))
    assert (res.halted, res.stats.solutions) == (False, 3)


def test_backtracks_bounded_by_nodes():
    m = Model()
    xs = [m.add_fd_var({1, 2, 3}) for _ in range(4)]
    for i in range(3):
        m.post_nae(xs[i], xs[i + 1], xs[(i + 2) % 4])
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
    rooted = [x.mask for x in xs]
    solve(m, xs)
    assert [x.mask for x in xs] == rooted
    # a second search over the same model gives the same answer
    again = solve(m, xs)
    assert set(again.solutions) == {(a, b) for a in (1, 2, 3) for b in (1, 2, 3)
                                    if a < b}


def model_vars(m):
    """Every variable a posted propagator watches, decision and state alike;
    under ``sym="all"`` a table watches every decision variable."""
    return list(dict.fromkeys(v for p in m.propagators for v in p.watches))


@pytest.mark.parametrize("mode, budget", [("all", Budget(max_nodes=30)),
                                          ("first", None)])
def test_every_exit_restores_the_root(mode, budget):
    """A budget halt and a first-solution stop both leave open choices;
    the search undoes them, so every variable keeps its root domain."""
    m, xs = build_schur_model(SchurInstance(13, 3), "all")
    m.propagate()
    everything = model_vars(m)
    assert len(everything) > len(xs)
    root = [v.mask for v in everything]
    runs = []
    for _ in range(2):
        res = solve(m, xs, mode=mode, budget=budget)
        assert [v.mask for v in everything] == root
        assert m._marks == []
        runs.append((res.solutions, res.stats.nodes, res.stats.backtracks,
                     res.halted))
    assert runs[0] == runs[1]
    assert runs[0][3] == (mode == "all")


class _RaisesOnThirdCall(Propagator):
    def __init__(self, xs):
        super().__init__()
        self.watches, self.calls = xs, 0

    def filter(self, model):
        self.calls += 1
        if self.calls == 3:
            raise RuntimeError("third call")
        return True


def test_exception_undoes_choices_and_leaves_the_propagator_wakeable():
    m = Model()
    xs = [m.add_fd_var({1, 2, 3}) for _ in range(3)]
    prop = m.post(_RaisesOnThirdCall(xs))
    with pytest.raises(RuntimeError, match="third call"):
        solve(m, xs)
    assert prop.calls == 3                 # root, x0 = 1, x1 = 1
    assert [vals(x.mask) for x in xs] == [(1, 2, 3)] * 3
    assert m._marks == []
    assert not prop.queued
    m.push_choice()
    m.narrow(xs[0], mask_of(2))
    assert m.propagate() is PropagationStatus.AT_FIXPOINT
    assert prop.calls == 4


@pytest.mark.parametrize("k", [1, 2, 17, 30])
def test_interrupt_returns_the_halted_partial_result(k):
    """Ctrl-C at node k: the search returns what it found before node k,
    halted, with every choice undone."""
    m, xs = build_schur_model(SchurInstance(13, 3), "all")
    m.propagate()
    everything = model_vars(m)
    root = [v.mask for v in everything]
    before = solve(m, xs, budget=Budget(max_nodes=k - 1))
    propagate, calls = m.propagate, 0

    def interrupted():
        nonlocal calls
        calls += 1
        if calls == k:
            raise KeyboardInterrupt
        return propagate()

    m.propagate = interrupted
    res = solve(m, xs)
    del m.propagate
    assert res.halted
    assert res.stats.nodes == k
    assert res.solutions == before.solutions
    assert res.stats.solutions == len(before.solutions)
    assert [v.mask for v in everything] == root
    assert m._marks == []


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


def test_wreath_enumeration_counts_pinned():
    """5x5 pair-value codes over 9 variables, lex-asc, 2,000-node budget.

    The search narrows table arguments below their posted domains at every
    node, so its counts pin the tables' indexed filtering on a real chain.
    """
    spec = WreathInterchange(tuple(range(1, 6)), tuple(range(1, 6)))
    m = Model()
    xs = [m.add_fd_var(spec.codes, name=f"X{i}") for i in range(9)]
    encode_wreath_precedence(m, spec.outer, spec.inner, xs)
    tables = [p for p in m.propagators if isinstance(p, TernaryTable)]
    assert (len(tables), sum(len(t.triples) for t in tables)) == (9, 4_411)
    res = solve(m, xs, Heuristic("lex", "asc"), mode="all",
                budget=Budget(max_nodes=2000))
    stats = res.stats
    assert (stats.nodes, stats.backtracks, stats.solutions) == (2000, 0, 997)
    assert len(res.solutions) == 997
    assert all(wreath_precedence_holds(spec, sol) for sol in res.solutions)


def test_solve_calls_instance_propagate_once_per_node():
    """Code that times a search (such as a benchmark) may shadow
    ``model.propagate`` on the instance, so ``solve`` must call it through
    the instance once per node, never through an alias of the class's."""
    model, xs = build_schur_model(SchurInstance(13, 3), "all")
    calls = 0
    propagate = model.propagate

    def counted():
        nonlocal calls
        calls += 1
        return propagate()

    model.propagate = counted
    res = solve(model, xs)
    assert res.stats.solutions > 0
    assert calls == res.stats.nodes


HEURISTICS = [Heuristic(var, val) for var in ("lex", "mindom")
              for val in ("asc", "desc")]


@pytest.mark.parametrize("heuristic, nodes, backtracks, first", [
    (HEURISTICS[0], 43, 15, "1213121412343423423141413243243432141213"),
    (HEURISTICS[1], 5_362, 2_674, "1234441223314421333142333122413322144442"),
    (HEURISTICS[2], 513, 249, "1213223124431412241233321422141344213223"),
    (HEURISTICS[3], 420, 201, "1234244343122331412434214131221343442432"),
])
def test_schur_first_solution_pinned_per_heuristic(heuristic, nodes, backtracks, first):
    """S(40,4) sym=all, first solution: each variable and value order has
    its own counts and its own first solution."""
    model, xs = build_schur_model(SchurInstance(40, 4), "all")
    res = solve(model, xs, heuristic, mode="first")
    assert (res.stats.nodes, res.stats.backtracks, res.stats.solutions) == \
        (nodes, backtracks, 1)
    assert res.solutions == [tuple(map(int, first))]


@pytest.mark.parametrize("heuristic", HEURISTICS)
def test_schur_enumeration_pinned_per_heuristic(heuristic):
    """S(13,3) sym=none, all solutions: the value order does not change the
    counts (the 3 classes are interchangeable), the variable order does."""
    model, xs = build_schur_model(SchurInstance(13, 3), "none")
    res = solve(model, xs, heuristic)
    want = {"lex": (359, 162), "mindom": (215, 90)}[heuristic.var]
    assert (res.stats.nodes, res.stats.backtracks, res.stats.solutions) == (*want, 18)
    assert sorted(res.solutions) == sorted(solve(*build_schur_model(
        SchurInstance(13, 3), "none")).solutions)


@pytest.mark.parametrize("heuristic", HEURISTICS)
def test_wreath_enumeration_pinned_per_heuristic(heuristic):
    """5x5 wreath chain, 2,000-node budget: no node fails under any order,
    and the descending value order finds one solution fewer."""
    spec = WreathInterchange(tuple(range(1, 6)), tuple(range(1, 6)))
    m = Model()
    xs = [m.add_fd_var(spec.codes, name=f"X{i}") for i in range(9)]
    encode_wreath_precedence(m, spec.outer, spec.inner, xs)
    res = solve(m, xs, heuristic, budget=Budget(max_nodes=2000))
    want = 997 if heuristic.val == "asc" else 996
    assert (res.stats.nodes, res.stats.backtracks, res.stats.solutions) == (2000, 0, want)
    assert res.halted
    assert all(wreath_precedence_holds(spec, sol) for sol in res.solutions)
