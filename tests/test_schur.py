"""Sum-free partition models and the benchmark report plumbing."""
import csv
import io
import itertools
import time
import tracemalloc

import pytest

from valprec import schur
from valprec.engine import Model
from valprec.oracle import all_precedence_holds
from valprec.precedence import TRANSITION_CAP
from valprec.schur import (
    CSV_COLUMNS,
    ReportRow,
    SchurInstance,
    build_schur_model,
    format_table,
    rows_to_csv,
    run_one,
    sum_triples,
    write_csv,
)
from valprec.search import Budget, Heuristic


def brute_force_schur(n, k):
    """All colourings of [1..n] with k colours where every class is sum-free."""
    sols = []
    for t in itertools.product(range(1, k + 1), repeat=n):
        if all(not (t[a - 1] == t[b - 1] == t[a + b - 1])
               for a in range(1, n + 1) for b in range(a, n - a + 1)):
            sols.append(t)
    return sols


def test_sum_triples_examples():
    assert list(sum_triples(4)) == [(1, 1, 2), (1, 2, 3), (1, 3, 4), (2, 2, 4)]
    assert len(list(sum_triples(13))) == 42


def test_instance_validation_and_label():
    assert SchurInstance(13, 3).label == "S(13,3)"
    with pytest.raises(ValueError):
        SchurInstance(0, 3)
    with pytest.raises(ValueError):
        SchurInstance(4, 0)
    # n^2/4 sum triples: n = 2000 gives exactly the cap, n = 2001 exceeds it
    assert SchurInstance(2000, 4).n == 2000
    with pytest.raises(ValueError, match=str(TRANSITION_CAP)):
        SchurInstance(2001, 4)
    # n variables of k values each: n*k may reach the cap, not exceed it
    assert SchurInstance(1000, 1000).k == 1000
    with pytest.raises(ValueError, match=str(TRANSITION_CAP)):
        SchurInstance(5, 400_000)


@pytest.mark.parametrize("n, k", [(True, 3), (13, True), (13.5, 3), (13, 2.0)])
def test_instance_refuses_sizes_that_are_not_an_int(n, k):
    with pytest.raises(ValueError, match="must be an int"):
        SchurInstance(n, k)


def test_posting_a_triple_keeps_no_object_alive():
    """Not-all-equal is an engine rule: a posted triple leaves only its
    entries in the three ``nae_pairs`` lists, about 51 B on CPython 3.11,
    where an object per triple kept in ``model.propagators`` left 164 B."""
    m = Model()
    xs = [m.add_fd_var(range(1, 4)) for _ in range(300)]
    triples = list(sum_triples(300))
    assert len(triples) == 22_500
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for a, b, c in triples:
            m.post_nae(xs[a - 1], xs[b - 1], xs[c - 1])
        live = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert m.posted_counts == {"user": 22_500} and not m.propagators
    assert live / len(triples) < 100


def test_small_satisfiable_and_unsatisfiable():
    row, res = run_one(SchurInstance(4, 2), sym="none")
    assert res.stats.solutions > 0
    row, res = run_one(SchurInstance(5, 2), sym="none")
    assert res.stats.solutions == 0


def test_no_symmetry_solutions_match_brute_force():
    for n, k in ((4, 2), (5, 2), (6, 3)):
        _, res = run_one(SchurInstance(n, k), sym="none")
        assert sorted(res.solutions) == brute_force_schur(n, k)


def test_satisfiability_invariant_across_sym_modes():
    for n, k in ((4, 2), (5, 2), (8, 3)):
        sats = []
        for sym in ("none", "adjacent", "all"):
            _, res = run_one(SchurInstance(n, k), sym=sym)
            sats.append(res.stats.solutions > 0)
        assert len(set(sats)) == 1


def test_adjacent_mode_is_sound_but_weaker():
    n, k = 7, 3
    _, free = run_one(SchurInstance(n, k), sym="none")
    _, adj = run_one(SchurInstance(n, k), sym="adjacent")
    _, broke = run_one(SchurInstance(n, k), sym="all")
    # every canonical solution survives the adjacent decomposition
    assert set(broke.solutions) <= set(adj.solutions) <= set(free.solutions)


def test_backtrack_dominance_on_shared_heuristic():
    for n, k in ((7, 3), (8, 3)):
        bts = {}
        for sym in ("none", "adjacent", "all"):
            _, res = run_one(SchurInstance(n, k), sym=sym)
            bts[sym] = res.stats.backtracks
        assert bts["all"] <= bts["adjacent"] <= bts["none"]


def test_constraint_counts_split_user_and_encoding():
    inst = SchurInstance(13, 3)
    m, _ = build_schur_model(inst, sym="none")
    assert m.posted_counts.get("user", 0) == 42
    assert m.posted_counts.get("encoding", 0) == 0
    m, xs = build_schur_model(inst, sym="all")
    assert m.posted_counts.get("user", 0) == 42
    assert m.posted_counts.get("encoding", 0) == len(xs)


def test_budget_halts_row():
    row, _ = run_one(SchurInstance(20, 4), sym="none",
                     budget=Budget(max_nodes=10))
    assert row.halted
    text = format_table([row])
    lines = text.splitlines()
    assert lines[-1].split()[-1] == "yes"
    assert "-" in lines[-1].split()


def test_budget_seconds_count_the_build(monkeypatch):
    """A build that overruns the budget leaves the search no time: a halted
    row with 0 nodes."""
    build = schur.build_schur_model

    def slow_build(inst, sym="none"):
        time.sleep(0.05)
        return build(inst, sym)

    monkeypatch.setattr(schur, "build_schur_model", slow_build)
    row, res = run_one(SchurInstance(20, 4), sym="all",
                       budget=Budget(max_seconds=0.01))
    assert row.halted and res.halted
    assert (row.nodes, row.backtracks, row.solutions) == (0, 0, 0)
    assert (row.user_constraints, row.encoding_constraints) == (100, 20)


@pytest.mark.parametrize("var, backtracks", [("lex", 2497), ("mindom", 2496)])
def test_s44_4_budgeted_search_counts_pinned(var, backtracks):
    """The first 5,000 nodes of S(44,4) with full precedence, ascending values.

    Easy instances settle before a missed wake can change the search; on
    this one a propagator that is not woken when it could prune changes the
    backtrack count.
    """
    row, res = run_one(SchurInstance(44, 4), sym="all", mode="first",
                       budget=Budget(max_nodes=5000),
                       heuristic=Heuristic(var=var, val="asc"))
    assert (res.stats.nodes, res.stats.backtracks, res.halted) == (5000, backtracks, True)
    assert res.stats.solutions == 0
    assert (row.user_constraints, row.encoding_constraints) == (484, 44)


def test_s44_4_first_solution_counts_pinned():
    """The benchmark's headline search, S(44,4) with full precedence, lex-asc,
    to its first solution: the counts the engine must keep, without perfbench."""
    row, res = run_one(SchurInstance(44, 4), sym="all", mode="first",
                       heuristic=Heuristic(var="lex", val="asc"))
    assert (res.stats.nodes, res.stats.backtracks, res.stats.solutions) == (58_830, 29_409, 1)
    assert (row.user_constraints, row.encoding_constraints) == (484, 44)
    assert not res.halted
    (sol,) = res.solutions
    assert all(not (sol[a - 1] == sol[b - 1] == sol[a + b - 1])
               for a, b, _ in sum_triples(44))
    assert all_precedence_holds([1, 2, 3, 4], sol)


def test_s45_4_unsat_proof_counts_pinned():
    """The complete S(45,4) search with full precedence, mindom-asc: the
    UNSAT proof visits every node, so a missed prune anywhere changes it."""
    row, res = run_one(SchurInstance(45, 4), sym="all", mode="all",
                       heuristic=Heuristic(var="mindom", val="asc"))
    assert (res.stats.nodes, res.stats.backtracks, res.stats.solutions) == (157_769, 78_885, 0)
    assert (row.user_constraints, row.encoding_constraints) == (506, 45)
    assert not res.halted


def test_csv_format_is_pinned():
    rows = [run_one(SchurInstance(4, 2), "none")[0]]
    text = rows_to_csv(rows)
    lines = text.splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert lines[0] == ("instance,sym,user_constraints,encoding_constraints,"
                        "backtracks,nodes,solutions,time_ms,halted")
    parsed = list(csv.reader(io.StringIO(text)))
    assert parsed[0] == list(CSV_COLUMNS)
    cells = parsed[1]
    assert cells[0] == "S(4,2)"
    assert cells[1] == "none"
    assert cells[-1] in ("true", "false")
    assert all(c.isdigit() for c in cells[2:8])
    assert text.endswith("\n")


def test_write_csv_round_trips(tmp_path):
    rows = [ReportRow(instance="S(4,2)", sym="none", user_constraints=4,
                      encoding_constraints=0, backtracks=1, nodes=9,
                      solutions=6, time_ms=2, halted=False)]
    path = tmp_path / "out.csv"
    write_csv(rows, str(path))
    assert path.read_text(encoding="utf-8") == rows_to_csv(rows)
    assert rows_to_csv(rows).splitlines()[1] == '"S(4,2)",none,4,0,1,9,6,2,false'


def test_format_table_alignment_and_header():
    rows = [run_one(SchurInstance(4, 2), sym)[0] for sym in ("none", "all")]
    text = format_table(rows)
    lines = text.splitlines()
    assert lines[0].split() == ["instance", "sym", "user", "encoding",
                                "backtracks", "nodes", "solutions",
                                "time_ms", "halted"]
    assert len(lines) == 3
