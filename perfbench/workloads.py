"""The benchmark's workloads: what each builds and runs, and how it is checked.

Every call into valprec goes through a module attribute
(``search.solve``, ``schur.build_schur_model``, ...) so that a traced run,
which patches those attributes, sees the same calls as an untraced one.

* ``schur-first``: S(44,4), sym=all, lex-asc, first solution.  The paper's
  headline search; its time is in search, the engine and ``NotAllEqual3``.
* ``wreath-enum``: the pair-value (wreath) chain, 5 outer x 5 inner codes over
  9 variables, enumerated lex-asc under a 2000-node budget.  Its time is in
  building the chain and in ``TernaryTable``; no ``NotAllEqual3`` at all.
* ``fuzz-oracle``: ``fuzz_equivalence`` against the brute-force oracle.
  Thousands of tiny models, each built and propagated once: the engine and
  the chains used the opposite way from the two searches.

The two search workloads are fixed instances with pinned counts, so their
inputs do not depend on the seed; the fuzz workload draws its cases from it.

Untraced runs repeat the same work in rounds for the whole window, with a
reference slice (``refclock``) after every fixed piece of work (a search
segment of ``segment_nodes`` nodes, a fuzz call); the work's total time over
the slices' mean time gives its length in reference units.  The fuzz
workload makes distinct calls for the whole window instead of rounds, so a
run averages over as many cases as fit in it.
"""
from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field
from typing import Optional

from valprec import engine, fuzz, oracle, precedence, schur, search
from valprec.symmetry import WreathInterchange

from layertrace import Tracer, count_tables, snapshot
from refclock import RefClock

perf = time.perf_counter


class Checks:
    """Correctness checks made during a run; each failure is kept by name."""

    def __init__(self):
        self.attempted = 0
        self.failed: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed.append(what)

    def pinned(self, pins: Optional[dict], got: dict) -> None:
        """Compare each pinned count with the one observed."""
        for key, want in (pins or {}).items():
            self.expect(got[key] == want, f"{key}: got {got[key]}, pinned {want}")


# ---------------------------------------------------------------- workloads


@dataclass(frozen=True)
class SchurFirst:
    """First solution of S(n,k) with one full-order precedence chain."""
    n: int = 44
    k: int = 4
    segment_nodes: int = 1000
    pins: Optional[dict] = field(default_factory=lambda: {
        "user": 484, "encoding": 44, "tables": 44,
        "nodes": 58_830, "backtracks": 29_409, "solutions": 1})

    def sizes(self) -> dict:
        return {"instance": f"S({self.n},{self.k})", "sym": "all",
                "heuristic": "lex-asc", "mode": "first"}

    def build(self):
        return schur.build_schur_model(schur.SchurInstance(self.n, self.k), "all")

    def search(self, model, xs, max_seconds=None):
        return search.solve(model, xs, search.Heuristic("lex", "asc"), mode="first",
                            budget=search.Budget(max_seconds=max_seconds))

    def check_solutions(self, result, checks: Checks) -> None:
        classes = list(range(1, self.k + 1))
        for sol in result.solutions:
            sum_free = all(not (sol[a - 1] == sol[b - 1] == sol[a + b - 1])
                           for a in range(1, self.n + 1)
                           for b in range(a, self.n - a + 1))
            checks.expect(sum_free, f"solution not sum-free: {sol}")
            checks.expect(oracle.all_precedence_holds(classes, sol),
                          f"solution breaks value precedence: {sol}")


@dataclass(frozen=True)
class WreathEnum:
    """Canonical pair-value assignments under the wreath chain, node-budgeted."""
    outer: int = 5
    inner: int = 5
    n: int = 9
    max_nodes: int = 2000
    segment_nodes: int = 250
    pins: Optional[dict] = field(default_factory=lambda: {
        "encoding": 9, "tables": 9, "tuples": 4_411,
        "nodes": 2000, "backtracks": 0, "solutions": 997})

    @property
    def spec(self) -> WreathInterchange:
        return WreathInterchange(tuple(range(1, self.outer + 1)),
                                 tuple(range(1, self.inner + 1)))

    def sizes(self) -> dict:
        return {"outer": self.outer, "inner": self.inner, "n": self.n,
                "heuristic": "lex-asc", "max_nodes": self.max_nodes}

    def build(self):
        spec = self.spec
        model = engine.Model()
        xs = [model.add_fd_var(spec.codes, name=f"X{i}") for i in range(self.n)]
        precedence.encode_wreath_precedence(model, spec.outer, spec.inner, xs)
        return model, xs

    def search(self, model, xs, max_seconds=None):
        return search.solve(model, xs, search.Heuristic("lex", "asc"), mode="all",
                            budget=search.Budget(max_seconds=max_seconds,
                                                 max_nodes=self.max_nodes))

    def check_solutions(self, result, checks: Checks) -> None:
        spec = self.spec
        sols = result.solutions
        checks.expect(all(a < b for a, b in zip(sols, sols[1:])),
                      "solutions not distinct and in lex-ascending order")
        for sol in sols:
            checks.expect(oracle.wreath_precedence_holds(spec, sol),
                          f"solution is not canonical: {sol}")


@dataclass(frozen=True)
class FuzzOracle:
    """Encoding fixpoints against the oracle, ``cases`` random cases per call."""
    cases: int = 500

    def sizes(self) -> dict:
        return {"cases_per_call": self.cases, "max_n": 5, "max_d": 5}

    @staticmethod
    def call_seed(seed: int, j: int) -> int:
        """Seed of the j-th fuzz call of a run with benchmark seed ``seed``."""
        return seed * 1_000_003 + j

    def run(self, seed: int):
        return fuzz.fuzz_equivalence(seed, self.cases)

    def check(self, report, checks: Checks) -> None:
        checks.expect(report.ok, f"fuzz seed {report.seed} diverged")
        checks.expect(sum(report.checked.values()) == self.cases,
                      f"fuzz seed {report.seed} checked {report.checked}")


WORKLOADS = {
    "schur-first": SchurFirst,
    "wreath-enum": WreathEnum,
    "fuzz-oracle": FuzzOracle,
}
# Model builds per run, for the median that setup_s reports.
SETUP_REPEATS = {"schur-first": 11, "wreath-enum": 11}


# ----------------------------------------------------- search workloads


def search_counts(model, result) -> dict:
    tables, tuples = count_tables(model.propagators)
    return {"user": model.posted_counts.get("user", 0),
            "encoding": model.posted_counts.get("encoding", 0),
            "tables": tables, "tuples": tuples,
            "nodes": result.stats.nodes, "backtracks": result.stats.backtracks,
            "solutions": result.stats.solutions}


def _solve_once(w, model, xs, checks: Checks):
    """Root propagation then one search; returns (root seconds, search seconds, result)."""
    t0 = perf()
    status = model.propagate()
    t1 = perf()
    result = w.search(model, xs)
    t2 = perf()
    checks.expect(status is engine.PropagationStatus.AT_FIXPOINT,
                  "root propagation failed")
    return t1 - t0, t2 - t1, result


def _check_search(w, model, result, checks: Checks) -> dict:
    counts = search_counts(model, result)
    checks.pinned(w.pins, counts)
    checks.expect(len(result.solutions) == result.stats.solutions,
                  "solution list and count disagree")
    w.check_solutions(result, checks)
    return counts


def _timed_search(w, model, xs, clock: RefClock, max_seconds=None):
    """One search with a reference slice every ``w.segment_nodes`` nodes.

    ``model.propagate`` runs once per search node, so it is shadowed on the
    instance by a counter that runs the slice.  Returns the result and the
    search's seconds without the slices.
    """
    propagate = model.propagate
    count = 0
    sliced = 0.0

    def counted():
        nonlocal count, sliced
        count += 1
        if count % w.segment_nodes == 0:
            sliced += clock.tick()
        return propagate()

    model.propagate = counted
    try:
        t0 = perf()
        result = w.search(model, xs, max_seconds)
        elapsed = perf() - t0
    finally:
        del model.propagate
    return result, elapsed - sliced


def measure_search(w, seconds: float, setups: int, checks: Checks) -> dict:
    """Build ``setups`` times, then search the last model in rounds for ``seconds``.

    Each build is followed by a reference slice, for its length in ref.

    The root propagation is done once; every later search starts from the
    same propagated root, so each one repeats the same nodes.  The first
    round always runs to its end and is checked against the pins; later
    rounds get the rest of the window as a time budget, and a round cut short
    by it counts with the nodes it made.  Models link back to themselves
    through watcher lists, so a dropped model is freed only by the cycle
    collector: it runs between builds, never inside a timed region.
    """
    builds, build_refs, setup_clock = [], [], RefClock()
    for _ in range(setups):
        model = xs = None
        gc.collect()
        t0 = perf()
        model, xs = w.build()
        builds.append(perf() - t0)
        build_refs.append(setup_clock.sample(builds[-1]))
    gc.collect()
    clock = RefClock()
    clock.tick()
    start = perf()
    status = model.propagate()
    root_s = perf() - start
    checks.expect(status is engine.PropagationStatus.AT_FIXPOINT,
                  "root propagation failed")
    first, search_s = _timed_search(w, model, xs, clock)
    _check_search(w, model, first, checks)
    whole, nodes, rounds = [search_s], first.stats.nodes, 1
    while (left := seconds - (perf() - start)) > 0:
        result, elapsed = _timed_search(w, model, xs, clock, left)
        if result.stats.nodes == first.stats.nodes:
            _check_search(w, model, result, checks)
            whole.append(elapsed)
        else:
            checks.expect(result.solutions == first.solutions[:len(result.solutions)],
                          "cut-short search found other solutions than a whole one")
        search_s += elapsed
        nodes += result.stats.nodes
        rounds += 1
    clock.tick()
    throughput = nodes / clock.to_ref(search_s)
    return {"build_s": builds, "build_ref": build_refs, "search_s": whole,
            "rounds": rounds, "slice_s": clock.slice_s(),
            "solve_ref": clock.to_ref(root_s) + first.stats.nodes / throughput,
            "throughput_per_ref": throughput}


def trace_search(w, checks: Checks) -> tuple[Tracer, float]:
    """One untraced and one traced build-and-solve; the counts must agree."""
    model, xs = w.build()
    root_s, search_s, result = _solve_once(w, model, xs, checks)
    plain = _check_search(w, model, result, checks)
    untraced_s = root_s + search_s
    model = xs = result = None
    gc.collect()

    tracer = Tracer()
    before = snapshot()
    with tracer.installed(), tracer.span("workload"):
        with tracer.span("build"):
            model, xs = w.build()
        with tracer.span("solve"):
            root_s, search_s, result = _solve_once(w, model, xs, checks)
    checks.expect(snapshot() == before, "patched functions not restored")
    traced = _check_search(w, model, result, checks)
    checks.expect(traced == plain, f"traced counts {traced} != untraced {plain}")
    seen = {"tables": tracer.counts.get("precedence.tables", 0),
            "tuples": tracer.counts.get("precedence.tuples", 0),
            "nodes": tracer.counts.get("search.nodes", 0),
            "backtracks": tracer.counts.get("search.backtracks", 0),
            "solutions": tracer.counts.get("search.solutions", 0)}
    checks.expect(seen == {k: plain[k] for k in seen},
                  f"layer counts {seen} != untraced {plain}")
    return tracer, (root_s + search_s) / untraced_s


# ------------------------------------------------------------ fuzz workload


def _fuzz_call(w: FuzzOracle, seed: int, j: int, checks: Checks):
    """Fuzz call j of benchmark seed ``seed``: (seconds, report)."""
    t0 = perf()
    report = w.run(w.call_seed(seed, j))
    elapsed = perf() - t0
    w.check(report, checks)
    return elapsed, report


def measure_fuzz(w: FuzzOracle, seed: int, seconds: float, checks: Checks) -> dict:
    """Fuzz calls 0, 1, 2, ... until ``seconds`` pass, a reference slice after each.

    The run then makes call 0 again; its report must be byte-identical.
    """
    clock = RefClock()
    clock.tick()
    call_s = []
    start = perf()
    while not call_s or perf() - start < seconds:
        elapsed, report = _fuzz_call(w, seed, len(call_s), checks)
        clock.tick()
        if not call_s:
            first = fuzz.format_fuzz(report)
        call_s.append(elapsed)
    again = _fuzz_call(w, seed, 0, checks)[1]
    checks.expect(fuzz.format_fuzz(again) == first,
                  "fuzz report differs for the same seed")
    solve_ref = clock.to_ref(sum(call_s)) / len(call_s)
    return {"call_s": call_s, "slice_s": clock.slice_s(), "solve_ref": solve_ref,
            "throughput_per_ref": w.cases / solve_ref}


def trace_fuzz(w: FuzzOracle, seed: int, calls: int, checks: Checks) -> tuple[Tracer, float]:
    """The same fuzz calls untraced and traced; reports must be byte-identical."""
    plain = [_fuzz_call(w, seed, j, checks) for j in range(calls)]
    tracer = Tracer()
    before = snapshot()
    traced = []
    with tracer.installed(), tracer.span("workload"):
        for j in range(calls):
            with tracer.span("fuzz"):
                traced.append(_fuzz_call(w, seed, j, checks))
    checks.expect(snapshot() == before, "patched functions not restored")
    checks.expect([fuzz.format_fuzz(r) for _, r in traced]
                  == [fuzz.format_fuzz(r) for _, r in plain],
                  "traced fuzz reports differ from untraced")
    divergences = sum(len(r.divergences) for _, r in plain)
    checks.expect(tracer.counts.get("fuzz.divergences", 0) == divergences,
                  "traced divergence count differs from untraced")
    return tracer, sum(t for t, _ in traced) / sum(t for t, _ in plain)
