"""Acceptance suite: seven criteria, one verdict line each.

Each test prints `CRITERION <k>: PASS|FAIL` before asserting, so the verdict
survives in captured output either way.  Criterion 1 replays the six fixed
witness instances; each one also checks its chain fixpoint against the
brute-force oracle on the same instance.  Criterion 2 makes that comparison
through ``fuzz.sweep`` on every small instance and through
``fuzz.check_fd_instance``/``check_set_instance`` on random larger ones.
"""
import itertools
import math
import random
import runpy
import statistics
from pathlib import Path

from valprec.engine import Model, PropagationStatus
from valprec.fuzz import (check_fd_instance, check_set_instance, on_set_bits,
                          post_encoding, predicate_for, set_bits_holds, sweep)
from valprec.oracle import (
    all_precedence_holds,
    enumerate_orbits,
    increasing_seq_holds,
    partition_precedence_holds,
    wreath_precedence_holds,
)
from valprec.precedence import (
    encode_pair_precedence,
    encode_reflection_lex,
    encode_rotation_lex,
    encode_set_precedence,
)
from valprec.schur import SchurInstance, run_one
from valprec.search import Budget
from valprec.symmetry import (
    FullInterchange,
    PairInterchange,
    PartitionInterchange,
    WreathInterchange,
    assignment_orbit,
    value_permutations,
    variable_permutations,
)
from valprec.verify import format_report, verify_theorems

AT_FIXPOINT = PropagationStatus.AT_FIXPOINT


def _verdict(num: int, ok: bool, detail: str = "") -> None:
    line = f"CRITERION {num}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


# --------------------------------------------------------------- criterion 1


def test_criterion_1_fixed_witness_instances():
    """All six fixed witness instances reproduce their documented outcomes."""
    report = verify_theorems()
    print(format_report(report))
    _verdict(1, report.ok,
             f"{sum(it.ok for it in report.items)}/6 witness outcomes hold, "
             "each chain fixpoint checked against the oracle")


# --------------------------------------------------------------- criterion 2


FD_SWEEPS = [
    ("pair", PairInterchange(1, 2), (1, 2, 3, 4)),
    ("full m=1", FullInterchange((1,)), (1, 2, 3, 4)),
    ("full m=2", FullInterchange((1, 2)), (1, 2, 3, 4)),
    ("full m=3", FullInterchange((1, 2, 3)), (1, 2, 3, 4)),
    ("partition 2+2", PartitionInterchange(((1, 2), (3, 4))), (1, 2, 3, 4)),
    ("partition 2+1", PartitionInterchange(((1, 2), (3,))), (1, 2, 3, 4)),
    ("wreath 2x2", WreathInterchange((1, 2), (3, 4)), (0, 1, 2, 3)),
]


def _random_fd_round(rng):
    """One random larger instance per finite-domain family."""
    out = []
    d = 5
    n = 5
    universe = list(range(1, d + 1))

    def doms():
        return [set(rng.sample(universe, rng.randint(1, d))) for _ in range(n)]

    a, b = rng.sample(universe, 2)
    out.append((PairInterchange(a, b), doms()))
    vals = tuple(rng.sample(universe, rng.randint(2, 3)))
    out.append((FullInterchange(vals), doms()))
    pool = rng.sample(universe, 4)
    out.append((PartitionInterchange((tuple(pool[:2]), tuple(pool[2:]))), doms()))
    wdoms = [set(rng.sample(range(4), rng.randint(1, 4))) for _ in range(n)]
    out.append((WreathInterchange((1, 2), (3, 4)), wdoms))
    return out


def test_criterion_2_oracle_equivalence():
    """Encoding fixpoints equal definition-based GAC, with no divergence.

    A set instance is checked on its sets' 0/1 bits, where GAC is lb/ub
    bound consistency on the sets.
    """
    failures = []
    checked = 0

    for name, spec, universe in FD_SWEEPS:
        for n in range(1, 5):
            c, mis = sweep(lambda m, xs: post_encoding(m, spec, xs),
                           predicate_for(spec), universe, n)
            checked += c
            if mis:
                failures.append(f"{name} n={n}: {len(mis)} divergences, "
                                f"first {mis[0][0]}")

    for values in ([0, 1, 2], [0, 1]):
        for n in range(1, 4):
            # every (lb, ub) pair of n sets over {0, 1, 2}, on the sets' bits
            c, mis = sweep(on_set_bits(lambda m, sets: encode_set_precedence(m, values, sets),
                                       [0, 1, 2], n),
                           set_bits_holds(values, [0, 1, 2], n), (0, 1), 3 * n)
            checked += c
            if mis:
                failures.append(f"set {values} n={n}: {len(mis)} divergences")

    rng = random.Random(20260814)
    random_fd = 0
    while random_fd < 300:
        for spec, doms in _random_fd_round(rng):
            agree, enc, orc = check_fd_instance(spec, doms)
            if not agree:
                failures.append(f"random fd {spec}: {doms} -> {enc} vs {orc}")
        random_fd += 1
    checked += 4 * random_fd

    random_set = 0
    for _ in range(300):
        n = 4
        bounds = []
        for _ in range(n):
            ub = {v for v in (0, 1, 2) if rng.random() < 0.7}
            lb = {v for v in ub if rng.random() < 0.3}
            bounds.append((lb, ub))
        values = rng.sample((0, 1, 2), rng.randint(2, 3))
        agree, enc, orc = check_set_instance(values, bounds)
        if not agree:
            failures.append(f"random set {values}: {bounds} -> {enc} vs {orc}")
        random_set += 1
    checked += random_set

    detail = f"{checked} instances checked"
    if failures:
        detail += "; " + "; ".join(failures[:3])
    _verdict(2, not failures, detail)


# --------------------------------------------------------------- criterion 3


def test_criterion_3_one_canonical_member_per_orbit():
    """Every symmetry orbit keeps exactly one member under its breaker.

    ``enumerate_orbits`` partitions each group's assignments explicitly, the
    joint position x value group of the increasing-sequence rule included.
    """
    classes = ((1, 2), (3,))
    wspec = WreathInterchange((1, 2), (3, 4))
    # (name, universe, value group, position group, rule)
    rows = []
    for m in (1, 2, 3):
        values = tuple(range(1, m + 1))
        rows.append((f"full m={m}", values, FullInterchange(values), "none",
                     lambda t, v=values: all_precedence_holds(v, t)))
    rows.append(("partition", (1, 2, 3), PartitionInterchange(classes), "none",
                 lambda t: partition_precedence_holds(classes, t)))
    rows.append(("wreath", range(4), wspec, "none",
                 lambda t: wreath_precedence_holds(wspec, t)))
    for m in (1, 2, 3):
        values = tuple(range(1, m + 1))
        rows.append((f"incr-seq m={m}", values, FullInterchange(values), "full",
                     lambda t, v=values: increasing_seq_holds(v, t)))

    checks = []
    for name, universe, spec, group, holds in rows:
        for n in range(1, 7):
            orbits = enumerate_orbits(itertools.product(universe, repeat=n),
                                      spec, group)
            checks.append((f"{name} n={n}",
                           all(sum(map(holds, orbit)) == 1 for orbit in orbits)))

    bad = [name for name, ok in checks if not ok]
    _verdict(3, not bad,
             f"{len(checks)} group sweeps" + (f"; failing: {bad}" if bad else ""))


# --------------------------------------------------------------- criterion 4


def test_criterion_4_schur_reproduction():
    """Known Schur facts at n=13..15, within budget, with monotone backtracks."""
    problems = []
    budget = Budget(max_seconds=600.0)

    for n, sat in ((13, True), (14, False), (15, False)):
        rows = {}
        for sym in ("none", "adjacent", "all"):
            row, res = run_one(SchurInstance(n, 3), sym, mode="all", budget=budget)
            rows[sym] = row
            if row.halted:
                problems.append(f"S({n},3) {sym} halted")
            if row.time_ms >= 10_000:
                problems.append(f"S({n},3) {sym} took {row.time_ms}ms (>=10s)")
            if (row.solutions > 0) != sat:
                problems.append(f"S({n},3) {sym} solutions={row.solutions}")
        if not (rows["all"].backtracks <= rows["adjacent"].backtracks
                <= rows["none"].backtracks):
            problems.append(
                f"S({n},3) backtracks not monotone: "
                f"{rows['all'].backtracks}/{rows['adjacent'].backtracks}"
                f"/{rows['none'].backtracks}")

    for n in (13, 14, 15):
        rows = {}
        for sym in ("none", "adjacent", "all"):
            row, res = run_one(SchurInstance(n, 4), sym, mode="first",
                               budget=budget)
            rows[sym] = row
            if row.halted or row.time_ms >= 600_000:
                problems.append(f"S({n},4) {sym} exceeded budget")
            if row.solutions < 1:
                problems.append(f"S({n},4) {sym} found no solution")
        if not (rows["all"].backtracks <= rows["adjacent"].backtracks
                <= rows["none"].backtracks):
            problems.append(
                f"S({n},4) backtracks not monotone: "
                f"{rows['all'].backtracks}/{rows['adjacent'].backtracks}"
                f"/{rows['none'].backtracks}")

    _verdict(4, not problems, "; ".join(problems) if problems else
             "S(13,3) SAT, S(14..15,3) UNSAT under 10s; S(13..15,4) SAT; "
             "backtracks monotone under all/adjacent/none")


# --------------------------------------------------------------- criterion 5


def test_criterion_5_orbit_accounting_on_small_schur():
    """The chain's solutions are exactly the lex-least members of the free
    solutions' orbits."""
    bad = []
    for k in (1, 2, 3):
        spec = FullInterchange(tuple(range(1, k + 1)))
        for n in range(1, 9):
            _, free = run_one(SchurInstance(n, k), sym="none")
            _, broke = run_one(SchurInstance(n, k), sym="all")
            least = [min(orbit) for orbit in enumerate_orbits(free.solutions, spec)]
            if least != sorted(broke.solutions):
                bad.append(f"S({n},{k}): {len(least)} orbits, "
                           f"{len(broke.solutions)} chain solutions")
    _verdict(5, not bad,
             "24 instances, one chain solution per orbit, its lex-least member"
             if not bad else "; ".join(bad))


# --------------------------------------------------------------- criterion 6


def _sym_related(a, b, vperms, pperms):
    return tuple(b) in assignment_orbit(tuple(a), vperms, pperms)


def _satisfies_combined(t, lex_encoder):
    m = Model()
    xs = [m.add_fd_var({v}) for v in t]
    lex_encoder(m, xs)
    encode_pair_precedence(m, 1, 2, xs)
    return m.propagate() is AT_FIXPOINT


def test_criterion_6_documented_incompleteness_pairs():
    """The known symmetric pairs both survive the combined constraints."""
    vperms = value_permutations(FullInterchange((1, 2)))
    problems = []

    a, b = (1, 2, 2), (1, 1, 2)
    if not _sym_related(a, b, vperms, variable_permutations("reflection", 3)):
        problems.append("reflection pair not symmetric")
    for t in (a, b):
        if not _satisfies_combined(t, encode_reflection_lex):
            problems.append(f"reflection member {t} rejected")

    a, b = (1, 1, 2, 1, 2), (1, 2, 1, 2, 2)
    if not _sym_related(a, b, vperms, variable_permutations("rotation", 5)):
        problems.append("rotation pair not symmetric")
    for t in (a, b):
        if not _satisfies_combined(t, encode_rotation_lex):
            problems.append(f"rotation member {t} rejected")

    _verdict(6, not problems, "; ".join(problems) if problems else
             "both symmetric pairs kept: combined breaking is incomplete as "
             "documented")


# --------------------------------------------------------------- criterion 7


# criterion 7 times the chain as scripts/chain_timing.py does, with its function
chain_seconds = runpy.run_path(
    str(Path(__file__).resolve().parent.parent / "scripts" / "chain_timing.py")
)["chain_seconds"]


def test_criterion_7_linear_propagation_cost():
    """Pair-chain propagation scales close to linearly in sequence length."""
    ns = [100, 200, 400, 800]
    times = [chain_seconds(n, 4, 5)[1] for n in ns]  # (build, propagate)
    slope, _ = statistics.linear_regression(
        [math.log(n) for n in ns], [math.log(t) for t in times])
    detail = ", ".join(f"n={n}: {t * 1e3:.2f}ms" for n, t in zip(ns, times))
    _verdict(7, 0.5 <= slope <= 2.0, f"log-log slope {slope:.2f}; {detail}")
