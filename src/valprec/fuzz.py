"""Encoding fixpoints checked against the oracle's GAC by definition.

``check`` is the one comparison: ``fd_fixpoint`` propagates a post step to
fixpoint, and the result is compared with the GAC of a predicate.
``check_fd_instance`` makes it for one symmetry family's chain,
``check_set_instance`` for a set instance on its sets' 0/1 bits (where GAC
is lb/ub bound consistency), and ``sweep`` on every combination of small
domains.  The witnesses in ``verify`` build their models through
``fd_fixpoint`` too.  ``fuzz_equivalence`` draws random cases, and reduces
any divergence by the one greedy ``shrink`` (drop an entry, then narrow one:
a domain loses a value, a set's ub loses an element outside its lb) before
reporting it.  Fixed seed means byte-identical reports.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import chain, combinations, product
from typing import Callable, Iterable, Optional, Sequence

from .engine import IntVar, Model, PropagationStatus, SetVar, mask_values
from .oracle import (all_precedence_holds, enumerate_solutions, gac_by_definition,
                     pair_precedence_holds, partition_precedence_holds,
                     set_precedence_holds, wreath_precedence_holds)
from .precedence import (encode_all_precedence, encode_pair_precedence,
                         encode_partial_precedence, encode_set_precedence,
                         encode_wreath_precedence)
from .symmetry import (FullInterchange, PairInterchange, PartitionInterchange,
                       SymmetrySpec, WreathInterchange)

FD_FAMILIES = ("pair", "full", "partition", "wreath")
MAX_N = 5  # most variables in a random finite-domain case
MAX_D = 5  # most values in a random finite-domain case
FAMILIES = FD_FAMILIES + ("set",)


def predicate_for(spec: SymmetrySpec):
    """Ground predicate of the precedence rule this symmetry induces."""
    if isinstance(spec, PairInterchange):
        return lambda t: pair_precedence_holds(spec.first, spec.second, t)
    if isinstance(spec, FullInterchange):
        return lambda t: all_precedence_holds(spec.values, t)
    if isinstance(spec, PartitionInterchange):
        return lambda t: partition_precedence_holds(spec.classes, t)
    if isinstance(spec, WreathInterchange):
        return lambda t: wreath_precedence_holds(spec, t)
    raise TypeError(f"no predicate for {spec!r}")


def post_encoding(model: Model, spec: SymmetrySpec, xs) -> None:
    if isinstance(spec, PairInterchange):
        encode_pair_precedence(model, spec.first, spec.second, xs)
    elif isinstance(spec, FullInterchange):
        encode_all_precedence(model, list(spec.values), xs)
    elif isinstance(spec, PartitionInterchange):
        encode_partial_precedence(model, [list(c) for c in spec.classes], xs)
    elif isinstance(spec, WreathInterchange):
        encode_wreath_precedence(model, list(spec.outer), list(spec.inner), xs)
    else:
        raise TypeError(f"no encoding for {spec!r}")


def fd_fixpoint(domains: Sequence[set[int]],
                post: Callable[[Model, list[IntVar]], object]) -> Optional[list[set[int]]]:
    """Domains after ``post(model, xs)`` on fresh variables and propagation, or None."""
    model = Model()
    xs = [model.add_fd_var(d) for d in domains]
    post(model, xs)
    if model.propagate() is PropagationStatus.FAILED:
        return None
    return [set(mask_values(x.mask)) for x in xs]


SetInstance = list[tuple[set[int], set[int]]]

# A set instance over a universe of elements is checked on its sets' bits:
# one 0/1 domain per (set, element), row by row.  GAC on the bits is lb/ub
# bound consistency on the sets: lb holds the bits that are 1 in every
# support, ub the bits that are 1 in some.


def set_bits(bounds: SetInstance, universe: Sequence[int]) -> list[set[int]]:
    """{1} for an element of lb, {0, 1} for one of ub - lb, {0} for any other."""
    return [{1} if v in lb else {0, 1} if v in ub else {0}
            for lb, ub in bounds for v in universe]


def _rows(flat: Sequence, universe: Sequence[int], n: int) -> list[dict]:
    """``flat`` cut into ``n`` rows, one per set, each keyed by element."""
    w = len(universe)
    return [dict(zip(universe, flat[i * w:(i + 1) * w])) for i in range(n)]


def on_set_bits(post: Callable[[Model, list[SetVar]], object],
                universe: Sequence[int], n: int) -> Callable[[Model, list[IntVar]], object]:
    """A post step for ``fd_fixpoint`` on ``n`` sets' bits that calls
    ``post(model, sets)`` on the sets made of them."""
    def post_bits(model: Model, xs: list[IntVar]):
        return post(model, [SetVar(row, f"s{i}")
                            for i, row in enumerate(_rows(xs, universe, n))])
    return post_bits


def set_bits_holds(values: Sequence[int], universe: Sequence[int], n: int):
    """``set_precedence_holds`` on ``n`` sets given by their bits."""
    return lambda t: set_precedence_holds(
        values, [frozenset(v for v, b in row.items() if b)
                 for row in _rows(t, universe, n)])


def check(post: Callable[[Model, list[IntVar]], object], pred: Callable[[tuple], bool],
          domains: Sequence[set[int]]):
    """(agree, ``post``'s fixpoint, GAC of ``pred``) on ``domains``; None where either fails."""
    enc = fd_fixpoint(domains, post)
    orc = gac_by_definition(pred, domains)
    return enc == orc, enc, orc


def check_fd_instance(spec: SymmetrySpec, domains: Sequence[set[int]]):
    """(agree, encoding fixpoint, oracle GAC) for one finite-domain instance."""
    return check(lambda model, xs: post_encoding(model, spec, xs), predicate_for(spec),
                 domains)


def check_set_instance(values: Sequence[int], bounds: SetInstance):
    """(agree, encoding bounds, oracle bounds) for one set instance.

    Both sides are computed on the sets' bits and read back as (lb, ub) pairs.
    """
    universe = sorted(set(values).union(*(ub for _, ub in bounds)))
    n = len(bounds)

    def read_bounds(doms: Optional[list[set[int]]]) -> Optional[SetInstance]:
        if doms is None:
            return None
        return [({v for v, d in row.items() if 0 not in d},
                 {v for v, d in row.items() if 1 in d})
                for row in _rows(doms, universe, n)]

    agree, enc, orc = check(
        on_set_bits(lambda model, sets: encode_set_precedence(model, values, sets),
                    universe, n),
        set_bits_holds(values, universe, n), set_bits(bounds, universe))
    return agree, read_bounds(enc), read_bounds(orc)


def sweep(post: Callable[[Model, list[IntVar]], object], pred: Callable[[tuple], bool],
          universe: Sequence[int], n: int):
    """``check`` on every combination of domains, with one model for them all.

    ``post(model, xs)`` posts on ``n`` variables over ``universe``, and a
    combination gives each of them a non-empty subset of it: push a choice
    point, retain the combination, propagate, pop.  The oracle side indexes
    the solutions on full domains by (position, value), as big-int masks of
    solution ids, so a combination costs one AND per position.  Returns
    (checked, mismatches); a mismatch is (combination, fixpoint, oracle GAC).
    """
    m = Model()
    xs = [m.add_fd_var(universe) for _ in range(n)]
    post(m, xs)
    if m.propagate() is PropagationStatus.FAILED:
        raise AssertionError("encoding fails on full domains")
    root = [x.mask for x in xs]

    # has[i][v] = mask of the ids of the solutions with t[i] == v
    has = [dict.fromkeys(universe, 0) for _ in range(n)]
    for sid, t in enumerate(enumerate_solutions(pred, [set(universe)] * n)):
        for i, v in enumerate(t):
            has[i][v] |= 1 << sid

    subsets = [frozenset(c) for r in range(1, len(universe) + 1)
               for c in combinations(sorted(universe), r)]
    checked = 0
    mismatches = []
    for combo in product(subsets, repeat=n):
        m.push_choice()
        alive = all(m.retain_values(x, keep) for x, keep in zip(xs, combo))
        if alive and m.propagate() is not PropagationStatus.FAILED:
            enc = [set(mask_values(x.mask)) for x in xs]
        else:
            enc = None
        m.pop_choice()

        # the masks of one position are disjoint, so their sum is their union
        surv = -1
        for i, keep in enumerate(combo):
            surv &= sum(has[i][v] for v in keep)
        orc = [{v for v, ids in has[i].items() if ids & surv}
               for i in range(n)] if surv else None

        if enc != orc:
            mismatches.append((combo, enc, orc))
        checked += 1
    assert [x.mask for x in xs] == root
    return checked, mismatches


# ------------------------------------------------------------------ shrinking


def shrink(case: list, narrower: Callable[[object], Iterable],
           diverges: Callable[[list], bool]) -> list:
    """Greedily move to the first smaller case that still diverges, until none does.

    Smaller cases are tried in a fixed order: ``case`` with one entry dropped
    (never down to no entry), then with one entry replaced by each of
    ``narrower(entry)``, entry by entry.
    """
    while True:
        drops = [case[:i] + case[i + 1:] for i in range(len(case))] if len(case) > 1 else []
        narrowings = (case[:i] + [e] + case[i + 1:]
                      for i, entry in enumerate(case) for e in narrower(entry))
        smaller = next((c for c in chain(drops, narrowings) if diverges(c)), None)
        if smaller is None:
            return case
        case = smaller


def _narrow_domain(domain: set[int]) -> list[set[int]]:
    """The domain with one value dropped, for each value; none for a singleton."""
    return [domain - {v} for v in sorted(domain)] if len(domain) > 1 else []


def _narrow_bounds(bounds: tuple[set[int], set[int]]) -> list[tuple[set[int], set[int]]]:
    """The bounds with one element of ub - lb dropped from ub, for each one."""
    lb, ub = bounds
    return [(lb, ub - {v}) for v in sorted(ub - lb)]


# ------------------------------------------------------------------ reporting


def render_domains(doms) -> str:
    if doms is None:
        return "failed"
    return " ".join("{" + ",".join(map(str, sorted(d))) + "}" for d in doms)


def _render_bounds(bounds) -> str:
    if bounds is None:
        return "failed"
    return " ".join(f"[{sorted(lb)}..{sorted(ub)}]" for lb, ub in bounds)


@dataclass
class Divergence:
    family: str
    description: str


@dataclass
class FuzzReport:
    seed: int
    cases: int
    checked: dict[str, int] = field(default_factory=dict)
    divergences: list[Divergence] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.divergences


def format_fuzz(report: FuzzReport) -> str:
    lines = [f"fuzz seed={report.seed} cases={report.cases}"]
    for fam in FAMILIES:
        if fam in report.checked:
            lines.append(f"  {fam}: {report.checked[fam]} checked")
    if report.ok:
        lines.append("no divergences")
    else:
        lines.append(f"{len(report.divergences)} divergence(s):")
        for d in report.divergences:
            lines.append(f"  [{d.family}] {d.description}")
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------- generation

# A random case comes with what the case loop needs to know of its kind:
# (label, entries, checker, narrowing step, renderer).


def _random_domains(rng: random.Random, n: int, universe: Sequence[int]) -> list[set[int]]:
    pool = list(universe)
    return [set(rng.sample(pool, rng.randint(1, len(pool)))) for _ in range(n)]


def _random_fd_case(rng: random.Random, family: str):
    n = rng.randint(1, MAX_N)
    if family == "pair":
        d = rng.randint(2, MAX_D)
        first, second = rng.sample(range(1, d + 1), 2)
        spec = PairInterchange(first, second)
        universe = range(1, d + 1)
    elif family == "full":
        d = rng.randint(1, MAX_D)
        m = rng.randint(1, min(d, 4))
        spec = FullInterchange(tuple(rng.sample(range(1, d + 1), m)))
        universe = range(1, d + 1)
    elif family == "partition":
        d = rng.randint(2, MAX_D)
        m = rng.randint(2, min(d, 4))
        listed = rng.sample(range(1, d + 1), m)
        split = rng.randint(1, m - 1)
        spec = PartitionInterchange(
            (tuple(listed[:split]), tuple(listed[split:])))
        universe = range(1, d + 1)
    elif family == "wreath":
        spec = WreathInterchange(outer=(1, 2), inner=(1, 2))
        universe = range(4)
    else:
        raise ValueError(family)
    return (f"{spec} domains=", _random_domains(rng, n, list(universe)),
            lambda case: check_fd_instance(spec, case), _narrow_domain, render_domains)


def _random_set_case(rng: random.Random):
    n = rng.randint(1, 3)
    d = rng.randint(1, 3)
    universe = list(range(d))
    m = rng.randint(1, d)
    values = rng.sample(universe, m)
    bounds: SetInstance = []
    for _ in range(n):
        lb, ub = set(), set()
        for v in universe:
            r = rng.random()
            if r < 0.2:
                lb.add(v)
                ub.add(v)
            elif r < 0.7:
                ub.add(v)
        bounds.append((lb, ub))
    return (f"values={values} bounds=", bounds,
            lambda case: check_set_instance(values, case), _narrow_bounds, _render_bounds)


def fuzz_equivalence(seed: int, cases: int) -> FuzzReport:
    """Run ``cases`` random equivalence checks, rotating through the families."""
    if cases <= 0:
        raise ValueError(f"cases must be positive, got {cases}")
    rng = random.Random(seed)
    report = FuzzReport(seed=seed, cases=cases)
    for i in range(cases):
        family = FAMILIES[i % len(FAMILIES)]
        report.checked[family] = report.checked.get(family, 0) + 1
        label, case, check, narrower, render = (
            _random_set_case(rng) if family == "set" else _random_fd_case(rng, family))
        if not check(case)[0]:
            small = shrink(case, narrower, lambda c: not check(c)[0])
            _, enc, orc = check(small)
            report.divergences.append(Divergence(
                family, f"{label}{render(small)} -> "
                        f"encoding {render(enc)} vs oracle {render(orc)}"))
    return report
