"""Randomized equivalence checking of encoding fixpoints against the oracle.

One case = one random instance of one symmetry family.  The chain encoding is
propagated to fixpoint and compared with the definition-based oracle (GAC for
finite-domain families, lb/ub bound consistency for sets).  Any divergence is
shrunk greedily (drop a variable, then drop single values) before reporting.
Fixed seed means byte-identical reports.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

from .engine import Model, PropagationStatus
from .oracle import (SetBounds, all_precedence_holds,
                     bc_by_definition, gac_by_definition,
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


def fd_fixpoint(spec: SymmetrySpec,
                domains: Sequence[set[int]]) -> Optional[list[set[int]]]:
    model = Model()
    xs = [model.add_fd_var(d) for d in domains]
    post_encoding(model, spec, xs)
    if model.propagate() is PropagationStatus.FAILED:
        return None
    return [set(x.domain) for x in xs]


def check_fd_instance(spec: SymmetrySpec, domains: Sequence[set[int]]):
    """(agree, encoding fixpoint, oracle GAC) for one finite-domain instance."""
    enc = fd_fixpoint(spec, domains)
    orc = gac_by_definition(predicate_for(spec), domains)
    return enc == orc, enc, orc


SetInstance = list[tuple[set[int], set[int]]]


def set_fixpoint(values: Sequence[int],
                 bounds: SetInstance) -> Optional[list[tuple[set[int], set[int]]]]:
    model = Model()
    svars = [model.add_set_var(lb, ub) for lb, ub in bounds]
    encode_set_precedence(model, values, svars)
    if model.propagate() is PropagationStatus.FAILED:
        return None
    return [(set(s.lb), set(s.ub)) for s in svars]


def check_set_instance(values: Sequence[int], bounds: SetInstance):
    """(agree, encoding bounds, oracle bounds), comparing lb/ub only.

    Cardinality is excluded from the comparison: the characteristic-matrix
    encoding does not reason about cardinalities, and with cardinality bounds
    present completeness is out of scope anyway.
    """
    enc = set_fixpoint(values, bounds)
    orc_raw = bc_by_definition(
        lambda sets: set_precedence_holds(values, sets),
        [SetBounds(frozenset(lb), frozenset(ub)) for lb, ub in bounds])
    orc = None if orc_raw is None else [(set(sb.lb), set(sb.ub)) for sb in orc_raw]
    return enc == orc, enc, orc


# ------------------------------------------------------------------ shrinking


def shrink_fd(spec: SymmetrySpec, domains: list[set[int]]) -> list[set[int]]:
    cur = [set(d) for d in domains]
    improved = True
    while improved:
        improved = False
        for i in range(len(cur)):
            cand = cur[:i] + cur[i + 1:]
            if cand and not check_fd_instance(spec, cand)[0]:
                cur, improved = cand, True
                break
        if improved:
            continue
        for i in range(len(cur)):
            if len(cur[i]) <= 1:
                continue
            for v in sorted(cur[i]):
                cand = [set(d) for d in cur]
                cand[i].discard(v)
                if not check_fd_instance(spec, cand)[0]:
                    cur, improved = cand, True
                    break
            if improved:
                break
    return cur


def shrink_set(values: Sequence[int], bounds: SetInstance) -> SetInstance:
    cur = [(set(lb), set(ub)) for lb, ub in bounds]
    improved = True
    while improved:
        improved = False
        for i in range(len(cur)):
            cand = cur[:i] + cur[i + 1:]
            if cand and not check_set_instance(values, cand)[0]:
                cur, improved = cand, True
                break
        if improved:
            continue
        for i, (lb, ub) in enumerate(cur):
            for v in sorted(ub - lb):
                cand = [(set(a), set(b)) for a, b in cur]
                cand[i][1].discard(v)
                if not check_set_instance(values, cand)[0]:
                    cur, improved = cand, True
                    break
            if improved:
                break
    return cur


# ------------------------------------------------------------------ reporting


def _render_domains(doms) -> str:
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
    return spec, _random_domains(rng, n, list(universe))


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
    return values, bounds


def fuzz_equivalence(seed: int, cases: int) -> FuzzReport:
    """Run ``cases`` random equivalence checks, rotating through the families."""
    if cases <= 0:
        raise ValueError(f"cases must be positive, got {cases}")
    rng = random.Random(seed)
    report = FuzzReport(seed=seed, cases=cases)
    for i in range(cases):
        family = FAMILIES[i % len(FAMILIES)]
        report.checked[family] = report.checked.get(family, 0) + 1
        if family == "set":
            values, bounds = _random_set_case(rng)
            ok, _, _ = check_set_instance(values, bounds)
            if not ok:
                small = shrink_set(values, bounds)
                _, enc, orc = check_set_instance(values, small)
                report.divergences.append(Divergence(
                    family,
                    f"values={values} bounds={_render_bounds(small)} -> "
                    f"encoding {_render_bounds(enc)} vs oracle {_render_bounds(orc)}"))
        else:
            spec, domains = _random_fd_case(rng, family)
            ok, _, _ = check_fd_instance(spec, domains)
            if not ok:
                small = shrink_fd(spec, domains)
                _, enc, orc = check_fd_instance(spec, small)
                report.divergences.append(Divergence(
                    family,
                    f"{spec} domains={_render_domains(small)} -> "
                    f"encoding {_render_domains(enc)} vs oracle {_render_domains(orc)}"))
    return report
