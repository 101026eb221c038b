"""Fixed witness instances comparing each global chain against its decomposition.

Each item propagates a hand-picked instance through the chain encoding and
through the decomposition it is claimed to beat, then checks the documented
outcome.  Every item also checks the chain's fixpoint against the brute-force
oracle's GAC on the same instance (on the sets' 0/1 bits for set variables,
which is lb/ub bound consistency), so a recorded expectation cannot drift
from the definition of the constraint.  Every model, chain or decomposition,
is built and propagated by ``fuzz.fd_fixpoint``, and the chain-vs-oracle
check is the fuzzer's one comparison, ``fuzz.check``, through
``check_fd_instance``/``check_set_instance``.
"""
from __future__ import annotations

from itertools import combinations
from typing import Callable, Sequence

from .engine import Model, Record, mask_values
from .fuzz import (check_fd_instance, check_set_instance, fd_fixpoint,
                   on_set_bits, render_domains, set_bits)
from .oracle import all_precedence_holds, iterated_gac
from .precedence import (encode_all_precedence, encode_matrix_precedence,
                         encode_pair_precedence, encode_puget_surjection,
                         encode_set_precedence)
from .symmetry import FullInterchange, PartitionInterchange, WreathInterchange


class TheoremItem(Record):
    __slots__ = _fields = ("label", "ok", "expected", "observed")

    def __init__(self, label: str, ok: bool, expected: str, observed: str):
        self.label, self.ok, self.expected, self.observed = label, ok, expected, observed


class TheoremReport(Record):
    __slots__ = _fields = ("items",)

    def __init__(self, items: list[TheoremItem]):
        self.items = items

    @property
    def ok(self) -> bool:
        return all(it.ok for it in self.items)


def _per_group(encode: Callable[[Model, Sequence[int], list], object],
               groups: Sequence[Sequence[int]]):
    """A post step that calls ``encode(model, group, vars)`` once per value
    group."""
    def post(model: Model, xs: list) -> None:
        for group in groups:
            encode(model, group, xs)
    return post


def _post_pairwise(model: Model, values: Sequence[int], xs: list) -> None:
    """The full-order rule over values, split into one pair chain per pair."""
    for first, second in combinations(values, 2):
        encode_pair_precedence(model, first, second, xs)


def _check_full_vs_pairwise() -> TheoremItem:
    domains = [{1}, {1, 2}, {1, 3}, {3, 4}]
    values = (1, 2, 3, 4)

    agrees, full, oracle = check_fd_instance(FullInterchange(values), domains)
    pairwise = fd_fixpoint(domains, _per_group(_post_pairwise, [values]))

    ok = (agrees and full == [{1}, {2}, {1, 3}, {3, 4}]
          and pairwise == [set(d) for d in domains])
    return TheoremItem(
        label="full-order chain beats the pairwise decomposition",
        ok=ok,
        expected="chain and oracle prune 1 from X2; all-pairs decomposition "
                 "prunes nothing",
        observed=f"chain: {render_domains(full)}; oracle: {render_domains(oracle)}; "
                 f"pairwise: {render_domains(pairwise)}")


def _check_partition_vs_per_class() -> TheoremItem:
    domains = [set(range(1, 7)), set(range(1, 7)), set(range(1, 7)), {3}, {6}]
    classes = ((1, 2, 3), (4, 5, 6))

    agrees, joint, oracle = check_fd_instance(PartitionInterchange(classes), domains)
    per_class = fd_fixpoint(domains, _per_group(encode_all_precedence, classes))

    reference = iterated_gac(
        [lambda t, c=c: all_precedence_holds(c, t) for c in classes], domains)
    ok = (agrees and joint is None
          and per_class is not None and per_class == reference)
    return TheoremItem(
        label="class-wise chain detects joint infeasibility",
        ok=ok,
        expected="joint chain and oracle fail; per-class chains reach a "
                 "consistent fixpoint",
        observed=f"joint: {render_domains(joint)}; oracle: {render_domains(oracle)}; "
                 f"per-class: {render_domains(per_class)}")


def _check_wreath_vs_pairwise() -> TheoremItem:
    """The pair-value chain against the natural decomposition of its rule.

    The paper's abstract does not name the decomposition, so this uses the
    natural one, the spec's ``code_classes``: one full-order rule per outer
    value over its inner codes, plus a full-order rule over the first inner
    code of every outer value.  Their conjunction has the same solutions as
    ``wreath_precedence_holds``.
    It is posted twice: as one chain per rule, and with every rule split into
    pair chains.  Two outer by two inner values admit no separating instance
    of up to four variables, so this one has three outer values.
    """
    spec = WreathInterchange(outer=(1, 2, 3), inner=(3, 4))
    # <1,3>=0 <1,4>=1 <2,3>=2 <2,4>=3 <3,3>=4 <3,4>=5
    domains = [{0}, {0, 2}, {3, 4}, {2, 3}]
    rules = spec.code_classes

    agrees, chain, oracle = check_fd_instance(spec, domains)
    per_rule = fd_fixpoint(domains, _per_group(encode_all_precedence, rules))
    pairwise = fd_fixpoint(domains, _per_group(_post_pairwise, rules))

    unchanged = [set(d) for d in domains]
    ok = (agrees and chain == [{0}, {2}, {3, 4}, {2, 3}]
          and per_rule == unchanged and pairwise == unchanged)
    return TheoremItem(
        label="pair-value chain prunes where pairwise ordering is blind",
        ok=ok,
        expected="chain and oracle prune code 0 (pair <1,3>) from X2; "
                 "per-rule chains and their pairwise split prune nothing",
        observed=f"chain: {render_domains(chain)}; oracle: {render_domains(oracle)}; "
                 f"per-rule: {render_domains(per_rule)}; "
                 f"pairwise: {render_domains(pairwise)}")


def _check_matrix_vs_chain() -> TheoremItem:
    domains = [{1, 2}, {1, 2, 3}]
    values = (1, 2, 3)

    agrees, chain, oracle = check_fd_instance(FullInterchange(values), domains)
    matrix = fd_fixpoint(domains, _per_group(encode_matrix_precedence, [values]))

    ok = (agrees and chain == [{1}, {1, 2}]
          and matrix == [set(d) for d in domains])
    return TheoremItem(
        label="matrix channelling is weaker than the direct chain",
        ok=ok,
        expected="chain and oracle prune 2 from X1 and 3 from X2; "
                 "channelled matrix prunes neither",
        observed=f"chain: {render_domains(chain)}; oracle: {render_domains(oracle)}; "
                 f"matrix: {render_domains(matrix)}")


def _check_set_chain_vs_pairwise() -> TheoremItem:
    values = [0, 1, 2]
    bounds = [(set(), {0}), (set(), {1}), (set(), {1}), (set(), {0}), ({2}, {2})]

    agrees, chain, oracle = check_set_instance(values, bounds)
    tightened = chain is not None and chain[0][0] == {0}

    bits = set_bits(bounds, values)
    pairwise = fd_fixpoint(bits, on_set_bits(
        _per_group(encode_set_precedence, list(combinations(values, 2))),
        values, len(bounds)))
    unchanged = pairwise == bits

    def s1(bnds) -> str:
        if bnds is None:
            return "failed"
        lb, ub = bnds[0]
        return f"lb(S1)={sorted(lb)} ub(S1)={sorted(ub)}"

    ok = agrees and tightened and unchanged
    return TheoremItem(
        label="set chain tightens bounds the pairwise ordering misses",
        ok=ok,
        expected="whole chain and oracle force S1 = {0}; pairwise orderings "
                 "change nothing",
        observed=f"chain: {s1(chain)}; oracle: {s1(oracle)}; "
                 f"pairwise unchanged: {unchanged}")


def _check_surjection_vs_chain() -> TheoremItem:
    domains = [{1}, {1, 2}, {1, 3}, {3, 4}, {2}, {3}, {4}]
    values = (1, 2, 3, 4)

    encodings = []
    surj = fd_fixpoint(domains, lambda model, xs: encodings.append(
        encode_puget_surjection(model, xs, values)))
    z_doms = [set(mask_values(z.mask)) for z in encodings[0].first_index]
    stated_z = [{1}, {2, 5}, {3, 4, 6}, {4, 7}]

    agrees, chain, oracle = check_fd_instance(FullInterchange(values), domains)

    ok = (surj == [set(d) for d in domains] and z_doms == stated_z
          and agrees and chain is not None and chain[1] == {2})
    return TheoremItem(
        label="first-index ordering misses chain pruning",
        ok=ok,
        expected="implications stay at the stated fixpoint with X2 untouched; "
                 "chain and oracle prune 1 from X2",
        observed=f"implication fixpoint X: {render_domains(surj)}, "
                 f"Z: {render_domains(z_doms)}; "
                 f"chain: {render_domains(chain)}; oracle: {render_domains(oracle)}")


def verify_theorems() -> TheoremReport:
    """Run all six witness instances and report each claim's outcome."""
    return TheoremReport(items=[
        _check_full_vs_pairwise(),
        _check_partition_vs_per_class(),
        _check_wreath_vs_pairwise(),
        _check_matrix_vs_chain(),
        _check_set_chain_vs_pairwise(),
        _check_surjection_vs_chain(),
    ])


def format_report(report: TheoremReport) -> str:
    lines = []
    for it in report.items:
        status = "PASS" if it.ok else "FAIL"
        lines.append(f"{status}  {it.label}")
        lines.append(f"      expected: {it.expected}")
        lines.append(f"      observed: {it.observed}")
    lines.append(f"{sum(it.ok for it in report.items)}/{len(report.items)} witness checks hold")
    return "\n".join(lines) + "\n"
