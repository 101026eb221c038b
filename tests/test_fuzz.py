"""Randomized encoding-vs-oracle agreement harness."""
from itertools import combinations

import pytest

from valprec import fuzz
from valprec.fuzz import (
    FAMILIES,
    check,
    check_fd_instance,
    check_set_instance,
    format_fuzz,
    fuzz_equivalence,
    shrink,
)
from valprec.oracle import all_precedence_holds
from valprec.precedence import encode_pair_precedence
from valprec.symmetry import FullInterchange, PairInterchange


def test_positive_control_chain_agrees_on_known_instance():
    spec = FullInterchange(values=(1, 2, 3, 4))
    agree, enc, orc = check_fd_instance(
        spec, [{1}, {1, 2}, {1, 3}, {3, 4}])
    assert agree
    assert enc == orc == [{1}, {2}, {1, 3}, {3, 4}]


def test_negative_control_harness_detects_planted_weakness():
    # pairwise ordering posted under a full-interchange predicate must diverge
    doms = [{1}, {1, 2}, {1, 3}, {3, 4}]
    values = [1, 2, 3, 4]

    def pairwise(m, xs):
        for first, second in combinations(values, 2):
            encode_pair_precedence(m, first, second, xs)

    agree, weak, strong = check(pairwise, lambda t: all_precedence_holds(values, t), doms)
    assert weak is not None
    assert not agree


def test_set_check_compares_lb_ub_only():
    agree, enc, orc = check_set_instance(
        [0, 1, 2],
        [(set(), {0}), (set(), {1}), (set(), {1}), (set(), {0}), ({2}, {2})])
    assert agree
    assert enc[0] == ({0}, {0})


def test_shrinker_leaves_agreeing_instance_alone():
    spec = PairInterchange(first=1, second=2)
    doms = [{1, 2}, {1, 2}]
    assert check_fd_instance(spec, doms)[0]
    diverges = lambda case: not check_fd_instance(spec, case)[0]
    assert shrink(doms, lambda d: [d - {v} for v in d], diverges) == doms


# format_fuzz(fuzz_equivalence(seed=1, cases=200)) when the full-order and set
# encoders drop their last listed value; every divergence is shown shrunk.
PLANTED_WEAKNESS_REPORT = (
    "fuzz seed=1 cases=200\n"
    "  pair: 40 checked\n"
    "  full: 40 checked\n"
    "  partition: 40 checked\n"
    "  wreath: 40 checked\n"
    "  set: 40 checked\n"
    "23 divergence(s):\n"
    "  [set] values=[0, 1] bounds=[[]..[1]] -> encoding [[]..[1]] vs oracle [[]..[]]\n"
    "  [full] FullInterchange(values=(3, 4, 2)) domains={2} -> encoding {2} vs oracle failed\n"
    "  [full] FullInterchange(values=(2, 1)) domains={1} -> encoding {1} vs oracle failed\n"
    "  [full] FullInterchange(values=(2, 1, 5, 3)) domains={3} -> encoding {3} vs oracle failed\n"
    "  [set] values=[1, 2] bounds=[[2]..[2]] -> encoding [[2]..[2]] vs oracle failed\n"
    "  [full] FullInterchange(values=(3, 4, 1)) domains={1} -> encoding {1} vs oracle failed\n"
    "  [set] values=[2, 0, 1] bounds=[[]..[1]] -> encoding [[]..[1]] vs oracle [[]..[]]\n"
    "  [full] FullInterchange(values=(1, 2)) domains={2} -> encoding {2} vs oracle failed\n"
    "  [set] values=[2, 0, 1] bounds=[[]..[1]] -> encoding [[]..[1]] vs oracle [[]..[]]\n"
    "  [full] FullInterchange(values=(4, 1, 2)) domains={2} -> encoding {2} vs oracle failed\n"
    "  [set] values=[1, 0] bounds=[[0]..[0]] -> encoding [[0]..[0]] vs oracle failed\n"
    "  [full] FullInterchange(values=(2, 1)) domains={1} -> encoding {1} vs oracle failed\n"
    "  [set] values=[0, 1] bounds=[[2]..[1, 2]] -> encoding [[2]..[1, 2]] vs oracle [[2]..[2]]\n"
    "  [full] FullInterchange(values=(2, 3)) domains={3} -> encoding {3} vs oracle failed\n"
    "  [full] FullInterchange(values=(2, 3, 1, 4)) domains={4} -> encoding {4} vs oracle failed\n"
    "  [full] FullInterchange(values=(2, 5, 1)) domains={1} -> encoding {1} vs oracle failed\n"
    "  [set] values=[0, 1] bounds=[[1]..[1]] -> encoding [[1]..[1]] vs oracle failed\n"
    "  [set] values=[0, 1] bounds=[[]..[1]] -> encoding [[]..[1]] vs oracle [[]..[]]\n"
    "  [full] FullInterchange(values=(4, 3)) domains={3} -> encoding {3} vs oracle failed\n"
    "  [full] FullInterchange(values=(2, 4, 5)) domains={5} -> encoding {5} vs oracle failed\n"
    "  [full] FullInterchange(values=(2, 1)) domains={1} -> encoding {1} vs oracle failed\n"
    "  [full] FullInterchange(values=(2, 3, 1)) domains={1} -> encoding {1} vs oracle failed\n"
    "  [set] values=[0, 2, 1] bounds=[[1]..[1]] -> encoding [[1]..[1]] vs oracle failed\n"
)


def test_shrinker_reduces_divergent_instances(monkeypatch):
    post_encoding, encode_set_precedence = fuzz.post_encoding, fuzz.encode_set_precedence

    def weak_post_encoding(model, spec, xs):
        if isinstance(spec, FullInterchange):
            if len(spec.values) == 1:
                return
            spec = FullInterchange(spec.values[:-1])
        post_encoding(model, spec, xs)

    def weak_set_precedence(model, values, sets):
        if len(values) == 1:
            return
        encode_set_precedence(model, values[:-1], sets)

    monkeypatch.setattr(fuzz, "post_encoding", weak_post_encoding)
    monkeypatch.setattr(fuzz, "encode_set_precedence", weak_set_precedence)
    report = fuzz_equivalence(seed=1, cases=200)
    assert {d.family for d in report.divergences} == {"full", "set"}
    assert len(report.divergences) == 23
    assert format_fuzz(report) == PLANTED_WEAKNESS_REPORT


def test_fuzz_run_is_clean_and_covers_families():
    report = fuzz_equivalence(seed=1, cases=100)
    assert report.ok
    assert report.divergences == []
    assert sum(report.checked.values()) == 100
    assert set(report.checked) == set(FAMILIES)


def test_fuzz_is_deterministic_for_fixed_seed():
    a = format_fuzz(fuzz_equivalence(seed=7, cases=60))
    b = format_fuzz(fuzz_equivalence(seed=7, cases=60))
    assert a == b


def test_fuzz_report_format():
    text = format_fuzz(fuzz_equivalence(seed=3, cases=25))
    lines = text.splitlines()
    assert lines[0] == "fuzz seed=3 cases=25"
    assert lines[-1] == "no divergences"


@pytest.mark.parametrize("cases", [0, -5, True, 2.5])
def test_fuzz_refuses_non_positive_cases(cases):
    with pytest.raises(ValueError, match="positive"):
        fuzz_equivalence(seed=1, cases=cases)


@pytest.mark.parametrize("seed", [True, 1.5])
def test_fuzz_refuses_non_int_seed(seed):
    with pytest.raises(ValueError, match="seed"):
        fuzz_equivalence(seed=seed, cases=1)
