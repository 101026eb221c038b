"""The fixed witness suite: what it reports, and which instances it avoids.

These tests pin the report of every witness instance.  They also keep a
wreath instance that cannot show its claim, because on it the decomposition
is as strong as the chain (checked against the oracle here).  The wreath
witness in the report uses another instance, on which the chain and the
oracle prune while the decomposition does not.  The matrix witness's
instances are pinned in test_precedence.py.
"""
from valprec.fuzz import check_fd_instance
from valprec.symmetry import WreathInterchange
from valprec.verify import TheoremReport, format_report, verify_theorems


def test_report_shape_and_verdicts():
    report = verify_theorems()
    assert len(report.items) == 6
    verdicts = {it.label: it.ok for it in report.items}
    assert verdicts == {
        "full-order chain beats the pairwise decomposition": True,
        "class-wise chain detects joint infeasibility": True,
        "pair-value chain prunes where pairwise ordering is blind": True,
        "matrix channelling is weaker than the direct chain": True,
        "set chain tightens bounds the pairwise ordering misses": True,
        "first-index ordering misses chain pruning": True,
    }
    assert report.ok


def test_format_report_prints_one_line_per_item():
    report = verify_theorems()
    text = format_report(report)
    lines = text.splitlines()
    assert sum(line.startswith(("PASS", "FAIL")) for line in lines) == 6
    assert "6/6" in lines[-1]


def test_wreath_witness_instance_is_already_consistent():
    """The documented wreath witness admits a support for every value."""
    spec = WreathInterchange(outer=(1, 2), inner=(3, 4))
    doms = [{0}, {0, 1}, {0, 2}, {2, 3}]
    _, got, want = check_fd_instance(spec, doms)
    # the oracle keeps every value, so any sound propagator must too
    assert want == [set(d) for d in doms]
    assert got == want


def test_report_ok_property():
    good = TheoremReport(items=[])
    assert good.ok
