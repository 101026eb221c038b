"""The fixed witness suite: what it reports, and which instances it avoids.

These tests pin the report of every witness instance.  They also keep two
instances that cannot show their claims, because on them the decomposition
is as strong as the chain (checked against the oracle here).  The wreath and
matrix witnesses in the report use other instances, on which the chain and
the oracle prune while the decomposition does not.
"""
from valprec.engine import Model, PropagationStatus
from valprec.fuzz import check_fd_instance
from valprec.precedence import encode_all_precedence, encode_matrix_precedence
from valprec.symmetry import WreathInterchange
from valprec.verify import TheoremReport, format_report, verify_theorems

AT_FIXPOINT = PropagationStatus.AT_FIXPOINT


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


def test_matrix_witness_instance_is_pruned_by_both_encodings():
    """Ground neighbours make the column ordering itself prune the middle."""
    doms = [{1}, {1, 2, 3}, {3}]
    for encode in (encode_all_precedence, encode_matrix_precedence):
        m = Model()
        xs = [m.add_fd_var(d) for d in doms]
        encode(m, [1, 2, 3], xs)
        assert m.propagate() is AT_FIXPOINT
        assert xs[1].domain == {2}


def test_matrix_gap_exists_on_a_different_instance():
    """The weakness claim itself is true, just not on the witness above."""
    doms = [{1, 2}, {1, 2, 3}]
    m = Model()
    xs = [m.add_fd_var(d) for d in doms]
    encode_matrix_precedence(m, [1, 2, 3], xs)
    assert m.propagate() is AT_FIXPOINT
    assert [set(x.domain) for x in xs] == doms

    m = Model()
    xs = [m.add_fd_var(d) for d in doms]
    encode_all_precedence(m, [1, 2, 3], xs)
    assert m.propagate() is AT_FIXPOINT
    assert [set(x.domain) for x in xs] == [{1}, {1, 2}]


def test_report_ok_property():
    good = TheoremReport(items=[])
    assert good.ok
