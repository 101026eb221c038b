"""The ``valprec`` names that ``perfbench/run.py`` calls all resolve.

The benchmark imports these by module and attribute; a refactor that moves
or renames one must fail here before it breaks a benchmark run.
"""
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import ENCODER_ARGS, encoder_args

NAMES = [
    ("valprec", "TernaryTable"),
    # the tracer wraps each class's own ``filter`` in place, and ``narrow``
    # is the one domain mutator a tracer of domain work has to wrap
    ("valprec.engine", "TernaryTable.filter"),
    ("valprec.engine", "Model.narrow"),
    ("valprec.engine", "Model"),
    *(("valprec.engine", f"Model.{method}")
      for method in ("add_fd_var", "add_set_var", "propagate", "push_choice",
                     "pop_choice")),
    ("valprec.engine", "Propagator"),
    ("valprec.engine", "SetVar"),
    ("valprec.engine", "PropagationStatus"),
    ("valprec.precedence", "encode_wreath_precedence"),
    ("valprec.oracle", "all_precedence_holds"),
    ("valprec.oracle", "wreath_precedence_holds"),
    ("valprec.oracle", "enumerate_solutions"),
    ("valprec.oracle", "gac_by_definition"),
    ("valprec.fuzz", "fuzz_equivalence"),
    ("valprec.fuzz", "format_fuzz"),
    ("valprec.fuzz", "check_fd_instance"),
    ("valprec.fuzz", "check_set_instance"),
    ("valprec.fuzz", "fd_fixpoint"),
    ("valprec.schur", "SchurInstance"),
    ("valprec.schur", "build_schur_model"),
    ("valprec.search", "solve"),
    ("valprec.search", "Heuristic"),
    ("valprec.search", "Budget"),
    ("valprec.symmetry", "WreathInterchange"),
]


@pytest.mark.parametrize("module, name", NAMES, ids=[f"{m}.{n}" for m, n in NAMES])
def test_benchmark_name_resolves(module, name):
    obj = importlib.import_module(module)
    for attr in name.split("."):
        obj = getattr(obj, attr)
    assert callable(obj)


def test_table_filter_is_defined_on_its_class():
    """The tracer wraps ``vars(cls)["filter"]``: an inherited filter would
    resolve above but go untraced."""
    from valprec.engine import TernaryTable
    assert "filter" in vars(TernaryTable)


def test_schur_model_lists_what_perfbench_counts():
    """perfbench reads ``model.propagators`` and ``posted_counts`` of a
    built model, attributes the name pins above cannot reach."""
    from valprec.engine import Propagator, TernaryTable
    from valprec.schur import SchurInstance, build_schur_model
    model, _ = build_schur_model(SchurInstance(44, 4), "all")
    props = model.propagators
    assert all(isinstance(p, Propagator) for p in props)
    assert [type(p) for p in props] == [TernaryTable] * 44
    assert sum(len(p.triples) for p in props) == 537
    assert model.posted_counts == {"user": 484, "encoding": 44}


def test_search_and_fuzz_results_hold_what_perfbench_reads():
    """perfbench checks a search by its ``solutions`` and ``stats`` counters,
    and a fuzz run by the report's ``ok``, ``seed``, ``checked`` and
    ``divergences``."""
    from valprec.fuzz import fuzz_equivalence
    from valprec.schur import SchurInstance, build_schur_model
    from valprec.search import Budget, Heuristic, solve
    model, xs = build_schur_model(SchurInstance(8, 3), "all")
    result = solve(model, xs, Heuristic("lex", "asc"), mode="all",
                   budget=Budget(max_seconds=60.0))
    assert len(result.solutions) == result.stats.solutions == 48
    assert result.solutions[0] == (1, 2, 1, 3, 1, 3, 1, 2)
    assert (result.stats.nodes, result.stats.backtracks) == (97, 1)
    report = fuzz_equivalence(seed=1, cases=5)
    assert report.ok and report.seed == 1 and report.divergences == []
    assert report.checked == {"pair": 1, "full": 1, "partition": 1, "wreath": 1, "set": 1}


def test_import_loads_no_dataclasses():
    """``setup_s`` on fuzz-oracle is the import alone, and the record classes
    are written out by hand: generating their methods with ``dataclasses``,
    which loads ``inspect``, took about a quarter of the import."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(__file__).resolve().parent.parent / "src"),
                    env.get("PYTHONPATH")) if p)
    code = ("import sys; before = set(sys.modules); import valprec; "
            "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert (proc.returncode, proc.stdout) == (0, "[]\n")


@pytest.mark.parametrize("name", sorted(ENCODER_ARGS))
def test_encoder_returns_the_propagators_it_posts(name):
    """perfbench's tracer counts an encoder's tables from the
    ``propagators`` of the object it returns."""
    from valprec import precedence
    from valprec.engine import Model
    assert sorted(ENCODER_ARGS) == sorted(n for n in vars(precedence)
                                          if n.startswith("encode_"))
    m = Model()
    enc = getattr(precedence, name)(*encoder_args(name, m))
    assert m.propagators and enc.propagators == m.propagators
