"""The ``valprec`` names that ``perfbench/run.py`` calls all resolve.

The benchmark imports these by module and attribute; a refactor that moves
or renames one must fail here before it breaks a benchmark run.
"""
import importlib

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
