"""Per-layer tracing from outside the program.

The tracer replaces public functions and methods of ``valprec`` with timing
wrappers and puts the originals back afterwards; nothing in ``src/`` knows it
is being traced.  A module-level function is patched under every name that
holds it in any ``valprec`` module, because callers look names up in their
own namespace (``fuzz`` imports the encoders and ``gac_by_definition`` by
name, ``schur`` imports ``solve``).  Methods are patched on their class.

Two kinds of record are kept in memory:

* coarse boundaries (workload, build, solve, fuzz run, fuzz case) become
  spans with parent ids;
* every wrapped call, coarse or fine, feeds a stack-based aggregate of call
  count, self time and inclusive time.  ``filter``, the domain operations and
  the choice stack run millions of times on S(44,4), far too many to keep as
  spans.

A call's self time is its duration minus the time of the wrapped calls made
inside it, so each layer's self time excludes the layers it calls into.
"""
from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager

import valprec
from valprec import engine, fuzz, oracle, precedence, schur, search

# Propagator classes that the three workloads run, each reported by name.
PROPAGATOR_CLASSES = ("NotAllEqual3", "TernaryTable", "SetCharChannel",
                      "LexChainComplete")
LAYERS = ("schur", "precedence", "engine", "propagators", "search", "oracle",
          "fuzz")
_PROP_FIELDS = ("calls", "self_s", "fails", "entailed", "useful_ratio")

# Every per-layer metric, in the order BENCHMARK.json lists them.
PER_LAYER = (
    ("schur.build_s", "s"),
    ("precedence.build_s", "s"),
    ("precedence.tables", "count"),
    ("precedence.tuples", "count"),
    ("engine.propagate_calls", "count"),
    ("engine.fail_ratio", "ratio"),
    ("engine.domain_ops", "count"),
    ("engine.domain_op_self_s", "s"),
    ("engine.choices", "count"),
    ("engine.restore_s", "s"),
    ("engine.vars_created", "count"),
    ("engine.add_var_s", "s"),
    *((f"propagators.{cls}.{f}",
       "s" if f == "self_s" else "ratio" if f == "useful_ratio" else "count")
      for cls in PROPAGATOR_CLASSES for f in _PROP_FIELDS),
    ("propagators.filters_per_node", "ratio"),
    ("search.nodes", "count"),
    ("search.backtracks", "count"),
    ("search.solutions", "count"),
    ("search.self_s", "s"),
    ("oracle.enumerate_s", "s"),
    ("oracle.assignments", "count"),
    ("oracle.solution_ratio", "ratio"),
    ("oracle.gac_s", "s"),
    ("oracle.bc_s", "s"),
    ("fuzz.encode_side_s", "s"),
    ("fuzz.oracle_side_s", "s"),
    ("fuzz.divergences", "count"),
    *((f"{layer}.self_s", "s") for layer in LAYERS if layer != "search"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.spans", "count"),
)

_DOMAIN_OPS = ("remove_value", "retain_values", "assign", "include_value",
               "exclude_value")
_OTHER_MODEL_METHODS = ("propagate", "push_choice", "pop_choice",
                        "add_fd_var", "add_set_var")
_ORACLE_FUNCS = ("enumerate_solutions", "gac_by_definition",
                 "gac_from_solutions", "iterated_gac", "bc_by_definition")
_FUZZ_FUNCS = ("fuzz_equivalence", "check_fd_instance", "check_set_instance",
               "fd_fixpoint", "set_fixpoint")
# Function key -> span name.  Only a fuzz case is a coarse boundary inside the
# program; the benchmark opens the workload, build, solve and fuzz spans itself.
_SPANS = {
    "fuzz.check_fd_instance": "case",
    "fuzz.check_set_instance": "case",
}


def _width(var) -> int:
    """How many values a domain operation could still remove from ``var``."""
    if isinstance(var, engine.SetVar):
        return len(var.ub) - len(var.lb)
    return len(var.domain)


def count_tables(props) -> tuple[int, int]:
    """(ternary tables, their tuples) among ``props``."""
    tables = tuples = 0
    for p in props:
        if isinstance(p, valprec.TernaryTable):
            tables += 1
            tuples += len(p.triples)
    return tables, tuples


class Tracer:
    """Wraps the layer entry points while installed; aggregates stay after."""

    def __init__(self):
        self.aggs: dict[str, list] = {}     # key -> [calls, self_s, incl_s]
        self.props: dict[str, list] = {}    # class -> [calls, self_s, fails, entailed, useful]
        self.counts: dict[str, int] = {}
        self.spans: list[tuple[int, int, str, float, float]] = []
        self._frames: list[list[float]] = []
        self._open: list[int] = []
        self._changes = [0]
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------- counting

    def add(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def calls(self, key: str) -> int:
        return self.aggs.get(key, (0, 0.0, 0.0))[0]

    def self_s(self, key: str) -> float:
        return self.aggs.get(key, (0, 0.0, 0.0))[1]

    def incl_s(self, key: str) -> float:
        return self.aggs.get(key, (0, 0.0, 0.0))[2]

    # ---------------------------------------------------------------- spans

    @contextmanager
    def span(self, name: str):
        """A coarse span opened by the benchmark's own code."""
        sid = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append((sid, parent, name, time.perf_counter(), 0.0))
        self._open.append(sid)
        try:
            yield
        finally:
            self._open.pop()
            _, _, _, t0, _ = self.spans[sid]
            self.spans[sid] = (sid, parent, name, t0, time.perf_counter())

    def span_summary(self) -> dict[str, dict[str, float]]:
        """Count, total and self seconds per span name (self excludes child spans)."""
        child = [0.0] * len(self.spans)
        for _, parent, _, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, dict[str, float]] = {}
        for sid, _, name, t0, t1 in self.spans:
            s = out.setdefault(name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
            s["count"] += 1
            s["total_s"] += t1 - t0
            s["self_s"] += t1 - t0 - child[sid]
        return out

    # ------------------------------------------------------------- wrappers

    def _timed(self, key, fn, after=None):
        frames, rec, perf = self._frames, self.aggs.setdefault(key, [0, 0.0, 0.0]), time.perf_counter
        span_name = _SPANS.get(key)

        def wrapper(*args, **kwargs):
            if span_name is not None:
                with self.span(span_name):
                    return timed_call(args, kwargs)
            return timed_call(args, kwargs)

        def timed_call(args, kwargs):
            frame = [0.0]
            frames.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf() - t0
                frames.pop()
                rec[0] += 1
                rec[1] += dur - frame[0]
                rec[2] += dur
                if frames:
                    frames[-1][0] += dur
            if after is not None:
                after(args, kwargs, result)
            return result

        return functools.update_wrapper(wrapper, fn)

    def _domain_op(self, key, fn):
        frames, rec, perf, changes = (self._frames, self.aggs.setdefault(key, [0, 0.0, 0.0]),
                                      time.perf_counter, self._changes)

        def op(model, var, *rest):
            before = _width(var)
            frame = [0.0]
            frames.append(frame)
            t0 = perf()
            try:
                return fn(model, var, *rest)
            finally:
                dur = perf() - t0
                frames.pop()
                rec[0] += 1
                rec[1] += dur - frame[0]
                rec[2] += dur
                if frames:
                    frames[-1][0] += dur
                if _width(var) != before:
                    changes[0] += 1

        return functools.update_wrapper(op, fn)

    def _filter(self, cls_name, fn):
        frames, perf, changes = self._frames, time.perf_counter, self._changes
        rec = self.props.setdefault(cls_name, [0, 0.0, 0, 0, 0])

        def filter(prop, model):
            c0, e0 = changes[0], prop.entailed
            frame = [0.0]
            frames.append(frame)
            t0 = perf()
            try:
                ok = fn(prop, model)
            finally:
                dur = perf() - t0
                frames.pop()
                rec[0] += 1
                rec[1] += dur - frame[0]
                if frames:
                    frames[-1][0] += dur
            if not ok:
                rec[2] += 1
            if not ok or changes[0] != c0:
                rec[4] += 1
            if prop.entailed and not e0:
                rec[3] += 1
            return ok

        return functools.update_wrapper(filter, fn)

    # ---------------------------------------------------- after-call hooks

    def _after_propagate(self, args, kwargs, status):
        if status is engine.PropagationStatus.FAILED:
            self.add("engine.propagate_failed")

    def _after_solve(self, args, kwargs, result):
        self.add("search.nodes", result.stats.nodes)
        self.add("search.backtracks", result.stats.backtracks)
        self.add("search.solutions", result.stats.solutions)

    def _after_encode(self, args, kwargs, enc):
        tables, tuples = count_tables(getattr(enc, "propagators", ()))
        self.add("precedence.tables", tables)
        self.add("precedence.tuples", tuples)

    def _after_enumerate(self, args, kwargs, sols):
        domains = args[1] if len(args) > 1 else kwargs["domains"]
        size = 1
        for d in domains:
            size *= len(d)
        self.add("oracle.assignments", size)
        self.add("oracle.solutions", len(sols))

    def _after_fuzz(self, args, kwargs, report):
        self.add("fuzz.divergences", len(report.divergences))

    # --------------------------------------------------------- installation

    def _patch(self, owner, name, wrapper) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def _patch_function(self, module, name, key, after=None) -> None:
        """Wrap ``module.name`` under every valprec name bound to it."""
        fn = getattr(module, name, None)
        if fn is None:
            return
        wrapper = self._timed(key, fn, after)
        for mod in _valprec_modules():
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._patch(mod, attr, wrapper)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        model = engine.Model
        for name in _DOMAIN_OPS:
            if name in vars(model):
                self._patch(model, name, self._domain_op(f"engine.{name}", vars(model)[name]))
        hooks = {"propagate": self._after_propagate}
        for name in _OTHER_MODEL_METHODS:
            if name in vars(model):
                self._patch(model, name, self._timed(f"engine.{name}", vars(model)[name],
                                                     hooks.get(name)))
        for cls in _propagator_classes():
            self._patch(cls, "filter", self._filter(cls.__name__, vars(cls)["filter"]))
        self._patch_function(search, "solve", "search.solve", self._after_solve)
        self._patch_function(schur, "build_schur_model", "schur.build_schur_model")
        for name in sorted(vars(precedence)):
            if name.startswith("encode_"):
                self._patch_function(precedence, name, f"precedence.{name}",
                                     self._after_encode)
        after = {"enumerate_solutions": self._after_enumerate,
                 "fuzz_equivalence": self._after_fuzz}
        for module, names in ((oracle, _ORACLE_FUNCS), (fuzz, _FUZZ_FUNCS)):
            for name in names:
                self._patch_function(module, name, f"{module.__name__.split('.')[-1]}.{name}",
                                     after.get(name))

    def restore(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    @contextmanager
    def installed(self):
        try:
            self.install()
            yield self
        finally:
            self.restore()

    # -------------------------------------------------------------- metrics

    def layer_self_s(self, layer: str) -> float:
        if layer == "propagators":
            return sum(rec[1] for rec in self.props.values())
        return sum(rec[1] for key, rec in self.aggs.items()
                   if key.split(".")[0] == layer)

    def metrics(self, overhead_ratio: float) -> dict[str, float]:
        """Every PER_LAYER metric; layers a workload does not touch read 0."""
        c = self.counts.get
        keys = lambda prefix, names: [f"{prefix}.{n}" for n in names]
        enc_keys = [k for k in self.aggs if k.startswith("precedence.")]
        propagates = self.calls("engine.propagate")
        assignments = c("oracle.assignments", 0)
        nodes = c("search.nodes", 0)
        filters = sum(rec[0] for rec in self.props.values())
        out = {
            "schur.build_s": self.incl_s("schur.build_schur_model"),
            "precedence.build_s": sum(self.incl_s(k) for k in enc_keys),
            "precedence.tables": c("precedence.tables", 0),
            "precedence.tuples": c("precedence.tuples", 0),
            "engine.propagate_calls": propagates,
            "engine.fail_ratio": c("engine.propagate_failed", 0) / propagates if propagates else 0.0,
            "engine.domain_ops": sum(self.calls(k) for k in keys("engine", _DOMAIN_OPS)),
            "engine.domain_op_self_s": sum(self.self_s(k) for k in keys("engine", _DOMAIN_OPS)),
            "engine.choices": self.calls("engine.push_choice"),
            "engine.restore_s": self.self_s("engine.pop_choice"),
            "engine.vars_created": self.calls("engine.add_fd_var") + self.calls("engine.add_set_var"),
            "engine.add_var_s": self.self_s("engine.add_fd_var") + self.self_s("engine.add_set_var"),
        }
        for cls in PROPAGATOR_CLASSES:
            calls, self_s, fails, entailed, useful = self.props.get(cls, (0, 0.0, 0, 0, 0))
            out.update({
                f"propagators.{cls}.calls": calls,
                f"propagators.{cls}.self_s": self_s,
                f"propagators.{cls}.fails": fails,
                f"propagators.{cls}.entailed": entailed,
                f"propagators.{cls}.useful_ratio": useful / calls if calls else 0.0,
            })
        out.update({
            "propagators.filters_per_node": filters / nodes if nodes else 0.0,
            "search.nodes": nodes,
            "search.backtracks": c("search.backtracks", 0),
            "search.solutions": c("search.solutions", 0),
            "search.self_s": self.self_s("search.solve"),
            "oracle.enumerate_s": self.incl_s("oracle.enumerate_solutions"),
            "oracle.assignments": assignments,
            "oracle.solution_ratio": c("oracle.solutions", 0) / assignments if assignments else 0.0,
            "oracle.gac_s": self.incl_s("oracle.gac_by_definition"),
            "oracle.bc_s": self.incl_s("oracle.bc_by_definition"),
            "fuzz.encode_side_s": self.incl_s("fuzz.fd_fixpoint") + self.incl_s("fuzz.set_fixpoint"),
            "fuzz.oracle_side_s": self.incl_s("oracle.gac_by_definition") + self.incl_s("oracle.bc_by_definition"),
            "fuzz.divergences": c("fuzz.divergences", 0),
        })
        for layer in LAYERS:
            if layer != "search":
                out[f"{layer}.self_s"] = self.layer_self_s(layer)
        out["trace.overhead_ratio"] = overhead_ratio
        out["trace.spans"] = len(self.spans)
        return out


def _valprec_modules() -> list:
    return [mod for mod in list(sys.modules.values())
            if getattr(mod, "__name__", "").split(".")[0] == "valprec"]


def snapshot() -> dict[tuple[int, str], object]:
    """Every name bound in a valprec module or class, to check a restore against."""
    out = {}
    for mod in _valprec_modules():
        for name, value in vars(mod).items():
            out[(id(mod), name)] = value
            if isinstance(value, type):
                for attr, member in vars(value).items():
                    out[(id(value), attr)] = member
    return out


def _propagator_classes() -> list[type]:
    """Every class in valprec that defines its own ``filter``."""
    seen: dict[type, None] = {}
    for mod in _valprec_modules():
        for value in vars(mod).values():
            if isinstance(value, type) and issubclass(value, engine.Propagator) \
                    and "filter" in vars(value) and value is not engine.Propagator:
                seen[value] = None
    return list(seen)
