"""Tests for the benchmark's own code, on small sizes.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import layertrace  # noqa: E402
import refclock  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402
from valprec import engine, fuzz, search  # noqa: E402

SMALL_SCHUR = wl.SchurFirst(n=13, k=3, pins={"user": 42, "solutions": 1})
SMALL_WREATH = wl.WreathEnum(outer=2, inner=3, n=6, max_nodes=60, pins=None)
SMALL_FUZZ = wl.FuzzOracle(cases=40)


@pytest.mark.parametrize("w", [SMALL_SCHUR, SMALL_WREATH], ids=["schur", "wreath"])
def test_search_workload_smoke(w):
    checks = wl.Checks()
    m = wl.measure_search(w, seconds=0.05, setups=2, checks=checks)
    assert checks.failed == []
    assert checks.attempted > 0
    assert len(m["build_s"]) == 2 and m["search_s"]
    assert m["solve_ref"] > 0 and m["throughput_per_ref"] > 0


def test_fuzz_workload_smoke():
    checks = wl.Checks()
    m = wl.measure_fuzz(SMALL_FUZZ, seed=5, seconds=0.05, checks=checks)
    assert checks.failed == []
    assert m["solve_ref"] > 0 and m["throughput_per_ref"] > 0


def test_timed_search_slices_every_segment_and_unshadows_propagate():
    w = wl.SchurFirst(n=13, k=3, segment_nodes=5, pins=None)
    model, xs = w.build()
    model.propagate()
    clock = refclock.RefClock()
    result, seconds = wl._timed_search(w, model, xs, clock)
    assert len(clock.slices) == result.stats.nodes // 5
    assert seconds > 0
    assert "propagate" not in vars(model)
    assert w.search(model, xs).stats.nodes == result.stats.nodes


def test_refclock_converts_by_mean_slice():
    clock = refclock.RefClock()
    assert refclock.reference_slice() == refclock.SOLUTIONS
    first, second = clock.tick(), clock.tick()
    assert clock.slice_s() == (first + second) / 2
    assert clock.to_ref(3 * clock.slice_s()) == pytest.approx(3.0)


def test_wrong_pin_is_reported():
    w = wl.SchurFirst(n=13, k=3, pins={"nodes": -1})
    checks = wl.Checks()
    wl.measure_search(w, seconds=0.0, setups=1, checks=checks)
    assert any(f.startswith("nodes:") for f in checks.failed)


def test_tracer_restores_every_patched_name():
    before = layertrace.snapshot()
    solve, gac, propagate = search.solve, fuzz.gac_by_definition, engine.Model.propagate
    tracer = layertrace.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed():
            assert search.solve.__wrapped__ is solve
            assert fuzz.gac_by_definition.__wrapped__ is gac
            assert engine.Model.propagate.__wrapped__ is propagate
            raise RuntimeError("leave the block early")
    assert (search.solve, fuzz.gac_by_definition, engine.Model.propagate) == (solve, gac, propagate)
    assert layertrace.snapshot() == before


def test_traced_search_counts_equal_untraced():
    checks = wl.Checks()
    tracer, overhead = wl.trace_search(SMALL_SCHUR, checks)
    assert checks.failed == []
    model, xs = SMALL_SCHUR.build()
    result = SMALL_SCHUR.search(model, xs)
    metrics = tracer.metrics(overhead)
    assert metrics["search.nodes"] == result.stats.nodes
    assert metrics["search.backtracks"] == result.stats.backtracks
    assert metrics["search.solutions"] == result.stats.solutions
    assert metrics["precedence.tables"] == wl.search_counts(model, result)["tables"]
    assert metrics["propagators.NotAllEqual3.self_s"] > metrics["propagators.TernaryTable.self_s"]
    assert overhead > 0


def test_traced_wreath_is_table_only():
    checks = wl.Checks()
    tracer, _ = wl.trace_search(SMALL_WREATH, checks)
    assert checks.failed == []
    metrics = tracer.metrics(1.0)
    assert metrics["propagators.NotAllEqual3.calls"] == 0
    assert metrics["propagators.TernaryTable.calls"] > 0
    assert metrics["precedence.tuples"] > 0


def test_traced_fuzz_reports_equal_untraced():
    checks = wl.Checks()
    tracer, _ = wl.trace_fuzz(SMALL_FUZZ, seed=2, calls=2, checks=checks)
    assert checks.failed == []
    metrics = tracer.metrics(1.0)
    assert metrics["fuzz.divergences"] == 0
    assert metrics["oracle.assignments"] > 0
    assert metrics["search.nodes"] == 0
    assert tracer.span_summary()["case"]["count"] == 2 * SMALL_FUZZ.cases


def test_metrics_cover_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(layertrace.PER_LAYER)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        [(name, unit) for name, unit, _ in run.END_TO_END]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert set(layertrace.Tracer().metrics(1.0)) == {n for n, _ in layertrace.PER_LAYER}


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fuzz-oracle",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""


def test_run_prints_every_end_to_end_metric():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fuzz-oracle",
         "--seed", "3", "--seconds", "0.01", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert {n: m["unit"] for n, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
