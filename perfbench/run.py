#!/usr/bin/env python3
"""valprec benchmark: end-to-end metrics per workload, or per-layer from a traced run.

Run from the repository root:

    python3 perfbench/run.py --workload schur-first --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

``--trace 0`` measures with nothing patched and prints the end-to-end
metrics.  Times are given in reference slices (``ref``, see ``refclock.py``),
which cancels the host's speed phases, and set-up in reference seconds.
``--trace 1`` makes a separate traced run and prints the per-layer metrics.
``--workload all`` runs every workload in its own fresh process, one after
another.  Every line but the last is for people; the last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.

The benchmark imports valprec from ``src/`` beside this directory, never from
an installed copy, and exits 2 when those sources are missing.
"""
from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("schur-first", "wreath-enum", "fuzz-oracle")
IMPORT_REPEATS = 21
# Fuzz calls in each half (untraced, traced) of a traced fuzz-oracle run.
TRACE_FUZZ_CALLS = 4

END_TO_END = (
    ("setup_s", "s", "median import + median build, in reference seconds (ref x 5 ms)"),
    ("solve_ref", "ref", "root propagation + one whole search (fuzz: one call), in reference slices"),
    ("throughput_per_ref", "1/ref", "search nodes (fuzz: cases) per reference slice"),
    ("peak_rss_mb", "MB", "peak resident memory of the process"),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def time_imports(repeats: int, clock) -> tuple[list[float], list[float]]:
    """Imports of valprec, modules purged before each: (seconds, ref)."""
    seconds, refs = [], []
    for _ in range(repeats):
        for name in [n for n in sys.modules if n.split(".")[0] == "valprec"]:
            del sys.modules[name]
        t0 = time.perf_counter()
        importlib.import_module("valprec")
        seconds.append(time.perf_counter() - t0)
        refs.append(clock.sample(seconds[-1]))
    return seconds, refs


def git_commit() -> str:
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def context(args, sizes: dict) -> dict:
    u = os.uname()
    return {"python": sys.version.split()[0],
            "implementation": sys.implementation.name,
            "nproc": len(os.sched_getaffinity(0)),
            "platform": f"{u.sysname} {u.release} {u.machine}",
            "commit": git_commit(),
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "sizes": sizes}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_all(args) -> int:
    """Each workload in a fresh process, one after another; one combined result."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited {proc.returncode}", file=sys.stderr)
            code = code or proc.returncode or 1
            continue
        result = json.loads(lines[-1])
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = value
    if code == 0:
        print(json.dumps(total))
    return code


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "valprec" / "__init__.py").is_file():
        print(f"error: valprec sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    sys.path[:0] = [str(SRC), str(HERE)]
    import refclock
    import_s, import_ref = time_imports(IMPORT_REPEATS, refclock.RefClock())
    import valprec
    if Path(valprec.__file__).resolve().parent != SRC / "valprec":
        print(f"error: imported valprec from {valprec.__file__}", file=sys.stderr)
        return 2
    import layertrace
    import workloads

    w = workloads.WORKLOADS[args.workload]()
    checks = workloads.Checks()
    print("context " + json.dumps(context(args, w.sizes())))
    if args.trace:
        if args.workload == "fuzz-oracle":
            tracer, overhead = workloads.trace_fuzz(w, args.seed, TRACE_FUZZ_CALLS, checks)
        else:
            tracer, overhead = workloads.trace_search(w, checks)
        values = tracer.metrics(overhead)
        units = dict(layertrace.PER_LAYER)
        for name, s in tracer.span_summary().items():
            print(f"span {name:<9} count={s['count']} total_s={s['total_s']:.6f} "
                  f"self_s={s['self_s']:.6f}")
    else:
        if args.workload == "fuzz-oracle":
            m = workloads.measure_fuzz(w, args.seed, args.seconds, checks)
        else:
            m = workloads.measure_search(w, args.seconds,
                                         workloads.SETUP_REPEATS[args.workload], checks)
        # The fuzz workload builds only inside its cases: its set-up is the import.
        build_s, build_ref = m.get("build_s", [0.0]), m.get("build_ref", [0.0])
        setup_ref = statistics.median(import_ref) + statistics.median(build_ref)
        values = {"setup_s": setup_ref * refclock.NOMINAL_SLICE_S, "solve_ref": m["solve_ref"],
                  "throughput_per_ref": m["throughput_per_ref"],
                  "peak_rss_mb": peak_rss_mb()}
        units = {name: unit for name, unit, _ in END_TO_END}
        for name, unit, what in END_TO_END:
            print(f"{args.workload} {name:<18} {values[name]:>14.6f} {unit:<5} {what}")
        print(f"{args.workload} slice_s            {m['slice_s']:>14.6f} s     "
              f"mean reference slice over the run")
        print(f"{args.workload} setup_wall_s       "
              f"{statistics.median(import_s) + statistics.median(build_s):>14.6f} s     "
              f"median import + median build, wall seconds")
        if "search_s" in m:
            print(f"{args.workload} rounds             {m['rounds']:>14d}       "
                  f"{len(m['search_s'])} whole, in seconds: "
                  + " ".join(f"{t:.4f}" for t in m["search_s"]))
        else:
            call_s = m["call_s"]
            print(f"{args.workload} calls              {len(call_s):>14d}       "
                  f"in seconds: median {statistics.median(call_s):.4f}, "
                  f"total {sum(call_s):.4f}")

    failed = len(checks.failed)
    for what in checks.failed:
        print(f"FAILED {what}")
    print(f"{args.workload} failed_ratio     {failed / checks.attempted:>14.6f}      "
          f"{failed} of {checks.attempted} checks failed")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": checks.attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in values},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
