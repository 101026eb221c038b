"""The scripts under scripts/: argument checks and one tiny run of each."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=120)


@pytest.mark.parametrize("name,args", [
    ("chain_timing.py", ["--lengths", "100"]),
    ("chain_timing.py", ["--lengths", "100", "100"]),
    ("chain_timing.py", ["--lengths", "0", "100"]),
    ("chain_timing.py", ["--repeats", "0"]),
    ("chain_timing.py", ["--domain-size", "-1"]),
    ("run_schur_table.py", ["--budget-secs", "-1"]),
    ("run_schur_table.py", ["--budget-secs", "0"]),
    ("run_schur_table.py", ["--k3-max-n", "0"]),
    ("run_schur_table.py", ["--k3-max-n", "12"]),
    ("run_schur_table.py", ["--csv", str(ROOT / "no-such-dir" / "x.csv")]),
    ("run_schur_table.py", ["--k3-max-n", "2001"]),
    ("chain_timing.py", ["--lengths", "100", "300000", "--repeats", "1"]),
])
def test_bad_arguments_exit_two(name, args):
    proc = run_script(name, *args)
    assert proc.returncode == 2
    assert "error:" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_chain_timing_tiny_run():
    proc = run_script("chain_timing.py", "--lengths", "10", "20",
                      "--repeats", "1")
    assert proc.returncode == 0, proc.stderr
    assert "log-log slope:" in proc.stdout


def test_run_schur_table_tiny_run():
    proc = run_script("run_schur_table.py", "--k3-max-n", "13")
    assert proc.returncode == 0, proc.stderr
    rows = proc.stdout.splitlines()
    assert rows[0].split()[:2] == ["instance", "sym"]
    assert [r.split()[:2] for r in rows[1:]] == [
        ["S(13,3)", "none"], ["S(13,3)", "adjacent"], ["S(13,3)", "all"]]
    assert all(r.split()[-1] == "no" for r in rows[1:])
