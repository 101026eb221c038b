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
    lines = proc.stdout.splitlines()
    assert [line.split()[:2] for line in lines[:2]] == [["n=", "10"], ["n=", "20"]]
    assert all("build" in line and "propagate" in line for line in lines[:2])
    assert [line.split()[0:2] + line.split()[3:] for line in lines[2:]] == [
        ["log-log", "slope:", "(propagate)"], ["log-log", "slope:", "(build)"]]

