"""The command-line surface: subcommands, output, exit codes."""
import csv
import io
from pathlib import Path

import pytest

from valprec.cli import build_parser, main
from valprec.verify import TheoremItem, TheoremReport


def test_schur_prints_table_and_exits_zero(capsys):
    rc = main(["schur", "--n", "4", "--k", "2", "--sym", "all", "--mode", "all"])
    assert rc == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0].split()[:2] == ["instance", "sym"]
    assert lines[1].split()[0] == "S(4,2)"
    assert lines[1].split()[1] == "all"


def test_schur_first_mode_and_heuristic(capsys):
    rc = main(["schur", "--n", "13", "--k", "3", "--sym", "all",
               "--mode", "first", "--heuristic", "mindom-desc"])
    assert rc == 0
    out = capsys.readouterr().out
    row = out.splitlines()[1].split()
    assert row[0] == "S(13,3)"
    assert int(row[6]) == 1  # solutions column


def test_schur_writes_csv(tmp_path, capsys):
    path = tmp_path / "row.csv"
    rc = main(["schur", "--n", "5", "--k", "2", "--sym", "none",
               "--mode", "all", "--csv", str(path)])
    assert rc == 0
    capsys.readouterr()
    rows = list(csv.reader(io.StringIO(path.read_text(encoding="utf-8"))))
    assert rows[0][0] == "instance"
    assert rows[1][0] == "S(5,2)"
    assert rows[1][6] == "0"  # unsatisfiable
    assert rows[1][8] == "false"


def test_schur_unwritable_csv_exits_two_before_search(tmp_path, capsys,
                                                     monkeypatch):
    def no_search(*args, **kwargs):
        raise AssertionError("searched before checking --csv")
    monkeypatch.setattr("valprec.cli.run_one", no_search)
    with pytest.raises(SystemExit) as exc:
        main(["schur", "--n", "4", "--k", "2", "--sym", "all", "--mode", "all",
              "--csv", str(tmp_path / "missing" / "row.csv")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:")
    assert "argument --csv: cannot write" in err


def test_schur_too_large_to_build_exits_two_before_search(capsys, monkeypatch):
    def no_search(*args, **kwargs):
        raise AssertionError("searched an instance too large to build")
    monkeypatch.setattr("valprec.schur.solve", no_search)
    for argv, refusal in (
            (["--n", "100", "--k", "300", "--sym", "all"],
             "chain Y would try more than 1000000 transitions"),
            (["--n", "5", "--k", "400000", "--sym", "none", "--budget-secs", "5"],
             "n*k=2000000 is more than TRANSITION_CAP")):
        with pytest.raises(SystemExit) as exc:
            main(["schur", "--mode", "first", *argv])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:")
        assert refusal in err


def test_refused_arguments_leave_no_csv_behind(tmp_path, capsys):
    path = tmp_path / "out.csv"
    for argv in (["--csv", str(path), "--n", "0", "--k", "3"],
                 ["--n", "4", "--k", "0", "--csv", str(path)]):
        with pytest.raises(SystemExit) as exc:
            main(["schur", "--sym", "all", "--mode", "first", *argv])
        assert exc.value.code == 2
        assert not path.exists()
    # a file that was already there stays as it was
    path.write_text("kept\n", encoding="utf-8")
    with pytest.raises(SystemExit):
        main(["schur", "--csv", str(path), "--n", "0", "--k", "3",
              "--sym", "all", "--mode", "first"])
    assert path.read_text(encoding="utf-8") == "kept\n"
    capsys.readouterr()


def test_verify_theorems_exits_nonzero_with_report(capsys, monkeypatch):
    rc = main(["verify-theorems"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.count("PASS") == 6
    assert "6/6 witness checks hold" in out

    failing = TheoremReport(items=[
        TheoremItem(label="a claim", ok=True, expected="e", observed="o"),
        TheoremItem(label="another claim", ok=False, expected="e", observed="o"),
    ])
    monkeypatch.setattr("valprec.cli.verify_theorems", lambda: failing)
    rc = main(["verify-theorems"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "FAIL  another claim" in out
    assert "1/2 witness checks hold" in out


def test_fuzz_exits_zero_on_clean_run(capsys):
    rc = main(["fuzz", "--seed", "2", "--cases", "40"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.splitlines()[0] == "fuzz seed=2 cases=40"
    assert "no divergences" in out


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("argv, golden", [
    (["fuzz", "--seed", "7", "--cases", "400"], "fuzz_seed7_cases400.txt"),
    (["verify-theorems"], "verify_theorems.txt"),
])
def test_output_matches_golden_bytes(argv, golden, capsys):
    assert main(argv) == 0
    assert capsys.readouterr().out == (GOLDEN / golden).read_text(encoding="utf-8")


def test_parser_rejects_bad_arguments():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["schur", "--n", "4", "--k", "2",
                           "--sym", "bogus", "--mode", "all"])
    with pytest.raises(SystemExit):
        parser.parse_args(["schur", "--n", "4"])
    with pytest.raises(SystemExit):
        parser.parse_args([])
    for argv in (["schur", "--n", "0", "--k", "3", "--sym", "all", "--mode", "first"],
                 ["schur", "--n", "4", "--k", "0", "--sym", "all", "--mode", "first"],
                 ["schur", "--n", "4", "--k", "2", "--sym", "all", "--mode", "first",
                  "--budget-secs", "0"],
                 ["fuzz", "--seed", "1", "--cases", "0"],
                 ["fuzz", "--seed", "1", "--cases", "-5"],
                 ["schur", "--n", "2001", "--k", "4", "--sym", "none", "--mode", "first"]):
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(argv)
        assert exc.value.code == 2


def test_module_entry_point_runs():
    import os
    import subprocess
    import sys
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(__file__).resolve().parent.parent / "src"),
                    env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "valprec", "schur", "--n", "4", "--k", "2",
         "--sym", "adjacent", "--mode", "all"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "S(4,2)" in proc.stdout
