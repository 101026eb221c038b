"""The README's Python examples and command lines run as written."""
import pathlib
import re
import shlex

from valprec.cli import main

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```", TEXT, flags=re.M | re.S)
COMMANDS = [shlex.split(line)[3:] for line in re.search(
    r"^## Command line\n.*?^```\n(.*?)^```", TEXT, flags=re.M | re.S).group(1).splitlines()
    if line.startswith("python3 -m valprec ")]


def test_every_python_block_in_readme_runs(capsys):
    assert BLOCKS, "README has no python blocks"
    for i, code in enumerate(BLOCKS):
        exec(compile(code, f"README.md python block {i + 1}", "exec"), {})
    # the library-use example prints the canonical solution count of five
    # variables over three interchangeable values
    assert "41" in capsys.readouterr().out.split()


def test_every_command_line_in_readme_exits_zero(capsys):
    assert COMMANDS, "README has no valprec command lines"
    for argv in COMMANDS:
        assert main(argv) == 0, argv
    capsys.readouterr()
