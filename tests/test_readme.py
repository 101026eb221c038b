"""The README's Python examples run as written."""
import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                    flags=re.M | re.S)


def test_every_python_block_in_readme_runs(capsys):
    assert BLOCKS, "README has no python blocks"
    for i, code in enumerate(BLOCKS):
        exec(compile(code, f"README.md python block {i + 1}", "exec"), {})
    # the library-use example prints the canonical solution count of five
    # variables over three interchangeable values
    assert "41" in capsys.readouterr().out.split()
