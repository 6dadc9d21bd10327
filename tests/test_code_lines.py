"""``tools/code_lines.py`` counts code lines, not docstrings, comments or blank lines."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", SCRIPT)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring
over two lines."""

# a comment line
import math


def outer(x):
    def inner():
        """Nested docstring."""
        return math.pi
    total = (x +
             inner())  # a trailing comment
    return total
'''


def test_counts_only_lines_with_code_outside_docstrings():
    # import, def outer, def inner, return pi, the split statement (two lines), return total
    assert code_lines.code_lines(SOURCE) == 7


def test_reports_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text('"""Only a docstring."""\n\nX = 1\n')
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == "b.py 1\npkg/a.py 7\ntotal 8\n"
