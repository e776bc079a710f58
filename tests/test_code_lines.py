import importlib.util
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", SCRIPT)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
over two lines."""

import math  # a trailing comment keeps its line


# a comment alone

class Shape:
    """Class docstring."""

    def area(self, r):
        """Function docstring."""
        label = """a string that is not a docstring
spans two lines"""
        return round(
            math.pi * r * r,

            2,
        )
'''


def test_code_lines_skip_docstrings_comments_and_blank_lines():
    # counted: import, class, def, both lines of `label`, and the multi-line
    # call's four lines that hold a token (its blank line does not count)
    assert code_lines.code_lines(SOURCE) == 1 + 1 + 1 + 2 + 4
    assert code_lines.code_lines("") == 0
    assert code_lines.code_lines('"""Only a docstring."""\n') == 0
    assert code_lines.code_lines('x = 1\n"""a string after code is no docstring"""\n') == 2


def test_code_lines_script_prints_each_file_and_the_total(tmp_path):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n")
    proc = subprocess.run([sys.executable, "-B", str(SCRIPT), str(tmp_path)],
                          capture_output=True, text=True, check=True)
    rows = [line.split() for line in proc.stdout.splitlines()]
    assert rows == [["9", str(tmp_path / "a.py")], ["1", str(tmp_path / "b.py")],
                    ["10", "total"]]
