"""tools/code_lines.py counts the lines that hold code: not blank lines,
comments or docstrings, and every line of a statement that spans several."""

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"

FIXTURE = '''"""Module docstring,
over two lines."""

# a comment on a line of its own
import os

total = (1 +
         2)


def joined(a, b):
    """Function docstring."""

    return os.path.join(a, b)  # a comment after code


class Box:
    """Class docstring."""

    label = "a string, not a docstring"
'''


def test_counts_code_only_lines_of_a_fixture_module(tmp_path):
    (tmp_path / "fixture.py").write_text(FIXTURE, encoding="utf-8")
    done = subprocess.run(
        [sys.executable, str(TOOL), str(tmp_path)], capture_output=True, text=True, check=True
    )
    # import, the two lines of total, def, return, class and label
    assert done.stdout.splitlines() == [f"7 {tmp_path / 'fixture.py'}", "7 total"]


def test_a_missing_directory_is_a_usage_error(tmp_path):
    done = subprocess.run(
        [sys.executable, str(TOOL), str(tmp_path / "missing")], capture_output=True, text=True
    )
    assert done.returncode == 2 and done.stderr.startswith("usage:")
