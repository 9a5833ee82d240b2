"""data.write_text is the one function of the package that opens a file
for writing, so every text artifact shares its encoding and line ends.
The one other writer is synth.write_csv, which streams a CSV through the
csv module."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "fuzzyloc"
MODULES = sorted(PACKAGE.glob("*.py"))
WRITERS = {("data.py", "write_text"), ("synth.py", "write_csv")}


def may_write(call):
    """Whether an open() call's mode, the second argument, may write: a
    constant holding w, a, x or +, or anything that is not a constant."""
    mode = call.args[1] if len(call.args) > 1 else None
    mode = next((k.value for k in call.keywords if k.arg == "mode"), mode)
    if mode is None:
        return False
    return not isinstance(mode, ast.Constant) or any(c in str(mode.value) for c in "wax+")


def write_opens(source):
    """The enclosing function name (None at module level) of every open()
    or x.open() call in source whose mode may write."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call) and may_write(child):
                func = child.func
                if getattr(func, "id", None) == "open" or getattr(func, "attr", None) == "open":
                    found.append(scope)
            visit(child, scope)

    visit(ast.parse(source), None)
    return found


def test_only_the_named_writers_open_a_file_for_writing():
    found = {
        (module.name, scope)
        for module in MODULES
        for scope in write_opens(module.read_text(encoding="utf-8"))
    }
    assert found == WRITERS


@pytest.mark.parametrize(
    "source, found",
    [
        ("def f(p):\n    open(p, 'w')", ["f"]),
        ("def f(p):\n    with open(p, mode='a', encoding='utf-8') as fh:\n        pass", ["f"]),
        ("def f(p, m):\n    return io.open(p, m)", ["f"]),
        ("def f(p):\n    def g():\n        open(p, 'r+')\n    return g", ["g"]),
        ("open('x', 'xb')", [None]),
        ("def f(p):\n    open(p)\n    open(p, 'r', encoding='utf-8')\n    open(p, mode='rb')", []),
    ],
)
def test_the_guard_sees_every_write_mode(source, found):
    assert write_opens(source) == found
