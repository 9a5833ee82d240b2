"""The runtime depends on numpy alone: every module of the package imports
only the standard library, numpy and the package itself."""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "fuzzyloc"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "fuzzyloc"}


def imported_roots(path):
    """Top-level names of every absolute import in one module."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


@pytest.mark.parametrize("module", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_modules_import_only_the_stdlib_and_numpy(module):
    assert sorted(set(imported_roots(module)) - ALLOWED) == []


def test_the_modules_are_found():
    assert {"inference.py", "pipeline.py", "cli.py"} <= {p.name for p in PACKAGE.glob("*.py")}


def test_project_dependencies_name_numpy_alone():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    names = [re.match(r"[A-Za-z0-9_.-]+", dep).group() for dep in project["dependencies"]]
    assert names == ["numpy"]
