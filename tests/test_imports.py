"""Every name a module of the package imports is used in that module,
unless its import line carries "# noqa: F401": an import kept only so that
the name stays reachable at that module's path."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "fuzzyloc"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
# the names kept for callers that reach them through these modules
KEPT = {("cli.py", "predict"), ("rulebase.py", "elbow_k"), ("rulebase.py", "kmeans")}


def unused_imports(source):
    """(name, marked) of each name an import in source binds that no other
    code in source reads; marked when its import carries # noqa: F401."""
    tree = ast.parse(source)
    lines = source.splitlines()
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            span = lines[node.lineno - 1:node.end_lineno]
            marked = any("# noqa: F401" in line for line in span)
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read:
                    yield name, marked


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(module):
    found = unused_imports(module.read_text(encoding="utf-8"))
    assert [name for name, marked in found if not marked] == []


def test_only_the_kept_names_are_marked():
    marked = {
        (module.name, name)
        for module in MODULES
        for name, is_marked in unused_imports(module.read_text(encoding="utf-8"))
        if is_marked
    }
    assert marked == KEPT
