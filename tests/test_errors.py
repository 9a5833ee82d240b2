"""The class of an error alone decides its exit code, and context is added
to an error in one way, errors.prefixed: no except clause outside
cli.main names a fuzzyloc error class. A refused integer is shown in one
way too: fuzzy._integer formats it, and _shown is called elsewhere only by
the one message that shows several integers at once."""

import ast
import inspect
from pathlib import Path

import pytest

from fuzzyloc import cli, errors
from fuzzyloc.errors import FuzzylocError, prefixed

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "fuzzyloc"
ERROR_CLASSES = {
    name for name, value in vars(errors).items()
    if inspect.isclass(value) and issubclass(value, FuzzylocError)
}
# the code each class exits with, written out rather than derived
EXIT_CODES = {
    "FuzzylocError": 4,
    "ConfigError": 2,
    "InvalidInputError": 2,
    "SchemaError": 2,
    "DataError": 3,
    "InsufficientDataError": 3,
    "RuleBaseFormatError": 3,
    "RuleBaseVersionError": 3,
    "ZeroFiringError": 4,
}


def enclosing_functions(tree):
    """The name of the outermost def enclosing each node of tree."""
    owners = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for child in ast.walk(node):
                owners.setdefault(child, node.name)  # ast.walk reaches outer defs first
    return owners


def handlers_naming_error_classes(source):
    """(function, line) of each except clause in a module's source that
    names a class of fuzzyloc.errors; function is the enclosing def, or None."""
    tree = ast.parse(source)
    owners = enclosing_functions(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            names = {n.id for n in ast.walk(node.type) if isinstance(n, ast.Name)}
            names |= {n.attr for n in ast.walk(node.type) if isinstance(n, ast.Attribute)}
            if names & ERROR_CLASSES:
                yield owners.get(node), node.lineno


@pytest.mark.parametrize("module", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_only_main_catches_a_fuzzyloc_error(module):
    found = list(handlers_naming_error_classes(module.read_text(encoding="utf-8")))
    if module.name == "cli.py":
        found = [(owner, line) for owner, line in found if owner != "main"]
    assert found == []


def test_only_fuzzy_and_multi_integer_messages_call_shown():
    # the table-size refusal shows several integers; every single-integer
    # refusal comes from fuzzy._integer, and every label is an int64
    allowed = {("synth.py", "generate_synthetic")}
    found = set()
    for module in sorted(PACKAGE.glob("*.py")):
        if module.name == "fuzzy.py":
            continue
        tree = ast.parse(module.read_text(encoding="utf-8"))
        owners = enclosing_functions(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_shown":
                found.add((module.name, owners.get(node)))
    assert found == allowed


def test_every_error_class_has_an_exit_code():
    assert set(EXIT_CODES) == ERROR_CLASSES


@pytest.mark.parametrize("name", sorted(EXIT_CODES))
def test_the_class_decides_the_exit_code(name, monkeypatch, capsys, tmp_path):
    def failing_command(args):
        raise getattr(errors, name)("the message")

    monkeypatch.setattr(cli, "cmd_synth", failing_command)
    assert cli.main(["synth", "--out", str(tmp_path / "x.csv")]) == EXIT_CODES[name]
    err = capsys.readouterr().err
    shown = {2: "fuzzyloc: config error: the message\n", 3: "fuzzyloc: data error: the message\n"}
    if EXIT_CODES[name] in shown:
        assert err == shown[EXIT_CODES[name]]
    else:
        assert "Traceback" in err and f"{name}: the message" in err


class TestPrefixed:
    def test_keeps_the_class_and_chains_the_cause(self):
        with pytest.raises(errors.SchemaError, match="^load: missing$") as caught:
            with prefixed("load"):
                raise errors.SchemaError("missing")
        assert type(caught.value) is errors.SchemaError
        assert type(caught.value.__cause__) is errors.SchemaError

    def test_re_raises_as_the_type_asked_for(self):
        with pytest.raises(errors.RuleBaseFormatError, match="^doc: bad$") as caught:
            with prefixed("doc", (errors.InvalidInputError, ValueError), errors.RuleBaseFormatError):
                raise ValueError("bad")
        assert type(caught.value.__cause__) is ValueError

    def test_lets_other_errors_through(self):
        with pytest.raises(errors.DataError, match="^untouched$"):
            with prefixed("stage", errors.InvalidInputError):
                raise errors.DataError("untouched")
        with pytest.raises(KeyError):
            with prefixed("stage"):
                raise KeyError("k")

    def test_an_invalid_input_is_a_config_error(self):
        assert issubclass(errors.InvalidInputError, errors.ConfigError)
