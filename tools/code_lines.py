"""Count the code-only lines of every Python module under a directory.

A line counts when it holds a token other than a comment and is not part
of a module, class or function docstring; blank lines, comment-only lines
and docstrings do not count. A string or statement that spans several
lines counts every line it spans.

    python3 tools/code_lines.py src/fuzzyloc

prints one "LINES PATH" row per module, in path order, then "LINES total".
Standard library only.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

# tokens that are layout or commentary, not code
_SKIPPED = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree):
    """Line numbers held by the docstrings of the module, classes and functions in tree."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path):
    """The number of code-only lines of the module at path."""
    source = Path(path).read_bytes()
    lines = set()
    for tok in tokenize.tokenize(io.BytesIO(source).readline):
        if tok.type not in _SKIPPED:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source, str(path))))


def main(args):
    if len(args) != 1 or not Path(args[0]).is_dir():
        print("usage: code_lines.py DIRECTORY", file=sys.stderr)
        return 2
    total = 0
    for path in sorted(Path(args[0]).rglob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{count} {path}")
    print(f"{total} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
