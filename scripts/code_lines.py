"""Print the code lines of each module of the package and their total.

    python scripts/code_lines.py [DIR]

A code line is a line that holds a token of code: blank lines, comment
lines and the lines of docstrings (the string that opens a module, class
or function body) do not count, and a statement spread over several
lines counts each of them.  DIR defaults to ``src/webfoam`` beside this
script; its ``*.py`` files are counted, by name, one per line as
``name count``, then ``total count``.
"""

from __future__ import annotations

import ast
import io
import pathlib
import sys
import tokenize

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
             tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The number of code lines of the Python text ``source``."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def main(argv: list) -> int:
    root = pathlib.Path(argv[0]) if argv else pathlib.Path(__file__).resolve().parents[1] / "src" / "webfoam"
    total = 0
    for path in sorted(root.glob("*.py")):
        n = code_lines(path.read_text())
        total += n
        print(path.name, n)
    print("total", total)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
