"""Count the code lines of Python source files.

A code line holds at least one token that is not a comment.  Blank lines,
comment-only lines and docstrings (the leading string of a module, class or
function body) are not counted.  Only the standard library is used.

    python tools/sloc.py src/beckpart/bijections.py src/beckpart/cli.py

prints one count per file, then the total.
"""

import ast
import io
import sys
import tokenize

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
_BODIES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree):
    """The line numbers taken by the docstrings in an ast."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _BODIES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source):
    """The number of code lines in the source bytes."""
    lines = set()
    for tok in tokenize.tokenize(io.BytesIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main(paths):
    total = 0
    for path in paths:
        with open(path, "rb") as f:
            count = code_lines(f.read())
        print(f"{count:6d}  {path}")
        total += count
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main(sys.argv[1:])
