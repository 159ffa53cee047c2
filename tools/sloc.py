"""Count the code lines of Python source files.

A code line holds at least one token that is not a comment.  Blank lines,
comment-only lines and docstrings (the leading string of a module, class or
function body) are not counted.  Only the standard library is used.

    python tools/sloc.py src/beckpart/bijections.py src/beckpart/cli.py

prints one count per file, then the total.  A directory stands for its own
``*.py`` files in sorted order, so ``python tools/sloc.py src/beckpart``
counts the package.
"""

import ast
import io
import os
import sys
import tokenize
from pathlib import Path

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


def files(paths):
    """The paths with each directory replaced by its ``*.py`` files, sorted."""
    for path in paths:
        if Path(path).is_dir():
            yield from map(str, sorted(Path(path).glob("*.py")))
        else:
            yield path


def main(paths):
    total = 0
    for path in files(paths):
        with open(path, "rb") as f:
            count = code_lines(f.read())
        print(f"{count:6d}  {path}")
        total += count
    print(f"{total:6d}  total")


if __name__ == "__main__":
    try:
        main(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:  # the reader closed stdout, as `| head` does
        # point stdout at os.devnull, so the flush at exit does not fail again
        # (the SIGPIPE note of the Python signal module docs)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
