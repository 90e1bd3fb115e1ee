"""Count the code lines of a Python source tree: non-blank, not comments, not docstrings.

Run from anywhere, with a source directory::

    python tools/codelines.py src/hardycorners

It prints one line per module, ``<count> <path>`` with the path relative to
the directory given, in path order, then ``<total> total``.

A line counts when a token other than a comment or a line break starts on
it or runs across it (``tokenize``), so every line of a multi-line call or
of a multi-line string counts.  The lines of a docstring, the string that
opens a module, a class or a function body (``ast``), do not.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

# Tokens that carry no code: layout and comments.
_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}


def _docstring_lines(tree):
    """The line numbers of every docstring in a parsed module."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                if isinstance(body[0].value.value, str):
                    lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count_code_lines(source):
    """The number of code lines in a module's source text."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def count_tree(root):
    """``[(path relative to root, count), ...]`` for every ``.py`` file under ``root``, in path order."""
    root = Path(root)
    return [
        (path.relative_to(root).as_posix(), count_code_lines(path.read_text(encoding="utf-8")))
        for path in sorted(root.rglob("*.py"))
    ]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("root", help="A source directory.")
    args = parser.parse_args(argv)
    counts = count_tree(args.root)
    for path, count in counts:
        print(f"{count} {path}")
    print(f"{sum(count for _, count in counts)} total")


if __name__ == "__main__":
    sys.exit(main())
