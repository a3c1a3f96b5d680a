"""Count the code lines of the torcont package, per module and in total.

Usage:

    python ci/codelines.py [DIRECTORY]

A code line holds at least one token that is not a comment, a docstring or
white space (``tokenize`` gives the tokens, ``ast`` the docstrings: the
string a module, class or function body opens with).  A string that spans
lines counts each of its lines.  DIRECTORY defaults to the package source,
``src/torcont``; every ``*.py`` file in it is counted.  It prints one line
per module, largest first, then the totals of code lines and of all lines.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def docstrings(tree) -> set:
    """(start, end) positions of the docstrings of a module's ``ast`` tree."""
    spans = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                spans.add(((first.lineno, first.col_offset),
                           (first.end_lineno, first.end_col_offset)))
    return spans


def code_lines(text: str) -> int:
    """Number of lines of ``text`` that hold a token other than a comment,
    a docstring or white space."""
    skip = docstrings(ast.parse(text))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in SKIPPED and (tok.start, tok.end) not in skip:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv) -> int:
    directory = Path(argv[0]) if argv else ROOT / "src" / "torcont"
    counts = []
    for path in sorted(directory.glob("*.py")):
        text = path.read_text()
        counts.append((code_lines(text), len(text.splitlines()), path.stem))
    for code, total, name in sorted(counts, key=lambda c: (-c[0], c[2])):
        print(f"{name:<12} {code:6,d} code lines {total:6,d} lines")
    print(f"{'total':<12} {sum(c[0] for c in counts):6,d} code lines "
          f"{sum(c[1] for c in counts):6,d} lines")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
