"""Print the code lines of each module of a pcfgtk checkout, and their total.

Usage: ``python tools/code_lines.py [CHECKOUT [OTHER]]``

Reads every ``*.py`` file of ``CHECKOUT/src/pcfgtk`` (default: the checkout
holding this script).  A code line is a line that holds a token other than
a comment, is not blank and is not part of a module, class or function
docstring: every other line of a statement, a multi-line string's
included, is counted.  ``tokenize``
finds the tokens and ``ast`` the docstrings.  Given a second checkout
``OTHER``, each line gives both counts and their difference, OTHER minus
CHECKOUT, so a change's size is read by naming its parent first.
"""
from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def _docstring_starts(tree: ast.Module) -> set[tuple[int, int]]:
    """The (line, column) where each docstring's string token starts."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                starts.add((first.value.lineno, first.value.col_offset))
    return starts


def code_lines(source: str) -> int:
    """The number of code lines of a module's source."""
    docstrings = _docstring_starts(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _NOT_CODE:
            continue
        # ast counts columns in UTF-8 bytes, tokenize in characters
        col = len(tok.line[: tok.start[1]].encode())
        if tok.type == tokenize.STRING and (tok.start[0], col) in docstrings:
            continue
        lines.update(range(tok.start[0] - 1, tok.end[0]))
    text = source.splitlines()
    return sum(1 for i in lines if text[i].strip())  # a blank line within a string too


def count(checkout: Path) -> dict[str, int]:
    """Code lines by module file name, in name order."""
    files = sorted((checkout / "src" / "pcfgtk").glob("*.py"))
    return {path.name: code_lines(path.read_text(encoding="utf-8")) for path in files}


def main(argv: list[str]) -> int:
    if len(argv) > 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    counts = [count(Path(arg)) for arg in argv] or [count(HERE)]
    names = sorted(set().union(*counts))
    rows = [[c.get(name, 0) for c in counts] for name in names]
    rows.append([sum(c.values()) for c in counts])
    for name, row in zip(names + ["total"], rows):
        if len(row) == 2:
            row.append(row[1] - row[0])
        print(name, *(f"{n:+d}" if i == 2 else n for i, n in enumerate(row)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
