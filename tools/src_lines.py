"""Print total and code-only line counts per module under src/.

A code-only line holds at least one token that is not a comment and lies
outside every module, class and function docstring; blank lines, comment
lines and docstring lines are the rest.  Docstrings are found with ast,
comments with tokenize.  Standard library only.

    python3 tools/src_lines.py [ROOT]

ROOT defaults to the src/ directory next to this script's parent.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def count(source: str) -> tuple[int, int]:
    """(total, code-only) lines of one Python source text."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code - docstrings)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src"
    total = code = 0
    print(f"{'total':>7} {'code':>7}  module")
    for path in sorted(root.rglob("*.py")):
        t, c = count(path.read_text())
        total += t
        code += c
        print(f"{t:7d} {c:7d}  {path.relative_to(root)}")
    print(f"{total:7d} {code:7d}  all")
    return 0


if __name__ == "__main__":
    sys.exit(main())
