#!/usr/bin/env python3
"""Size of a checkout's src/: all lines of Python, and its code lines.

Code lines leave out blank lines, comment lines and the docstrings of
modules, classes and functions (found with ``ast``), so a change to
documentation alone moves ``lines`` and not ``code``.

Usage: python scripts/src_lines.py [ROOT]   (prints ``lines=N code=M`` for
ROOT/src; ROOT defaults to this checkout)
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DOC_OWNERS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(text: str) -> int:
    """Lines holding a token that is not a comment, outside every docstring."""
    docs = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, DOC_OWNERS) and ast.get_docstring(node, clean=False) is not None:
            docs.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    rows = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in NOT_CODE:
            rows.update(range(tok.start[0], tok.end[0] + 1))
    return len(rows - docs)


def counts(root: Path) -> tuple[int, int]:
    """(lines, code lines) over every ``*.py`` file under root/src."""
    texts = [p.read_text(encoding="utf-8") for p in sorted((root / "src").rglob("*.py"))]
    return sum(len(t.splitlines()) for t in texts), sum(code_lines(t) for t in texts)


if __name__ == "__main__":
    lines, code = counts(Path(sys.argv[1]) if len(sys.argv) > 1 else ROOT)
    print(f"lines={lines} code={code}")
