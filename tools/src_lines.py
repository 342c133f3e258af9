"""Print the physical and code lines of each module under a source directory.

A code line holds a token other than a comment, and is not part of a
docstring or of another string standing alone as a statement; blank lines
do not count.  Net-line figures for a change compare the total of both
columns against two trees:

    python tools/src_lines.py src/algforge
    python tools/src_lines.py ../old/src/algforge
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def counts(text: str) -> tuple[int, int]:
    """(physical lines, code lines) of one module's source."""
    strings = set()
    for node in ast.walk(ast.parse(text)):
        if (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)):
            strings.update(range(node.lineno, node.end_lineno + 1))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(text.splitlines()), len(code - strings)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src", nargs="?", default=str(ROOT / "src" / "algforge"),
                        help="directory of Python modules (default: src/algforge)")
    args = parser.parse_args()
    src = Path(args.src)
    modules = sorted(src.rglob("*.py"))
    if not modules:
        raise SystemExit(f"no Python modules under {args.src}")
    rows = [(str(m.relative_to(src)), *counts(m.read_text())) for m in modules]
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    width = max(len(r[0]) for r in rows)
    print(f"{'module':<{width}}  physical   code")
    for name, physical, code in rows:
        print(f"{name:<{width}}  {physical:>8}  {code:>5}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
