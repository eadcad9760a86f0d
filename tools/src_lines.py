"""Split each module of src/certreal into proof text and code lines.

A line is text when it lies inside a docstring or holds only a comment;
every other line, blank lines included, is code.  Run from anywhere:

    python tools/src_lines.py [FILE ...]

With no arguments it reads src/certreal/*.py and prints one row per
module and a total.  It uses the standard library only and gates nothing.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "certreal"


def split(source: str) -> tuple[int, int]:
    """(text lines, code lines) of one module's source."""
    lines = source.splitlines()
    text = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                text.update(range(first.lineno, first.end_lineno + 1))
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT and lines[tok.start[0] - 1].lstrip().startswith("#"):
            text.add(tok.start[0])
    return len(text), len(lines) - len(text)


def main(argv: list[str]) -> int:
    paths = [Path(a) for a in argv] or sorted(SRC.glob("*.py"))
    rows = [(path.name, *split(path.read_text())) for path in paths]
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    print(f"{'module':<18}{'text':>7}{'code':>7}{'lines':>7}")
    for name, text, code in rows:
        print(f"{name:<18}{text:>7}{code:>7}{text + code:>7}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
