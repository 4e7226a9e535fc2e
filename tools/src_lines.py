"""Line breakdown of ``src/obspart``, counted with ``ast``.

A line is docstring when it lies in a module, class or function
docstring, comment when it starts with ``#``, and blank when empty;
every other line is code.  Run from the repository root:

    python tools/src_lines.py
"""

import ast
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")


def docstring_lines(tree):
    """The 1-based line numbers that module, class and function docstrings span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef,
                             ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def main():
    counts = dict.fromkeys(KINDS, 0)
    for path in sorted(Path("src/obspart").rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        docs = docstring_lines(ast.parse(text))
        for number, line in enumerate(text.splitlines(), start=1):
            stripped = line.strip()
            if number in docs:
                counts["docstring"] += 1
            elif stripped.startswith("#"):
                counts["comment"] += 1
            elif not stripped:
                counts["blank"] += 1
            else:
                counts["code"] += 1
    print(f"{sum(counts.values())} lines, "
          + ", ".join(f"{counts[kind]} {kind}" for kind in KINDS))


if __name__ == "__main__":
    main()
