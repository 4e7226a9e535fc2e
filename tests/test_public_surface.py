"""The public surface is what something other than the tests reads.

Every name in ``obspart.__all__`` must be read by a module of the
package other than the one defining it, named in the README, or used
by the acceptance gate.  Helpers that only tests need live in
``tests/``.
"""

import ast
import re
from pathlib import Path

import obspart

ROOT = Path(__file__).resolve().parent.parent


def package_reads():
    """The names and attributes that the package's modules load; the
    re-exports of ``__init__`` and the definitions themselves are no reads."""
    read = set()
    for path in (ROOT / "src" / "obspart").glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return read


def test_every_public_name_has_a_reader():
    text = "\n".join((ROOT / name).read_text(encoding="utf-8")
                     for name in ("README.md", "tests/test_acceptance.py"))
    read = package_reads()
    # A name after a dot, such as ``oracles.is_necessary``, is another
    # module's name.
    unread = [name for name in obspart.__all__
              if name not in read and not re.search(rf"(?<![\w.]){name}\b", text)]
    assert unread == []
