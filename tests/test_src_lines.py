"""Smoke test of ``tools/src_lines.py``, run the way the README says."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LINE = re.compile(r"(\d+) lines, (\d+) code, (\d+) docstring, (\d+) comment, (\d+) blank")


def test_counts_add_up_to_the_physical_lines():
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "src_lines.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    total, *kinds = map(int, LINE.fullmatch(proc.stdout.rstrip("\n")).groups())
    assert proc.stdout.count("\n") == 1
    assert sum(kinds) == total
    physical = sum(len(path.read_text(encoding="utf-8").splitlines())
                   for path in (ROOT / "src" / "obspart").glob("*.py"))
    assert total == physical
