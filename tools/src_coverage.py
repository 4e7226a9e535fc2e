"""Executable lines of ``src/obspart`` that a test run never executes.

Runs pytest in this process under ``sys.settrace`` and
``threading.settrace``, with line tracing only in frames whose code lies
in ``src/obspart``, then prints each executable line that never ran as
``path:line: source`` and one closing count line.  A line is executable
when a line table (``co_lines``) of one of its module's code objects
names it.  With no arguments the tier-1 tests run; any arguments are
passed to pytest in their place.  The exit status is pytest's.  Run from
the repository root:

    python tools/src_coverage.py
    python tools/src_coverage.py tests/test_generate.py
"""

import os
import sys
import threading
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "obspart"
# As in the tier-1 command, obspart comes from src/, for this process and
# for the child processes that tests start.
sys.path.insert(0, str(ROOT / "src"))
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))

import pytest  # noqa: E402

TIER1_ARGS = ["-q", "--continue-on-collection-errors"]


def executable_lines(path):
    """The line numbers that the line tables of a module's code objects name."""
    code = compile(path.read_text(encoding="utf-8"), str(path), "exec")
    lines, stack = set(), [code]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if isinstance(c, type(code)))
    return lines


def traced_run(args):
    """pytest's exit status and {resolved path: set of lines run} for the
    files under ``SRC``."""
    inside = {}
    ran = defaultdict(set)

    def on_line(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return on_line

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in inside:
            inside[name] = Path(os.path.realpath(name)).is_relative_to(SRC)
        return on_line if inside[name] else None

    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    by_path = defaultdict(set)
    for name, lines in ran.items():
        by_path[Path(os.path.realpath(name))] |= lines
    return status, by_path


def main(argv):
    status, ran = traced_run(argv or TIER1_ARGS)
    missed = total = 0
    for path in sorted(SRC.rglob("*.py")):
        source = path.read_text(encoding="utf-8").splitlines()
        executable = executable_lines(path)
        total += len(executable)
        for line in sorted(executable - ran[path]):
            missed += 1
            print(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
    print(f"{missed} of {total} executable lines never ran")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
