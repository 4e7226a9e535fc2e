"""Smoke test of ``tools/src_coverage.py`` on one small test file, in a
child process, so the tracer it installs stays out of this one."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MISSED = re.compile(r"(src/obspart/\w+\.py):([1-9]\d*): (\S.*)")
COUNT = re.compile(r"(\d+) of (\d+) executable lines never ran")


def test_lines_that_test_generate_never_runs():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "src_coverage.py"),
         "tests/test_generate.py", "-q", "-p", "no:cacheprovider"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    missed, total = map(int, COUNT.fullmatch(lines[-1]).groups())
    assert 0 < missed < total
    report = lines[-1 - missed:-1]
    assert "passed" in lines[-2 - missed]  # pytest's summary comes first
    for line in report:
        path, number, text = MISSED.fullmatch(line).groups()
        source = (ROOT / path).read_text(encoding="utf-8").splitlines()
        assert source[int(number) - 1].strip() == text
    # test_generate runs the whole generator and never the CLI's script line.
    assert not [line for line in report if line.startswith("src/obspart/generate.py:")]
    assert [line for line in report
            if line.startswith("src/obspart/cli.py:")
            and line.endswith(": raise SystemExit(main())")]
