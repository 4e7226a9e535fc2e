"""Golden reports: the CLI's exact bytes on a fixed corpus.

Each case is an input system ``golden/<case>.json`` plus one expected
stdout per command in ``golden/<case>/<command>.txt``.  The corpus is
the 15-state fixture with two sensor rows, the three-state chain and
seeded ``strategies.random_partitionable_system`` draws with n >= 10 and p > 0, so
the DOT edge order (``"x10"`` before ``"x2"``) is pinned too.

After an intended report change, regenerate and review the diff:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from obspart import cli

GOLDEN = Path(__file__).resolve().parent / "golden"

COMMANDS = {
    "analyze": ["analyze", "--seed", "42"],
    "place": ["place", "--seed", "42"],
    "place_forbid": ["place", "--seed", "42", "--forbid", "{forbid}"],
    "verify": ["verify", "--seed", "42"],
    "dot_alpha": ["export-dot", "--color-by", "alpha"],
    "dot_beta": ["export-dot", "--color-by", "beta"],
    "dot_scc": ["export-dot", "--color-by", "scc"],
}

# Forbidden state per case.  None of them empties a class, so the
# what-if placement stays feasible.
FORBID = {"fix15_sensors": 12, "chain3": 1, "random_1": 1, "random_2": 13,
          "random_3": 1}


def _run(case, command):
    argv = [a.format(forbid=FORBID[case]) for a in COMMANDS[command]]
    argv.insert(1, str(GOLDEN / f"{case}.json"))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code == 0, err.getvalue()
    return out.getvalue()


@pytest.mark.parametrize("command", sorted(COMMANDS))
@pytest.mark.parametrize("case", sorted(FORBID))
def test_golden_report(case, command):
    expected = (GOLDEN / case / f"{command}.txt").read_text(encoding="utf-8")
    assert _run(case, command) == expected


def test_golden_reports_replayed_in_one_process():
    # Every call shares one parser and one set of module state, so run all
    # cases back to back in reverse order: each place_forbid runs right
    # before its plain place, whose report must not see the forbidden state.
    calls = sorted((case, command) for case in FORBID for command in COMMANDS)
    calls.reverse()
    assert len(calls) == 35
    for case, command in calls:
        expected = (GOLDEN / case / f"{command}.txt").read_text(encoding="utf-8")
        assert _run(case, command) == expected, (case, command)


@pytest.mark.parametrize("hash_seed", ["0", "1"])
def test_golden_reports_do_not_depend_on_the_hash_seed(hash_seed):
    # Set order of str and tuple keys changes with PYTHONHASHSEED: replay
    # every case in one child process per seed.
    script = (
        "import json, sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import test_golden as g\n"
        "print(json.dumps({f'{case}/{command}': g._run(case, command)\n"
        "                  for case in g.FORBID for command in g.COMMANDS}))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, str(Path(__file__).resolve().parent)],
        capture_output=True, text=True,
        env=dict(os.environ, PYTHONHASHSEED=hash_seed),
    )
    assert proc.returncode == 0, proc.stderr
    reports = json.loads(proc.stdout)
    assert len(reports) == 35
    for key, report in reports.items():
        assert report == (GOLDEN / f"{key}.txt").read_text(encoding="utf-8"), key


def _write_inputs():
    import numpy as np

    from conftest import FIX15_A
    from oracles import system_to_dict
    from strategies import random_partitionable_system

    docs = {
        "fix15_sensors": {"n": 15, "p": 2, "a": [list(e) for e in sorted(FIX15_A)],
                          "h": [[1, 9], [2, 12]]},
        "chain3": {"n": 3, "p": 1, "a": [[2, 1], [3, 2]], "h": [[1, 3]]},
    }
    for seed in (1, 2, 3):
        rng = np.random.default_rng(seed)
        sys = random_partitionable_system(rng, n_lo=10, n_hi=14, p_lo=1, p_hi=3)
        docs[f"random_{seed}"] = system_to_dict(sys)
    for case, doc in docs.items():
        path = GOLDEN / f"{case}.json"
        if not path.exists():  # inputs are drawn once, then kept
            path.write_text(json.dumps(doc) + "\n", encoding="utf-8")


if __name__ == "__main__":
    import sys

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    GOLDEN.mkdir(exist_ok=True)
    _write_inputs()
    for case in FORBID:
        (GOLDEN / case).mkdir(exist_ok=True)
        for command in COMMANDS:
            (GOLDEN / case / f"{command}.txt").write_text(
                _run(case, command), encoding="utf-8"
            )
