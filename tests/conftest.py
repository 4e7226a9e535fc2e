import functools
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from obspart import StructuredSystem
from strategies import random_partitionable_system

# The interpreted graph kernels and the numeric oracle make per-example
# times vary too widely for a deadline.
settings.register_profile(
    "obspart",
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("obspart")


def S(n, p, a, h=()):
    return StructuredSystem.from_entries(n, p, a, h)


# 15-state system built to have three rank classes {2,7,9} {4,15} {10,12}
# and two access classes {9} {11,12,13,14}; every expected value below was
# frozen from the exhaustive oracles in oracles.py before the package
# algorithms existed.
FIX15_A = [
    (1, 2), (1, 7), (9, 7), (9, 9), (5, 4), (5, 15), (13, 10), (13, 12),
    (12, 11), (14, 13), (11, 14), (3, 1), (6, 3), (7, 6), (8, 5), (10, 8),
]

FIX15_ALPHA = ((2, 7, 9), (4, 15), (10, 12))
FIX15_BETA = ((9,), (11, 12, 13, 14))


@pytest.fixture(scope="session")
def fix15():
    return S(15, 0, FIX15_A)


@pytest.fixture
def chain3():
    """x1 -> x2 -> x3, sensor on x3."""
    return S(3, 1, [(2, 1), (3, 2)], [(1, 3)])


@pytest.fixture
def cycle3():
    """x1 -> x2 -> x3 -> x1, no sensors."""
    return S(3, 0, [(2, 1), (3, 2), (1, 3)])


@pytest.fixture
def fan3():
    """x1 -> x3 and x2 -> x3, no sensors."""
    return S(3, 0, [(3, 1), (3, 2)])


@pytest.fixture
def count_calls(monkeypatch):
    """Count calls of an obspart function through every alias of it.

    ``from .x import f`` binds ``f`` again in each importing module, so
    each such binding is pointed at one counting wrapper, as
    ``perfbench/child.py`` does.  Returns a function that installs the
    wrapper and returns the list it appends one entry per call to.
    """
    def install(original):
        calls = []

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            calls.append(None)
            return original(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if module is None or not (name == "obspart" or name.startswith("obspart.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, wrapper)
        return calls
    return install


@pytest.fixture(scope="session")
def partition_corpus():
    """200 measurement-free systems on which the class machinery applies."""
    rng = np.random.default_rng(20250815)
    return [
        random_partitionable_system(rng, n_lo=3, n_hi=10, p_lo=0, p_hi=0)
        for _ in range(200)
    ]


_CRITERIA = {
    1: "placement arithmetic on the 15-state fixture",
    2: "structural vs numeric verdict on 1000 random systems",
    3: "sensor count equals exhaustive brute-force minimum",
    4: "within-class swaps preserve, cross-class swaps break",
    5: "one unmatched member per class per maximum matching",
    6: "rank identities for designated sensors",
    7: "PBH/Gramian verdict agreement and scale invariance",
}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    import re

    worst = {}
    for status in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(status, []):
            nodeid = getattr(rep, "nodeid", "")
            m = re.search(r"test_acceptance\.py::test_criterion_(\d+)", nodeid)
            if m and getattr(rep, "when", "call") in ("call", "setup"):
                k = int(m.group(1))
                worst[k] = worst.get(k, False) or status != "passed"
    if not worst:
        return
    terminalreporter.section("acceptance criteria")
    for k in sorted(worst):
        verdict = "FAIL" if worst[k] else "PASS"
        terminalreporter.write_line(f"criterion {k}: {verdict} — {_CRITERIA[k]}")
