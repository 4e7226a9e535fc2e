import numpy as np
import pytest

from obspart import ParameterError, random_system
from strategies import random_partitionable_system


def test_state_count_range_must_not_be_empty():
    # Every range names itself; an inverted or negative one never reaches numpy.
    for ranges, message in (
        (dict(n_lo=5, n_hi=4), r"^bad state-count range \[5, 4\]$"),
        (dict(p_lo=2, p_hi=1), r"^bad row-count range \[2, 1\]$"),
        (dict(p_lo=-1, p_hi=1), r"^bad row-count range \[-1, 1\]$"),
        (dict(density_lo=2.0, density_hi=1.0), r"^bad density range \[2.0, 1.0\]$"),
        (dict(density_lo=-1.0), r"^bad density range \[-1.0, 3.0\]$"),
    ):
        with pytest.raises(ParameterError, match=message):
            random_system(np.random.default_rng(0), **ranges)


def test_partitionable_draws_can_run_out():
    # 30 states with about one arc each: seed 14's first three draws are
    # all degenerate.
    message = "no partitionable system found in 3 draws; widen the parameter ranges"
    with pytest.raises(ParameterError, match=f"^{message}$"):
        random_partitionable_system(np.random.default_rng(14), n_lo=30, n_hi=30,
                                    density_lo=1.0, density_hi=1.0, attempts=3)
