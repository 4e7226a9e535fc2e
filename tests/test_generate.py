import numpy as np
import pytest

from obspart import ParameterError, random_system
from strategies import random_partitionable_system


def test_state_count_range_must_not_be_empty():
    with pytest.raises(ParameterError, match=r"^bad state-count range \[5, 4\]$"):
        random_system(np.random.default_rng(0), n_lo=5, n_hi=4)


def test_partitionable_draws_can_run_out():
    # 30 states with about one arc each: seed 14's first three draws are
    # all degenerate.
    message = "no partitionable system found in 3 draws; widen the parameter ranges"
    with pytest.raises(ParameterError, match=f"^{message}$"):
        random_partitionable_system(np.random.default_rng(14), n_lo=30, n_hi=30,
                                    density_lo=1.0, density_hi=1.0, attempts=3)
