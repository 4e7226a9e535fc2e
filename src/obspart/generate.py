"""Random sparsity patterns for corpus tests, reproducible from the
caller's Generator: arcs tied to a per-state density, self-loops allowed,
sensors as dedicated rows on distinct states."""

from .errors import ParameterError
from .structure import StructuredSystem


def random_system(rng, n_lo=3, n_hi=12, density_lo=1.5, density_hi=3.0,
                  p_lo=0, p_hi=3):
    """One random pattern: n states, ~density*n arcs, p single-state rows."""
    for name, lo, hi, least in (("state-count", n_lo, n_hi, 1), ("row-count", p_lo, p_hi, 0),
                                ("density", density_lo, density_hi, 0)):
        if lo < least or hi < lo:
            raise ParameterError(f"bad {name} range [{lo}, {hi}]")
    n = int(rng.integers(n_lo, n_hi + 1))
    density = float(rng.uniform(density_lo, density_hi))
    m = min(n * n, max(1, round(density * n)))
    flat = rng.choice(n * n, size=m, replace=False)
    a_entries = [(int(f) // n + 1, int(f) % n + 1) for f in sorted(flat)]
    p = min(int(rng.integers(p_lo, p_hi + 1)), n)
    measured = rng.choice(n, size=p, replace=False)
    h_entries = [(row + 1, int(s) + 1) for row, s in enumerate(measured)]
    return StructuredSystem.from_entries(n, p, a_entries, h_entries)

