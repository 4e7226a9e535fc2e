"""Random sparsity patterns for corpus tests, reproducible from the
caller's Generator: arcs tied to a per-state density, self-loops allowed,
sensors as dedicated rows on distinct states."""

from .errors import DegenerateStructureError, ParameterError
from .matching import system_contractions
from .structure import StructuredSystem


def random_system(rng, n_lo=3, n_hi=12, density_lo=1.5, density_hi=3.0,
                  p_lo=0, p_hi=3):
    """One random pattern: n states, ~density*n arcs, p single-state rows."""
    if n_lo < 1 or n_hi < n_lo:
        raise ParameterError(f"bad state-count range [{n_lo}, {n_hi}]")
    n = int(rng.integers(n_lo, n_hi + 1))
    density = float(rng.uniform(density_lo, density_hi))
    m = min(n * n, max(1, round(density * n)))
    flat = rng.choice(n * n, size=m, replace=False)
    a_entries = [(int(f) // n + 1, int(f) % n + 1) for f in sorted(flat)]
    p = min(int(rng.integers(p_lo, p_hi + 1)), n)
    measured = rng.choice(n, size=p, replace=False)
    h_entries = [(row + 1, int(s) + 1) for row, s in enumerate(measured)]
    return StructuredSystem.from_entries(n, p, a_entries, h_entries)


def random_partitionable_system(rng, n_lo=3, n_hi=10, density_lo=1.5,
                                density_hi=3.0, p_lo=0, p_hi=0, attempts=1000):
    """Like random_system, but resampled until every connected part of
    the Dulmage-Mendelsohn horizontal block is short by one node, i.e.
    every rank deficit is repairable one sensor at a time and the class
    machinery applies."""
    for _ in range(attempts):
        sys = random_system(rng, n_lo, n_hi, density_lo, density_hi, p_lo, p_hi)
        try:
            system_contractions(sys.without_measurements())
        except DegenerateStructureError:
            continue
        return sys
    raise ParameterError(
        f"no partitionable system found in {attempts} draws; "
        f"widen the parameter ranges"
    )
