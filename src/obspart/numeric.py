"""Numeric cross-validation of structural verdicts on random realizations.

Values are log-uniform magnitudes in [0.5, 2] with random signs,
deterministic per (seed, trial).  Ranks use SVD thresholds relative to
the norm of A, and verdicts are the mode over several trials, so that a
single unlucky draw near a degenerate surface cannot flip a result.  The
README's "Numeric oracle" section describes how the bases are grown.
"""

import math
import threading
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NumericError, ParameterError, PreconditionError
from .matching import s_rank
from .scc import accessibility_check, decompose
from .structure import StructuredSystem, _tuple_of

DEFAULT_SEED = 42
DEFAULT_TRIALS = 5
DEFAULT_TOL = 1e-8

# Trials realized and grown together.  A block holds about
# 2 * _TRIAL_BLOCK * n^2 doubles, the A stack and the basis buffer, whatever
# the trial count: at n = NUMERIC_STATE_LIMIT, the largest n the oracle
# realizes, that is 2 * 8 * 2048^2 * 8 bytes = 512 MiB.
_TRIAL_BLOCK = 8
NUMERIC_STATE_LIMIT = 2048

# Below this many states one eigvals of A costs less than splitting it.
_COMPONENT_SPECTRUM_STATES = 64

_LOG_LO = math.log(0.5)
_LOG_HI = math.log(2.0)

_thread = threading.local()


@dataclass(frozen=True)
class NumericRealization:
    """One concrete (A, H) drawn on a sparsity pattern."""

    a: np.ndarray
    h: np.ndarray
    seed: int
    trial: int


def _check_tol(tol):
    if (isinstance(tol, bool) or not isinstance(tol, (int, float))
            or not (math.isfinite(tol) and tol > 0)):
        raise ParameterError(f"tol must be positive, got {tol!r}")


def _check_trials(trials):
    if isinstance(trials, bool) or not (isinstance(trials, int) and trials >= 1):
        raise ParameterError(f"trials must be a positive integer, got {trials!r}")


def _check_nonnegative(name, value):
    if isinstance(value, bool) or not (isinstance(value, int) and value >= 0):
        raise ParameterError(f"{name} must be a non-negative integer, got {value!r}")


def realize(sys, seed=DEFAULT_SEED, trial=0):
    """Draw values on the pattern; deterministic for a (seed, trial) pair."""
    _check_nonnegative("seed", seed)
    _check_nonnegative("trial", trial)
    a, h = _realize_stack(sys, seed, (trial,))
    return NumericRealization(a=a[0], h=h[0], seed=seed, trial=trial)


def check_state_limit(sys):
    """Raise ``PreconditionError`` for a system of more states than the
    oracle realizes, before anything n x n is allocated."""
    if sys.n > NUMERIC_STATE_LIMIT:
        raise PreconditionError(f"the numeric oracle realizes at most "
                                f"{NUMERIC_STATE_LIMIT} states, got n={sys.n}")


def _realize_stack(sys, seed, trials):
    """(A, H) stacks of shape (T, n, n) and (T, p, n), one per trial, each
    drawn exactly as a lone ``realize`` of that trial would draw it.

    The values land at the system's kept keys ``(i-1)*n + (j-1)``, which
    sort in the (i, j) order in which they are drawn."""
    check_state_limit(sys)
    a_offsets, h_offsets = sys._a_keys, sys._h_keys
    count = len(a_offsets) + len(h_offsets)
    logs = np.empty((len(trials), count))
    bits = np.empty((len(trials), count), dtype=np.int64)
    rng = _generator()
    for row, trial in enumerate(trials):
        rng.bit_generator.state = _initial_state(seed, trial)
        logs[row] = rng.uniform(_LOG_LO, _LOG_HI, size=count)
        bits[row] = rng.integers(0, 2, size=count)
    values = np.exp(logs) * (bits * 2 - 1)
    a = np.zeros((len(trials), sys.n * sys.n))
    h = np.zeros((len(trials), sys.p * sys.n))
    a[:, a_offsets] = values[:, :len(a_offsets)]
    h[:, h_offsets] = values[:, len(a_offsets):]
    return (a.reshape(len(trials), sys.n, sys.n),
            h.reshape(len(trials), sys.p, sys.n))


# About 0.7 kB a state.  Seeding one hashes a SeedSequence, which takes
# about ten times as long as restoring a kept state.
@lru_cache(maxsize=1024)
def _initial_state(seed, trial):
    """The state of ``default_rng([seed, trial])`` before its first draw.

    The dict also holds ``has_uint32`` and ``uinteger``, so a generator
    it is restored into draws bit for bit what a fresh one would.  Every
    caller gets the same dict, which it only ever reads.
    """
    return np.random.PCG64([seed, trial]).state


def _generator():
    """This thread's generator, into which callers restore a kept state
    before every draw.  One per thread, because a generator shared by two
    threads would interleave their draws between a restore and a draw.
    """
    rng = getattr(_thread, "rng", None)
    if rng is None:
        rng = _thread.rng = np.random.Generator(np.random.PCG64(0))
    return rng


def _observable_bases(a, h, tol):
    """Orthonormal rows spanning the row space of [H; HA; ...; HA^(n-1)]
    for a stack of realizations, grown in lockstep.

    ``a`` is a (T, n, n) stack the caller owns: each A is scaled in place
    by its max absolute row sum, which leaves the rank alone.  ``h`` is a
    (T, p, n) stack.  Returns a (T, n, n) buffer and each trial's row
    count; trial t's basis is ``basis[t, :counts[t]]``.

    The basis is projected out of each grown frontier twice, because once
    does not reach working precision.  The frontier rows have unit length
    and the scaled A unit infinity-norm, so ``tol`` is relative to both.
    Stacked ``matmul`` and ``svd`` run the same routine on each matrix as
    a lone call, so every basis is bitwise the one of a trial grown alone.
    """
    trials, n = a.shape[0], a.shape[1]
    scale = np.abs(a).sum(axis=2).max(axis=1, initial=0.0)
    a /= np.where(scale > 0, scale, 1.0)[:, None, None]
    basis = np.empty((trials, n, n))
    # An all-zero or zero-row H keeps no direction: no sv passes tol * 0.
    _, sv, vt = np.linalg.svd(h, full_matrices=False)
    basis[:, :vt.shape[1]] = vt
    counts = (sv > tol * sv[:, :1]).sum(axis=1)
    frontier = counts.copy()
    while True:
        groups = {}
        for t, (r, f) in enumerate(zip(counts.tolist(), frontier.tolist())):
            if f > 0 and r < n:
                groups.setdefault((r, f), []).append(t)
        if not groups:
            return basis, counts
        for (r, f), members in groups.items():
            if members[-1] - members[0] == len(members) - 1:
                members = slice(members[0], members[-1] + 1)
            grown = basis[members, r - f:r] @ a[members]
            span = basis[members, :r]
            for _ in range(2):
                grown -= (grown @ span.transpose(0, 2, 1)) @ span
            _, sv, vt = np.linalg.svd(grown, full_matrices=False)
            kept = np.minimum((sv > tol).sum(axis=1), n - r)
            rows = vt[:, :n - r]
            basis[members, r:r + rows.shape[1]] = rows
            counts[members] = r + kept
            frontier[members] = kept


def _grown_bases(sys, blocks, tol):
    """Observability ranks of the realizations in ``blocks``, an iterable
    of (A, H) stacks of ``sys``'s pattern, with the first realization's A,
    unscaled, its H and its basis in n columns.

    Every row of [H; HA; ...] is zero on the inaccessible states, so the
    bases grow on the accessible block of A and H alone, where rounding
    cannot leak into those columns.  Each A stack may be scaled in place.
    The stacks come from an iterable so that no caller holds one while it
    grows: a sliced A stack is then freed before the basis buffer is
    allocated, which took 0.4 ms off a 6.5 ms report at n = 130 on one
    BLAS thread of a shared 2-core machine."""
    inaccessible = np.array(sys.memo(accessibility_check)[1], dtype=np.intp) - 1
    accessible = np.delete(np.arange(sys.n), inaccessible)
    ranks = []
    for a, h in blocks:
        first = first if ranks else (a[0].copy(), h[0])
        if len(inaccessible):
            a, h = a[:, accessible[:, None], accessible], h[:, :, accessible]
        basis, counts = _observable_bases(a, h, tol)
        if not ranks:
            first_basis = np.zeros((counts[0], sys.n))
            first_basis[:, accessible] = basis[0, :counts[0]]
        ranks += counts.tolist()
    return ranks, first, first_basis


def _trial_ranks(sys, seed, trials, tol):
    """Observability rank of each of trials 0..trials-1, with trial 0's
    realization and basis."""
    _check_trials(trials)
    _check_tol(tol)
    _check_nonnegative("seed", seed)
    check_state_limit(sys)
    blocks = (_realize_stack(sys, seed, range(start, min(start + _TRIAL_BLOCK, trials)))
              for start in range(0, trials, _TRIAL_BLOCK))
    ranks, (a, h), first_basis = _grown_bases(sys, blocks, tol)
    return ranks, NumericRealization(a=a, h=h, seed=seed, trial=0), first_basis


def _lone_basis(r, tol):
    """The system of ``r``'s nonzeros, ``sys`` itself for ``realize(sys)``,
    and r's observable basis; ``r`` is left unwritten."""
    _check_tol(tol)
    sys = StructuredSystem.from_entries(len(r.a), len(r.h), (np.argwhere(r.a) + 1).tolist(),
                                        (np.argwhere(r.h) + 1).tolist())
    return sys, _grown_bases(sys, [(np.array(r.a, dtype=float)[None], r.h[None])], tol)[2]


def gramian_rank(r, tol=DEFAULT_TOL):
    """Rank of the stacked observability matrix of one realization, grown
    on the accessible states of its nonzeros as ``rank_report`` grows it."""
    return _lone_basis(r, tol)[1].shape[0]


def _modal(ranks):
    """(lowest of the most frequent ranks, the share of votes it has)."""
    counts = Counter(ranks)
    best = max(counts.values())
    return min(r for r, c in counts.items() if c == best), best / len(ranks)


def modal_gramian_rank(sys, seed=DEFAULT_SEED, trials=DEFAULT_TRIALS, tol=DEFAULT_TOL):
    """(modal rank, agreement fraction) over ``trials`` realizations."""
    return _modal(_trial_ranks(sys, seed, trials, tol)[0])


def _eigvals(matrix, a):
    try:
        return np.linalg.eigvals(matrix)
    except np.linalg.LinAlgError as exc:
        raise NumericError(
            f"eigensolver failed: {exc}\nA = {np.array2string(a)}"
        ) from exc


def _spectrum(a, sys):
    """Eigenvalues of A, realized on ``sys``.  From ``_COMPONENT_SPECTRUM_STATES``
    states up, they come from the diagonal blocks of ``sys``'s components,
    on which A is block triangular: a one-state block gives its entry, and
    the blocks of one size share one stacked ``eigvals``."""
    members = (sys.without_measurements().memo(decompose).components
               if len(a) >= _COMPONENT_SPECTRUM_STATES else ())
    if len(members) < 2:
        return _eigvals(a, a)
    by_size = {}
    for states in members:
        by_size.setdefault(len(states), []).append(states)
    parts = []
    for k, blocks in sorted(by_size.items()):
        index = np.subtract(blocks, 1)
        block = a[index[:, :, None], index[:, None, :]]
        parts.append((block if k == 1 else _eigvals(block, a)).ravel())
    return np.concatenate(parts)


def _unobservable_modes(r, sys, basis, tol):
    """Eigenvalues of A, as ``_spectrum`` lists them for ``sys``, at which
    PBH fails, given an orthonormal basis of the observable row space.

    An eigenvalue fails when the smallest singular value of B - lambda*I,
    B = W^T A W on the basis's orthogonal complement W, is at most ``tol``
    times the largest of [A; H]: the threshold scales with the system, not
    with B, whose norm can be arbitrarily small.  That singular value is at
    most the distance to B's nearest eigenvalue, so eigenvalues within the
    threshold of one fail without an SVD; those farther than sqrt(tol)
    times the norm pass without one, since a defective pair of modes splits
    by about that much under perturbations at the threshold.  Each
    eigenvalue of B also claims its nearest eigenvalue of A, so the list is
    nonempty exactly when r < n.
    """
    a = r.a
    n, rank = a.shape[0], basis.shape[0]
    if rank == n:
        return ()
    eigenvalues = np.asarray(
        sorted(_spectrum(a, sys), key=lambda z: (z.real, z.imag)), dtype=complex
    )
    if rank == 0:
        # The complete QR of an empty basis is exactly the identity, so
        # the block would be A bit for bit and every eigenvalue would fail.
        return tuple(complex(lam) for lam in eigenvalues)
    q, _ = np.linalg.qr(basis.T, mode="complete")
    w = q[:, rank:]
    block = w.T @ a @ w
    gap = np.abs(eigenvalues[:, None] - _eigvals(block, a)[None, :])
    nearest = gap.min(axis=1)
    # The largest singular value of the n-column stack [A; H] lies in
    # [F / sqrt(n), F], F its Frobenius norm; widened by 1e-9 against
    # rounding, the bounds decide most eigenvalues as the exact scale
    # would, and that scale costs an SVD of the stack.
    frobenius = math.hypot(np.linalg.norm(a), np.linalg.norm(r.h))
    deficient = nearest <= tol * (frobenius / math.sqrt(n) * (1 - 1e-9))
    if (~deficient & (nearest <= math.sqrt(tol) * (frobenius * (1 + 1e-9)))).any():
        scale = np.linalg.norm(np.vstack([a, r.h]), 2)
        deficient = nearest <= tol * scale
        eye = np.eye(n - rank)
        for i in np.flatnonzero(~deficient & (nearest <= math.sqrt(tol) * scale)):
            sv = np.linalg.svd(block - eigenvalues[i] * eye, compute_uv=False)
            deficient[i] = sv[-1] <= tol * scale
    deficient[gap.argmin(axis=0)] = True
    return tuple(complex(lam) for lam in eigenvalues[deficient])


def pbh_check(r, tol=DEFAULT_TOL):
    """Eigenvalues of A at which [A - lambda*I; H] loses column rank.

    They are sorted by (real, imag), one entry per listed copy, and below
    64 states exactly as ``np.linalg.eigvals`` returns them for the raw A;
    from 64 up they come from the components of the system of r's
    nonzeros.  On ``realize(sys, seed)`` the list is bitwise that of
    ``rank_report(sys, seed, tol=tol)``.
    """
    return _unobservable_modes(r, *_lone_basis(r, tol), tol)


@dataclass(frozen=True)
class RankReport:
    """Voting summary of the numeric oracle for one system."""

    n: int
    trials: int
    tol: float
    gramian_rank: int          # modal over trials
    agreement: float           # fraction of trials voting for the mode
    gramian_ranks: tuple       # per-trial ranks
    pbh_rank_deficient_eigenvalues: tuple  # from trial 0
    pbh_observable: tuple      # per-trial eigenvector-test verdicts


def rank_report(sys, seed=DEFAULT_SEED, trials=DEFAULT_TRIALS, tol=DEFAULT_TOL):
    """Per-trial ranks, their modal vote, and the PBH side of the oracle.

    ``pbh_check`` lists an eigenvalue exactly when the rank falls short of
    n, so each trial's PBH verdict is read off its rank; the deficient
    eigenvalues reported are trial 0's.
    """
    ranks, first, first_basis = _trial_ranks(sys, seed, trials, tol)
    modal, agreement = _modal(ranks)
    return RankReport(
        n=sys.n,
        trials=trials,
        tol=tol,
        gramian_rank=modal,
        agreement=agreement,
        gramian_ranks=tuple(ranks),
        pbh_rank_deficient_eigenvalues=_unobservable_modes(first, sys, first_basis, tol),
        pbh_observable=tuple(k == sys.n for k in ranks),
    )


def verify_alpha_equivalence(sys, u, v, seed=DEFAULT_SEED, tol=DEFAULT_TOL):
    """Do sensors at u and v repair the same single structural-rank deficit?

    Checks that a row on u, a row on v, and both rows together each lift
    the structural rank of the bare state pattern by exactly one, then
    confirms the three ranks on a numeric realization.  A state that is
    no int in 1..n raises ``MalformedInputError``, whichever it is.
    """
    _check_nonnegative("seed", seed)
    _check_tol(tol)
    bare = sys.without_measurements()
    base = s_rank(bare)
    probes = [bare.with_sensor_rows(extra) for extra in ([u], [v], [u, v])]
    if any(s_rank(probe, include_h=True) != base + 1 for probe in probes):
        return False
    for probe in probes:
        # Every probe has a sensor value of magnitude at least 0.5, so the
        # largest singular value is positive.
        r = realize(probe, seed, 0)
        sv = np.linalg.svd(np.vstack([r.a, r.h]), compute_uv=False)
        if (sv > tol * sv[0]).sum() != base + 1:
            return False
    return True


def verify_beta_equivalence(
    sys, h_alpha, u, v, seed=DEFAULT_SEED, trials=DEFAULT_TRIALS, tol=DEFAULT_TOL
):
    """Are u and v interchangeable as one extra sensor on top of the
    rank-repairing rows?

    ``h_alpha`` lists the states already carrying rank sensors; the
    system's own measurement rows are ignored so the comparison is made
    against exactly that base.  True when the observability ranks with
    u, with v, and with both agree; when the base is nonempty the common
    value must also exceed the base rank by exactly one.  An empty base
    has no meaningful increment to anchor to (a lone sensor on a k-cycle
    sees all k states), so only the three-way equality is required.
    """
    _check_trials(trials)
    _check_tol(tol)
    h_alpha = _tuple_of("h_alpha", h_alpha)
    base_sys = sys.without_measurements().with_sensor_rows(h_alpha)
    rank_u, rank_v, rank_uv = (
        modal_gramian_rank(base_sys.with_sensor_rows(extra), seed, trials, tol)[0]
        for extra in ([u], [v], [u, v]))
    if not (rank_u == rank_v == rank_uv):
        return False
    if h_alpha:
        return rank_u == modal_gramian_rank(base_sys, seed, trials, tol)[0] + 1
    return True

