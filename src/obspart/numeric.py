"""Numeric cross-validation of structural verdicts.

Structural claims ("this pattern is generically observable", "these two
sensor sites are interchangeable") hold for almost every choice of matrix
values.  This module draws concrete realizations — log-uniform magnitudes
in [0.5, 2] with random signs, deterministic per (seed, trial) — and
checks the claims with plain linear algebra.  Each (seed, trial) pair's
generator state is seeded once and kept, so a repeated pair restores it
in place of hashing the seed again, and draws the same values.  One
orthonormal basis of the observable row space, the span of
[H; HA; ...; HA^(n-1)], is grown per realization: only the directions
added at the previous step are multiplied by A, so each step costs one
small SVD, and the trials of one call grow in lockstep, sharing that
SVD.  Its row count is the observability rank, and the restriction of A
to its orthogonal complement carries exactly the unobservable modes, the
eigenvalues at which the eigenvector test on [A - lambda*I; H] fails
(compare Paige's staircase form, IEEE TAC 1981); at rank 0 that is every
eigenvalue of A, listed without a second eigensolve.  Ranks use SVD
thresholds relative to the norm of A, and verdicts are taken as the mode
over several trials so a single unlucky draw near a degenerate surface
cannot flip a result.
"""

import math
import threading
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain

import numpy as np

from .errors import NumericError, ParameterError
from .matching import s_rank
from .partition import theorem_check

DEFAULT_SEED = 42
DEFAULT_TRIALS = 5
DEFAULT_TOL = 1e-8

# Trials realized and grown together; memory is O(_TRIAL_BLOCK * n^2)
# whatever the trial count.
_TRIAL_BLOCK = 8

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


def _check_seed(seed):
    if isinstance(seed, bool) or not (isinstance(seed, int) and seed >= 0):
        raise ParameterError(f"seed must be a non-negative integer, got {seed!r}")


def realize(sys, seed=DEFAULT_SEED, trial=0):
    """Draw values on the pattern; deterministic for a (seed, trial) pair."""
    _check_seed(seed)
    if isinstance(trial, bool) or not (isinstance(trial, int) and trial >= 0):
        raise ParameterError(f"trial must be a non-negative integer, got {trial!r}")
    a, h = _realize_stack(sys, seed, (trial,))
    return NumericRealization(a=a[0], h=h[0], seed=seed, trial=trial)


def _realize_stack(sys, seed, trials):
    """(A, H) stacks of shape (T, n, n) and (T, p, n), one per trial.

    Each trial draws from ``default_rng([seed, trial])``'s initial state
    exactly as a lone ``realize`` would: its uniforms, then its 0/1
    integers.  The magnitudes and signs are formed once for the whole
    stack, and both scatters run once through the kept flat offsets.
    """
    a_offsets, h_offsets = sys.memo(_flat_offsets)
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
    """This thread's generator, built once; callers restore a kept state
    into it before every draw, so its own seed never shows.

    One per thread, because a generator shared by two threads would
    interleave their draws between a restore and the next draw.
    """
    rng = getattr(_thread, "rng", None)
    if rng is None:
        rng = _thread.rng = np.random.Generator(np.random.PCG64(0))
    return rng


def _entries(pattern):
    """A validated pattern's (row, column) entries as an (m, 2) int64 array."""
    flat = np.fromiter(chain.from_iterable(pattern), np.int64, 2 * len(pattern))
    return flat.reshape(-1, 2)


def _flat_offsets(sys):
    """Sorted flat offsets ``(i-1)*n + (j-1)`` of the A and the H entries.

    Both matrices have n columns and j <= n, so offset order is the
    (i, j) order of ``sorted_a()`` and ``sorted_h()``: ``_realize_stack``
    hands out each trial's drawn values in that order.  Kept per system with ``memo``
    as read-only int64 arrays.
    """
    offsets = []
    for pattern in (sys.a_pattern, sys.h_pattern):
        ij = _entries(pattern)
        flat = np.sort((ij[:, 0] - 1) * sys.n + ij[:, 1] - 1)
        flat.flags.writeable = False
        offsets.append(flat)
    return tuple(offsets)


def _svd_rank(matrix, tol):
    if matrix.size == 0:
        return 0
    sv = np.linalg.svd(matrix, compute_uv=False)
    if sv.size == 0 or sv[0] == 0:
        return 0
    return int((sv > tol * sv[0]).sum())


def _observable_bases(a, h, tol):
    """Orthonormal rows spanning the row space of [H; HA; ...; HA^(n-1)],
    grown for a whole stack of realizations in lockstep.

    ``a`` is a (T, n, n) stack the caller owns: each A is scaled in place
    by its max absolute row sum, so powers neither blow up nor decay below
    the threshold (c*A and A scale to the same matrix, and the rows of a
    block pick up s^k > 0, which leaves the rank alone).  ``h`` is a
    (T, p, n) stack.  Returns a (T, n, n) buffer and the row count of
    each trial; trial t's basis is ``basis[t, :counts[t]]``.

    H's row space is taken first, with a threshold relative to its own
    largest singular value.  Each step then multiplies only the frontier,
    the last rows the previous step added, by the scaled A, projects the
    basis out of the product twice (once is not enough to reach working
    precision), and keeps the directions of the remainder above ``tol``,
    at most n - r of them, the largest first: the frontier rows have unit
    length and the scaled A has unit infinity-norm, so ``tol`` is relative
    to both.  A trial stops when a step adds nothing (its basis then spans
    an A-invariant space) or when it holds n rows.  Nothing is multiplied
    by A twice before it is orthonormalized, so genuine directions do not
    decay below the threshold the way the rows of explicit powers do.

    The trials that share a (rank, frontier size) go through each step
    together: one stacked product, two stacked projections and one
    stacked SVD.  Stacked ``matmul`` and ``svd`` run the same BLAS and
    LAPACK routine on each matrix as a lone call, so every basis is
    bitwise the one a trial grown alone would get.
    """
    trials, n = a.shape[0], a.shape[1]
    scale = np.abs(a).sum(axis=2).max(axis=1)
    a /= np.where(scale > 0, scale, 1.0)[:, None, None]
    basis = np.empty((trials, n, n))
    counts = np.zeros(trials, dtype=np.int64)
    frontier = np.zeros(trials, dtype=np.int64)
    live = np.flatnonzero(h.any(axis=(1, 2)))
    if live.size:
        _, sv, vt = np.linalg.svd(h[live], full_matrices=False)
        kept = (sv > tol * sv[:, :1]).sum(axis=1)
        basis[live, :vt.shape[1]] = vt
        counts[live] = frontier[live] = kept
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


def _trial_ranks(sys, seed, trials, tol):
    """Observability rank of each of trials 0..trials-1, with trial 0's
    realization and basis.

    Trials are realized and grown ``_TRIAL_BLOCK`` at a time, so memory
    stays O(block * n^2) however many trials there are.
    """
    _check_seed(seed)
    ranks = []
    for start in range(0, trials, _TRIAL_BLOCK):
        a, h = _realize_stack(sys, seed, range(start, min(start + _TRIAL_BLOCK, trials)))
        if start == 0:
            first = NumericRealization(a=a[0].copy(), h=h[0], seed=seed, trial=0)
        basis, counts = _observable_bases(a, h, tol)
        if start == 0:
            first_basis = basis[0, :counts[0]].copy()
        ranks += counts.tolist()
    return ranks, first, first_basis


def _single_basis(r, tol):
    """The observable basis of one realization, which is left unwritten."""
    basis, counts = _observable_bases(np.array(r.a, dtype=float)[None], r.h[None], tol)
    return basis[0, :counts[0]]


def gramian_rank(r, tol=DEFAULT_TOL):
    """Rank of the stacked observability matrix of one realization.

    It is the row count of the orthonormal basis ``_observable_bases``
    grows one frontier at a time; the powers of A are never formed, and
    each step costs one SVD of at most p rows, so the whole rank is
    O(n^3).
    """
    _check_tol(tol)
    return _single_basis(r, tol).shape[0]


def _modal(ranks):
    """(lowest of the most frequent ranks, the share of votes it has)."""
    counts = Counter(ranks)
    best = max(counts.values())
    return min(r for r, c in counts.items() if c == best), best / len(ranks)


def modal_gramian_rank(sys, seed=DEFAULT_SEED, trials=DEFAULT_TRIALS, tol=DEFAULT_TOL):
    """(modal rank, agreement fraction) over ``trials`` realizations."""
    _check_trials(trials)
    _check_tol(tol)
    return _modal(_trial_ranks(sys, seed, trials, tol)[0])


def _eigvals(matrix, a):
    try:
        return np.linalg.eigvals(matrix)
    except np.linalg.LinAlgError as exc:
        raise NumericError(
            f"eigensolver failed: {exc}\nA = {np.array2string(a)}"
        ) from exc


def _unobservable_modes(r, basis, tol):
    """Eigenvalues of A, as ``np.linalg.eigvals`` lists them, at which PBH
    fails, given an orthonormal basis of the observable row space.

    The orthogonal complement W of the basis is A-invariant and H vanishes
    on it, so in the basis [basis; W^T] the pencil [A - lambda*I; H] has
    the column block [0; B - lambda*I; 0], with B = W^T A W of size
    (n-r) x (n-r).  An eigenvalue of A fails when the smallest singular
    value of B - lambda*I is at most ``tol`` times the largest of [A; H]:
    the threshold scales with the system, not with the block, whose norm
    can be arbitrarily small.

    That singular value is at most the distance from lambda to the
    nearest eigenvalue of B, so eigenvalues within the threshold of one
    fail without an SVD.  Those farther than sqrt(tol) times the norm are
    taken to pass, also without one: a defective pair of modes splits by
    about that much under perturbations at the threshold.  Only the few
    in between cost an SVD of B - lambda*I, which keeps the whole test
    O(n^3).  The norm of [A; H] costs an SVD too, so it is computed only
    when its Frobenius bounds leave some eigenvalue undecided.  Each
    eigenvalue of B also claims its nearest eigenvalue of A, so the list
    is nonempty exactly when r < n, even where the eigensolver splits a
    defective cluster further than the test reaches.
    """
    a = r.a
    n, rank = a.shape[0], basis.shape[0]
    if rank == n:
        return ()
    eigenvalues = np.asarray(
        sorted(_eigvals(a, a), key=lambda z: (z.real, z.imag)), dtype=complex
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

    The eigenvalues are reported exactly as ``np.linalg.eigvals`` returns
    them for the raw A, sorted by (real, imag), one entry per listed copy.
    Which of them fail is decided on the restriction of A to the
    orthogonal complement of the observable row space (see
    ``_unobservable_modes``), which costs one eigensolve of an
    (n-r) x (n-r) block in place of an SVD of the (n+p) x n pencil per
    eigenvalue.
    """
    _check_tol(tol)
    return _unobservable_modes(r, _single_basis(r, tol), tol)


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

    One observable basis per trial, grown for all trials in lockstep,
    serves both the rank and the PBH test.  ``pbh_check`` lists an
    eigenvalue exactly when the rank falls short of n, so each trial's
    PBH verdict is read off its rank, and the eigensolves run for trial 0
    only, whose deficient eigenvalues are reported.
    """
    _check_trials(trials)
    _check_tol(tol)
    ranks, first, first_basis = _trial_ranks(sys, seed, trials, tol)
    modal, agreement = _modal(ranks)
    return RankReport(
        n=sys.n,
        trials=trials,
        tol=tol,
        gramian_rank=modal,
        agreement=agreement,
        gramian_ranks=tuple(ranks),
        pbh_rank_deficient_eigenvalues=_unobservable_modes(first, first_basis, tol),
        pbh_observable=tuple(k == sys.n for k in ranks),
    )


def _stacked_rank(sys, extra_states, seed, tol):
    """Numeric rank of a realized [A; rows on extra_states] stack."""
    probe = sys.without_measurements().with_sensor_rows(extra_states)
    r = realize(probe, seed, 0)
    return _svd_rank(np.vstack([r.a, r.h]), tol)


def verify_alpha_equivalence(sys, u, v, seed=DEFAULT_SEED, tol=DEFAULT_TOL):
    """Do sensors at u and v repair the same single structural-rank deficit?

    Checks that a row on u, a row on v, and both rows together each lift
    the structural rank of the bare state pattern by exactly one, then
    confirms the three ranks on a numeric realization.
    """
    _check_seed(seed)
    _check_tol(tol)
    bare = sys.without_measurements()
    base = s_rank(bare)
    probes = ([u], [v], [u, v])
    structural_ok = all(
        s_rank(bare.with_sensor_rows(extra), include_h=True) == base + 1
        for extra in probes
    )
    if not structural_ok:
        return False
    return all(
        _stacked_rank(sys, extra, seed, tol) == base + 1 for extra in probes
    )


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
    h_alpha = list(h_alpha)
    base_sys = sys.without_measurements().with_sensor_rows(h_alpha)
    base_rank, _ = modal_gramian_rank(base_sys, seed, trials, tol)
    rank_u, _ = modal_gramian_rank(base_sys.with_sensor_rows([u]), seed, trials, tol)
    rank_v, _ = modal_gramian_rank(base_sys.with_sensor_rows([v]), seed, trials, tol)
    rank_uv, _ = modal_gramian_rank(
        base_sys.with_sensor_rows([u, v]), seed, trials, tol
    )
    if not (rank_u == rank_v == rank_uv):
        return False
    if h_alpha:
        return rank_u == base_rank + 1
    return True


def generic_agreement(sys, trials=DEFAULT_TRIALS, seed=DEFAULT_SEED, tol=DEFAULT_TOL):
    """Fraction of realizations whose full-rank verdict matches the
    structural test."""
    _check_trials(trials)
    _check_tol(tol)
    structural = theorem_check(sys).observable
    ranks, _, _ = _trial_ranks(sys, seed, trials, tol)
    return sum((rank == sys.n) == structural for rank in ranks) / trials
