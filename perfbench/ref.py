"""Independent references for every verdict the benchmark checks.

Nothing here imports obspart or shares its algorithms: structural rank,
matchings, SCCs and reachability come from ``scipy.sparse.csgraph``, and
the generic observability rank is computed exactly over a prime field.

A pattern is given as 1-based entry lists: ``a`` holds (i, j) pairs of
the n x n state matrix (state j drives state i), ``h`` holds (row, j)
pairs of the measurement matrix.
"""

from dataclasses import dataclass
from itertools import combinations

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import (
    breadth_first_order,
    connected_components,
    maximum_bipartite_matching,
    structural_rank,
)

# Prime small enough that a row (entries < P) times an n x n block stays
# inside int64 for n up to a few hundred: n * P**2 < 2**63.
PRIME = 100_000_007


def _csr(n_rows, n_cols, rows, cols):
    data = np.ones(len(rows), dtype=np.int8)
    return sp.csr_matrix((data, (np.asarray(rows, dtype=np.int64),
                                 np.asarray(cols, dtype=np.int64))),
                         shape=(n_rows, n_cols))


def tail_head(n, a):
    """Bipartite tail -> head adjacency of the state pattern (0-based)."""
    return _csr(n, n, [j - 1 for _, j in a], [i - 1 for i, _ in a])


def s_rank(n, a, h):
    """Structural rank of the stacked pattern [A; H]."""
    p = max((r for r, _ in h), default=0)
    rows = [i - 1 for i, _ in a] + [n + r - 1 for r, _ in h]
    cols = [j - 1 for _, j in a] + [j - 1 for _, j in h]
    if not rows:
        return 0
    return int(structural_rank(_csr(n + p, n, rows, cols)))


def inaccessible(n, a, sensed):
    """States with no directed path to a sensed state (1-based, ascending).

    ``sensed`` lists the states that some measurement row reads.
    """
    if not sensed:
        return tuple(range(1, n + 1))
    # Reversed digraph plus a super-source (node n) pointing at every
    # sensed state: one BFS from n finds every state that reaches a sensor.
    rows = [i - 1 for i, _ in a] + [n] * len(sensed)
    cols = [j - 1 for _, j in a] + [s - 1 for s in sensed]
    order = breadth_first_order(_csr(n + 1, n + 1, rows, cols), n,
                                directed=True, return_predecessors=False)
    reached = np.zeros(n + 1, dtype=bool)
    reached[order] = True
    return tuple(int(s) + 1 for s in np.flatnonzero(~reached[:n]))


def observable(n, a, h):
    """Generic observability: every state reaches a sensor, full s-rank."""
    sensed = sorted({j for _, j in h})
    return not inaccessible(n, a, sensed) and s_rank(n, a, h) == n


def sensors_observe(n, a, states):
    """Do single-state sensors on ``states`` make the bare pattern observable?"""
    return observable(n, a, [(k + 1, s) for k, s in enumerate(states)])


def rank_classes(n, a):
    """Rank classes of the bare state pattern, or None when two overlap.

    A rank class is the set of states an alternating path reaches from
    one unmatched begin node of a maximum matching, i.e. the states that
    can be left uncovered in its place.
    """
    bip = tail_head(n, a)
    match = maximum_bipartite_matching(bip, perm_type="column")  # begin -> end
    match_end = np.full(n, -1, dtype=np.int64)
    matched_begin = np.flatnonzero(match >= 0)
    match_end[match[matched_begin]] = matched_begin
    # Begin b steps to begin b' when b has an edge to the end matched to b'.
    coo = bip.tocoo()
    target = match_end[coo.col]
    keep = target >= 0
    step = _csr(n, n, coo.row[keep], target[keep])
    classes = set()
    for u in np.flatnonzero(match < 0):
        order = breadth_first_order(step, int(u), directed=True,
                                    return_predecessors=False)
        classes.add(tuple(sorted(int(b) + 1 for b in order)))
    ordered = sorted(classes)
    seen = set()
    for cls in ordered:
        if seen.intersection(cls):
            return None
        seen.update(cls)
    return tuple(ordered)


def access_classes(n, a):
    """Matched parent SCCs: no arc leaves them, and a cycle family covers them."""
    adj = tail_head(n, a)
    n_comp, labels = connected_components(adj, directed=True, connection="strong")
    coo = adj.tocoo()
    cross = labels[coo.row] != labels[coo.col]
    is_parent = np.ones(n_comp, dtype=bool)
    is_parent[labels[coo.row[cross]]] = False
    out = []
    for comp in np.flatnonzero(is_parent):
        members = np.flatnonzero(labels == comp)
        inner = adj[members][:, members]
        if (maximum_bipartite_matching(inner, perm_type="column") >= 0).all():
            out.append(tuple(int(s) + 1 for s in members))
    return tuple(sorted(out))


def _overlap_matching(alpha, beta):
    rows, cols = [], []
    for i, a_cls in enumerate(alpha):
        for j, b_cls in enumerate(beta):
            if set(a_cls) & set(b_cls):
                rows.append(i)
                cols.append(j)
    if not alpha or not beta:
        return np.full(len(alpha), -1), np.full(len(beta), -1)
    m = _csr(len(alpha), len(beta), rows, cols)
    by_alpha = maximum_bipartite_matching(m, perm_type="column")
    by_beta = np.full(len(beta), -1, dtype=np.int64)
    hit = np.flatnonzero(by_alpha >= 0)
    by_beta[by_alpha[hit]] = hit
    return by_alpha, by_beta


def placement_count(alpha, beta):
    """Fewest sensors hitting every class: a shared state per overlap matched."""
    by_alpha, _ = _overlap_matching(alpha, beta)
    return len(alpha) + len(beta) - int((by_alpha >= 0).sum())


def placement_witness(alpha, beta):
    """One minimal hitting set of the two class families."""
    by_alpha, by_beta = _overlap_matching(alpha, beta)
    picks = []
    for i, a_cls in enumerate(alpha):
        j = by_alpha[i]
        picks.append(min(set(a_cls) & set(beta[j])) if j >= 0 else min(a_cls))
    picks += [min(b_cls) for j, b_cls in enumerate(beta) if by_beta[j] < 0]
    return tuple(sorted(picks))


def all_hitting_sets(alpha, beta, count):
    """Every set of ``count`` states that hits each class."""
    classes = [set(c) for c in alpha + beta]
    candidates = sorted(set().union(*classes)) if classes else []
    return sorted(c for c in combinations(candidates, count)
                  if all(cls.intersection(c) for cls in classes))


def without(classes, forbidden):
    """Classes with forbidden states removed; None if one empties."""
    out = tuple(tuple(s for s in cls if s not in forbidden) for cls in classes)
    return None if any(not cls for cls in out) else out


def row_labels(p, h, alpha, beta):
    """alpha/beta/gamma per measurement row: each class is claimed by the
    lowest unclaimed row that reads one of its states."""
    reads = {r: set() for r in range(1, p + 1)}
    for r, j in h:
        reads[r].add(j)
    labels = {r: "gamma" for r in reads}
    for family, classes in (("alpha", alpha), ("beta", beta)):
        for cls in classes:
            for r in range(1, p + 1):
                if labels[r] == "gamma" and reads[r].intersection(cls):
                    labels[r] = family
                    break
    return [labels[r] for r in range(1, p + 1)]


def _reduce(rref, pivots, rows):
    """Reduce ``rows`` against a reduced row echelon basis, mod PRIME."""
    if pivots:
        rows = (rows - rows[:, pivots] @ rref) % PRIME
    return rows


def _extend(rref, pivots, rows):
    """Add the independent part of ``rows`` to the basis; returns new rows."""
    added = []
    for row in rows:
        row = _reduce(rref, pivots, row[None, :])[0]
        nonzero = np.flatnonzero(row)
        if nonzero.size == 0:
            continue
        c = int(nonzero[0])
        row = row * pow(int(row[c]), PRIME - 2, PRIME) % PRIME
        if pivots:
            rref = (rref - np.outer(rref[:, c], row)) % PRIME
        rref = np.vstack([rref, row]) if pivots else row[None, :]
        pivots = pivots + [c]
        added.append(row)
    return rref, pivots, added


def krylov_rank(n, a, h, rng):
    """Rank of [H; HA; ...; HA^(n-1)] for values drawn in GF(PRIME)."""
    if not h:
        return 0
    p = max(r for r, _ in h)
    av = np.zeros((n, n), dtype=np.int64)
    hv = np.zeros((p, n), dtype=np.int64)
    av[[i - 1 for i, _ in a], [j - 1 for _, j in a]] = rng.integers(1, PRIME, len(a))
    hv[[r - 1 for r, _ in h], [j - 1 for _, j in h]] = rng.integers(1, PRIME, len(h))
    rref, pivots, frontier = _extend(np.zeros((0, n), dtype=np.int64), [], hv)
    while frontier:
        grown = np.vstack(frontier) @ av % PRIME
        rref, pivots, frontier = _extend(rref, pivots, grown)
    return len(pivots)


def generic_obs_rank(n, a, h, seed):
    """Generic rank of the observability matrix: the larger of two draws.

    A draw can only fall below the generic rank (with probability at
    most about n / PRIME), so the maximum of two is exact in practice.
    """
    rng = np.random.default_rng(seed)
    return max(krylov_rank(n, a, h, rng) for _ in range(2))


@dataclass(frozen=True)
class Reference:
    """Every verdict the benchmark checks for one pattern."""

    n: int
    s_rank: int
    inaccessible: tuple
    observable: bool
    alpha: tuple
    beta: tuple
    obs_rank: int  # -1 when not computed (structural-only workloads)


def reference(n, a, h, *, numeric_seed=None):
    sensed = sorted({j for _, j in h})
    inacc = inaccessible(n, a, sensed)
    rank = s_rank(n, a, h)
    alpha = rank_classes(n, a)
    if alpha is None:
        raise ValueError("pattern is outside the partition domain")
    obs_rank = -1
    if numeric_seed is not None:
        obs_rank = generic_obs_rank(n, a, h, numeric_seed)
    return Reference(n=n, s_rank=rank, inaccessible=inacc,
                     observable=not inacc and rank == n,
                     alpha=alpha, beta=access_classes(n, a), obs_rank=obs_rank)
