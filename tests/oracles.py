"""Independent oracles the test suite checks the package against.

Everything here is deliberately naive: exhaustive enumeration, dense
linear algebra, permutation search.  None of it shares code with the
package's algorithms, so agreement is meaningful.
"""

import math
from itertools import combinations, permutations

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

import obspart.numeric as numeric
from obspart.errors import (
    MalformedInputError,
    NumericError,
    ParameterError,
    PreconditionError,
)
from obspart.partition import theorem_check
from obspart.structure import MAX_STATES, StructuredSystem


# ---------------------------------------------------------------------------
# bipartite matchings by exhaustive backtracking

def all_maximum_matchings(n_begin, edges):
    """Every maximum matching of a bipartite graph, as begin->end dicts.

    ``edges`` holds 1-based (begin, end) pairs.  Exponential; intended
    for n_begin <= 8.
    """
    adjacency = {b: [] for b in range(1, n_begin + 1)}
    for b, e in edges:
        adjacency[b].append(e)
    found = []

    def extend(begin, used_ends, current):
        if begin > n_begin:
            found.append(dict(current))
            return
        extend(begin + 1, used_ends, current)  # leave this begin unmatched
        for end in adjacency[begin]:
            if end not in used_ends:
                current[begin] = end
                extend(begin + 1, used_ends | {end}, current)
                del current[begin]

    extend(1, frozenset(), {})
    best = max(len(m) for m in found)
    seen = set()
    out = []
    for m in found:
        if len(m) == best:
            key = frozenset(m.items())
            if key not in seen:
                seen.add(key)
                out.append(m)
    return out


def possible_unmatched_sets(n_begin, edges):
    """Set of frozensets: unmatched begins of each maximum matching."""
    out = set()
    for m in all_maximum_matchings(n_begin, edges):
        out.add(frozenset(b for b in range(1, n_begin + 1) if b not in m))
    return out


def rank_class_sets(n_begin, edges):
    """Sorted rank classes by matching swaps, or None when degenerate.

    Fix one maximum matching with unmatched begins U.  The set of u in U
    is every b for which U - {u} + {b} is the unmatched set of some
    maximum matching.  The classes are degenerate when two sets meet.
    """
    first = all_maximum_matchings(n_begin, edges)[0]
    unmatched = frozenset(b for b in range(1, n_begin + 1) if b not in first)
    possible = possible_unmatched_sets(n_begin, edges)
    sets = [
        tuple(b for b in range(1, n_begin + 1)
              if (unmatched - {u}) | {b} in possible)
        for u in sorted(unmatched)
    ]
    for x, y in combinations(sets, 2):
        if set(x) & set(y):
            return None
    return sorted(sets)


def horizontal_parts(n_begin, edges):
    """(members, k) of each connected part of the Dulmage-Mendelsohn
    horizontal block, sorted, from the unmatched sets alone.

    The members are the begins some maximum matching leaves unmatched.
    Two of them share a part when swapping one for the other in some
    matching's unmatched set gives another's; k counts a part's members
    in an unmatched set, the same number in every one.
    """
    possible = possible_unmatched_sets(n_begin, edges)
    union = sorted(set().union(*possible))
    part = {b: frozenset([b]) for b in union}
    for s in possible:
        for u in s:
            for v in union:
                if v not in s and (s - {u}) | {v} in possible:
                    merged = part[u] | part[v]
                    for w in merged:
                        part[w] = merged
    out = []
    for members in set(part.values()):
        counts = {len(s & members) for s in possible}
        assert len(counts) == 1, "a part's deficit differs between matchings"
        out.append((tuple(sorted(members)), counts.pop()))
    return sorted(out)


def max_matching_size(rows):
    """Size of a maximum matching of begins to ends, ``rows[u]`` listing
    the ends of begin u, by trying every end (or none) for each begin."""
    def best(u, used):
        if u == len(rows):
            return 0
        skip = best(u + 1, used)
        return max([skip] + [1 + best(u + 1, used | {v})
                             for v in rows[u] if v not in used])
    return best(0, frozenset())


# ---------------------------------------------------------------------------
# class bookkeeping by literal pairwise scans

def overlap_edges(alpha, beta):
    """(i, j) for every alpha class i that meets beta class j."""
    return [
        (i, j)
        for i, a_cls in enumerate(alpha)
        for j, b_cls in enumerate(beta)
        if set(a_cls) & set(b_cls)
    ]


def greedy_row_labels(row_states, alpha, beta):
    """Each class in turn, alpha first, takes the first free row touching it.

    ``row_states`` maps rows, in ascending order, to their state sets.
    """
    labels = {row: "gamma" for row in row_states}
    for family, classes in (("alpha", alpha), ("beta", beta)):
        for cls in classes:
            for row in row_states:
                if labels[row] == "gamma" and row_states[row] & set(cls):
                    labels[row] = family
                    break
    return tuple(labels.values())


# ---------------------------------------------------------------------------
# brute-force numeric observability

def _realized(n, a_entries, sensor_states, trial):
    rng = np.random.default_rng([7717, trial])
    a = np.zeros((n, n))
    for (i, j) in sorted(a_entries):
        sign = 1 if rng.random() < 0.5 else -1
        a[i - 1, j - 1] = sign * rng.uniform(0.5, 2.0)
    h = np.zeros((len(sensor_states), n))
    for row, s in enumerate(sorted(sensor_states)):
        sign = 1 if rng.random() < 0.5 else -1
        h[row, s - 1] = sign * rng.uniform(0.5, 2.0)
    return a, h


def _pbh_observable(a, h):
    """Eigenvector test: no eigenvalue of A may hide in ker(H).

    Chosen over the power-stack rank because it forms no matrix powers,
    so its conditioning does not degrade with n; this keeps the oracle's
    verdict trustworthy on the same systems it judges.
    """
    n = a.shape[0]
    eye = np.eye(n)
    for lam in np.linalg.eigvals(a):
        sv = np.linalg.svd(np.vstack([a - lam * eye, h]), compute_uv=False)
        if sv[0] == 0 or sv[-1] <= 1e-8 * sv[0]:
            return False
    return True


def numeric_observable(n, a_entries, sensor_states, trials=3):
    """Majority observability verdict over random realizations."""
    votes = 0
    for trial in range(trials):
        a, h = _realized(n, a_entries, sensor_states, trial)
        if _pbh_observable(a, h):
            votes += 1
    return votes * 2 > trials


def brute_min_sensors(n, a_entries, trials=3):
    """(count, witness): smallest dedicated-sensor set that is observable."""
    for size in range(n + 1):
        for combo in combinations(range(1, n + 1), size):
            if size == 0:
                continue
            if numeric_observable(n, a_entries, combo, trials):
                return size, combo
    return n, tuple(range(1, n + 1))


def minimum_sensor_sets(sys):
    """(sets, count): every smallest set of states, ascending, whose
    single-state sensors make the bare system generically observable,
    found by ``theorem_check`` on every subset, smallest first.  Reads no
    class."""
    bare = sys.without_measurements()
    for size in range(bare.n + 1):
        sets = [combo for combo in combinations(range(1, bare.n + 1), size)
                if theorem_check(bare.with_sensor_rows(combo)).observable]
        if sets:
            return sets, size
    raise AssertionError("the bare system is unobservable with every state measured")


# ---------------------------------------------------------------------------
# graph oracles

def cycle_family_covers(members, arcs):
    """Is there a family of disjoint cycles covering ``members`` exactly?

    Equivalent to a permutation sigma of the members with every
    (s, sigma(s)) an arc.  Permutation search; |members| <= 6 intended.
    """
    members = list(members)
    arc_set = set(arcs)
    for sigma in permutations(members):
        if all((s, t) in arc_set for s, t in zip(members, sigma)):
            return True
    return False


def bfs_reach(n_nodes, arcs, seeds):
    """Plain forward BFS over 0-based arcs; returns a set of nodes."""
    adjacency = {v: [] for v in range(n_nodes)}
    for s, d in arcs:
        adjacency[s].append(d)
    seen = set(seeds)
    frontier = list(seeds)
    while frontier:
        v = frontier.pop()
        for w in adjacency[v]:
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return seen


def brute_sccs(n_nodes, arcs):
    """SCCs via pairwise reachability; returns frozensets of 0-based nodes."""
    reach = [frozenset(bfs_reach(n_nodes, arcs, [v])) for v in range(n_nodes)]
    comps = set()
    for v in range(n_nodes):
        comps.add(frozenset(
            w for w in range(n_nodes) if w in reach[v] and v in reach[w]
        ))
    return comps


def obs_stack(a, h):
    """The plain observability stack [H; HA; HA^2; ...; HA^(n-1)]."""
    blocks = [h]
    for _ in range(a.shape[0] - 1):
        blocks.append(blocks[-1] @ a)
    return np.vstack(blocks)


# ---------------------------------------------------------------------------
# exact generic observability rank over a prime field

PRIME = 2**31 - 19


def _mulmod(x, y):
    """x @ y mod PRIME for int64 arrays with entries in [0, PRIME).

    ``x`` is split into 16-bit halves, so every partial sum stays inside
    int64 for inner dimensions up to 2**15.
    """
    hi, lo = x >> 16, x & 0xFFFF
    return ((hi @ y) % PRIME * 65536 + lo @ y) % PRIME


def _gf_extend(rref, pivots, rows):
    """Add the independent part of ``rows`` to a reduced echelon basis.

    Returns (rref, pivots, added rows).
    """
    added = []
    for row in rows:
        if pivots:
            row = (row - _mulmod(row[pivots][None, :], rref)[0]) % PRIME
        nonzero = np.flatnonzero(row)
        if nonzero.size == 0:
            continue
        c = int(nonzero[0])
        row = row * pow(int(row[c]), PRIME - 2, PRIME) % PRIME
        rref = (rref - np.outer(rref[:, c], row)) % PRIME
        rref = np.vstack([rref, row])
        pivots = pivots + [c]
        added.append(row)
    return rref, pivots, added


def exact_krylov_rank(n, a_entries, h_entries, seed=0, draws=2):
    """Generic rank of [H; HA; ...; HA^(n-1)] from values drawn in GF(PRIME).

    ``h_entries`` holds 1-based (row, state) pairs.  A draw can only fall
    below the generic rank, with probability at most about n / PRIME
    (Schwartz-Zippel), so the larger of ``draws`` draws is exact in
    practice.  Only rows that entered the basis at the previous step are
    multiplied by A again: their span together with the basis is the
    Krylov space so far.
    """
    rng = np.random.default_rng(seed)
    p = max((r for r, _ in h_entries), default=0)
    best = 0
    for _ in range(draws):
        a = np.zeros((n, n), dtype=np.int64)
        h = np.zeros((p, n), dtype=np.int64)
        for (i, j) in sorted(a_entries):
            a[i - 1, j - 1] = rng.integers(1, PRIME)
        for (r, j) in sorted(h_entries):
            h[r - 1, j - 1] = rng.integers(1, PRIME)
        rref, pivots, frontier = _gf_extend(np.zeros((0, n), np.int64), [], h)
        while frontier:
            grown = _mulmod(np.vstack(frontier), a)
            rref, pivots, frontier = _gf_extend(rref, pivots, grown)
        best = max(best, len(pivots))
    return best


# ---------------------------------------------------------------------------
# numeric realizations, one entry at a time

def realize_reference(sys, seed, trial):
    """(A, H) of ``obspart.realize``, scattered entry by entry in (i, j) order."""
    rng = np.random.default_rng([seed, trial])
    a_entries = sorted(sys.a_pattern)
    h_entries = sorted(sys.h_pattern)
    count = len(a_entries) + len(h_entries)
    magnitudes = np.exp(rng.uniform(math.log(0.5), math.log(2.0), size=count))
    signs = rng.integers(0, 2, size=count) * 2 - 1
    values = magnitudes * signs
    a = np.zeros((sys.n, sys.n))
    h = np.zeros((sys.p, sys.n))
    for k, (i, j) in enumerate(a_entries):
        a[i - 1, j - 1] = values[k]
    for k, (i, j) in enumerate(h_entries):
        h[i - 1, j - 1] = values[len(a_entries) + k]
    return a, h


def system_to_dict(sys, names=None):
    """SystemFile document for a system; round-trips through load."""
    doc = {
        "n": sys.n,
        "p": sys.p,
        "a": [list(e) for e in sorted(sys.a_pattern)],
        "h": [list(e) for e in sorted(sys.h_pattern)],
    }
    if names is not None:
        doc["names"] = list(names)
    return doc


# ---------------------------------------------------------------------------
# measurement necessity by deleting the row

def is_necessary(sys, row):
    """Would deleting this measurement row lose generic observability?

    Brute force: one ``theorem_check`` of the system and one of the
    system without the row, the reference for a one-pass necessity test.
    """
    if isinstance(row, bool) or not (isinstance(row, int) and 1 <= row <= sys.p):
        raise ParameterError(
            f"row must be a measurement index in 1..{sys.p}, got {row!r}"
        )
    if not theorem_check(sys).observable:
        raise PreconditionError(
            "necessity is defined only for generically observable systems"
        )
    return not theorem_check(sys.without_row(row)).observable


# ---------------------------------------------------------------------------
# pattern validation, one entry at a time

def check_pattern_reference(name, pattern, n_rows, n_cols):
    """The entry-by-entry pattern check, raising on the first bad entry or
    on the first entry that an earlier one already holds."""
    count = {}
    for entry in pattern:
        if (
            not isinstance(entry, tuple)
            or len(entry) != 2
            or not all(isinstance(v, int) and not isinstance(v, bool) for v in entry)
        ):
            raise MalformedInputError(
                f"{name} entry {entry!r} is not a pair of integers"
            )
        i, j = entry
        if not (1 <= i <= n_rows and 1 <= j <= n_cols):
            raise MalformedInputError(
                f"{name} entry ({i}, {j}) out of range for a "
                f"{n_rows}x{n_cols} pattern"
            )
        count[i, j] = count.get((i, j), 0) + 1
        if count[i, j] == 2:
            letter = name.split("_")[0]
            raise MalformedInputError(f"duplicate {letter} pattern entry ({i}, {j})")


# ---------------------------------------------------------------------------
# the system file loader, entry list by entry list

def _entry_list_reference(raw, key):
    if not isinstance(raw, list):
        raise MalformedInputError(f'"{key}" must be a list of [row, column] pairs')
    entries = []
    for item in raw:
        if not (isinstance(item, list) and len(item) == 2):
            raise MalformedInputError(
                f'"{key}" entry {item!r} is not a [row, column] pair'
            )
        entries.append((item[0], item[1]))
    return entries


def system_from_dict_reference(doc):
    """The loader's checked route, checked here: the JSON shape, each
    entry list, n, p, then every A entry and every H entry one at a time,
    before ``StructuredSystem.from_entries`` builds what passed."""
    if not isinstance(doc, dict):
        raise MalformedInputError("system file must contain a JSON object")
    for key in doc:
        if key not in ("n", "p", "a", "h", "names"):
            raise MalformedInputError(f'unknown key "{key}" in system file')
    for key in ("n", "p", "a", "h"):
        if key not in doc:
            raise MalformedInputError(f'system file is missing key "{key}"')
    for key in ("n", "p"):
        if not isinstance(doc[key], int) or isinstance(doc[key], bool):
            raise MalformedInputError(f'"{key}" must be an integer')
    n, p = doc["n"], doc["p"]
    a_entries = _entry_list_reference(doc["a"], "a")
    h_entries = _entry_list_reference(doc["h"], "h")
    if n < 1:
        raise MalformedInputError(f"n must be a positive integer, got {n!r}")
    if n > MAX_STATES:
        raise MalformedInputError(f"n must be at most {MAX_STATES}, got {n}")
    if p < 0:
        raise MalformedInputError(f"p must be a non-negative integer, got {p!r}")
    if p > MAX_STATES:
        raise MalformedInputError(f"p must be at most {MAX_STATES}, got {p}")
    check_pattern_reference("a_pattern", a_entries, n, n)
    check_pattern_reference("h_pattern", h_entries, p, n)
    sys = StructuredSystem.from_entries(n, p, a_entries, h_entries)
    names = None
    if "names" in doc:
        names = doc["names"]
        if (
            not isinstance(names, list)
            or len(names) != sys.n
            or not all(isinstance(s, str) for s in names)
        ):
            raise MalformedInputError(
                f'"names" must be a list of {sys.n} strings, one per state'
            )
        names = tuple(names)
    return sys, names


# ---------------------------------------------------------------------------
# the observable basis of one realization, grown on its own

def normalized_a(a):
    # Scale by the max absolute row sum so powers neither blow up nor decay
    # below the rank threshold; c*A and A normalize to the same matrix, so
    # rank verdicts are scale-invariant.  Block rows pick up s^k > 0, which
    # leaves the rank untouched.
    scale = np.abs(a).sum(axis=1).max()
    if scale > 0:
        return a / scale
    return a


def observable_basis_reference(r, tol):
    """Orthonormal rows spanning the row space of [H; HA; ...; HA^(n-1)].

    H's row space is taken first, with a threshold relative to its own
    largest singular value.  Each step then multiplies only the frontier,
    the directions the previous step added, by the normalized A, projects
    the basis out of the product twice (once is not enough to reach
    working precision), and keeps the directions of the remainder above
    ``tol``: the frontier rows have unit length and the normalized A has
    unit infinity-norm, so ``tol`` is relative to both.  The loop stops
    when a step adds nothing: the basis then spans an A-invariant space.
    Nothing is multiplied by A twice before it is orthonormalized, so
    genuine directions do not decay below the threshold the way the rows
    of explicit powers do.
    """
    a = normalized_a(r.a)
    n = a.shape[0]
    if not r.h.any():
        return np.zeros((0, n))
    _, sv, vt = np.linalg.svd(r.h, full_matrices=False)
    basis = vt[sv > tol * sv[0]]
    frontier = basis
    while frontier.shape[0] and basis.shape[0] < n:
        grown = frontier @ a
        for _ in range(2):
            grown -= (grown @ basis.T) @ basis
        _, sv, vt = np.linalg.svd(grown, full_matrices=False)
        frontier = vt[sv > tol]
        basis = np.vstack([basis, frontier])
    return basis


# ---------------------------------------------------------------------------
# the PBH test on the block outside the observable basis, at every rank

def _eigvals(matrix, a):
    try:
        return np.linalg.eigvals(matrix)
    except np.linalg.LinAlgError as exc:
        raise NumericError(
            f"eigensolver failed: {exc}\nA = {np.array2string(a)}"
        ) from exc


def spectrum_reference(a):
    """Eigenvalues of A: from ``numeric._COMPONENT_SPECTRUM_STATES``
    states up, one unstacked ``eigvals`` per diagonal block of a strongly
    connected component of A's nonzeros, found by scipy.

    The blocks go in order of (size, lowest state), the order in which
    ``numeric._spectrum`` lists its stacks, so that eigenvalues which
    compare equal, such as 0.0 and -0.0, sort alike in both.  Below the
    gate, or for one component, it is one ``eigvals`` of the whole A.
    """
    n = a.shape[0]
    if n < numeric._COMPONENT_SPECTRUM_STATES:
        return _eigvals(a, a)
    count, labels = connected_components(csr_matrix(a != 0), connection="strong")
    blocks = sorted((np.flatnonzero(labels == c) for c in range(count)),
                    key=lambda states: (len(states), states[0]))
    return np.concatenate([_eigvals(a[np.ix_(states, states)], a) for states in blocks])


def unobservable_modes_reference(r, basis, tol):
    """The PBH test as it was before rank 0 skipped the block eigensolve,
    on the spectrum of ``spectrum_reference``.

    The bitwise reference for ``pbh_check`` and ``rank_report``:
    eigenvalues of A at which PBH fails, given an orthonormal basis of
    the observable row space.

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
    O(n^3).  Each eigenvalue of B also claims its nearest eigenvalue of
    A, so the list is nonempty exactly when r < n, even where the
    eigensolver splits a defective cluster further than the test reaches.
    """
    a = r.a
    n, rank = a.shape[0], basis.shape[0]
    if rank == n:
        return ()
    eigenvalues = np.asarray(
        sorted(spectrum_reference(a), key=lambda z: (z.real, z.imag)), dtype=complex
    )
    q, _ = np.linalg.qr(basis.T, mode="complete")
    w = q[:, rank:]
    block = w.T @ a @ w
    scale = np.linalg.norm(np.vstack([a, r.h]), 2)
    gap = np.abs(eigenvalues[:, None] - _eigvals(block, a)[None, :])
    nearest = gap.min(axis=1)
    deficient = nearest <= tol * scale
    eye = np.eye(n - rank)
    for i in np.flatnonzero(~deficient & (nearest <= math.sqrt(tol) * scale)):
        sv = np.linalg.svd(block - eigenvalues[i] * eye, compute_uv=False)
        deficient[i] = sv[-1] <= tol * scale
    deficient[gap.argmin(axis=0)] = True
    return tuple(complex(lam) for lam in eigenvalues[deficient])


# ---------------------------------------------------------------------------
# Hopcroft-Karp with a BFS from every free begin in every phase

def hopcroft_karp_reference(indptr, indices, n_begin, n_end, start=None):
    """The matching kernel as it was before it pruned hopeless roots.

    Kept verbatim as the bitwise reference for ``_kernels.hopcroft_karp``:
    maximum bipartite matching; returns (match_begin, match_end).

    ``indices`` lists end-node ids adjacent to each begin node.  Unmatched
    nodes carry -1; both arrays are int64.  Begin nodes are scanned in
    ascending order and adjacency rows are pre-sorted, so the matching is
    deterministic.

    ``start``, when given, is the ``match_begin`` array of a matching on
    this graph to augment from instead of the empty one: any matching
    will do (Hopcroft & Karp 1973), and one close to maximum leaves few
    phases.  It is copied, never written.
    """
    indptr = indptr.tolist()
    indices = indices.tolist()
    inf = n_begin + n_end + 1
    match_end = [-1] * n_end
    if start is None:
        match_begin = [-1] * n_begin
    else:
        match_begin = start.tolist()
        for u, e in enumerate(match_begin):
            if e != -1:
                match_end[e] = u
    # Begins only ever gain a match, and within a phase only as the root
    # of their own search, so the free ones form a shrinking list that
    # keeps the ascending scan order.
    free = [u for u in range(n_begin) if match_begin[u] == -1]

    while True:
        # BFS phase: layer begin nodes by alternating distance from the
        # free ones; shortest augmenting length ends the scan.
        dist = [inf] * n_begin
        for u in free:
            dist[u] = 0
        queue = free[:]
        shortest = inf
        for u in queue:  # the loop also visits the begins appended below
            d = dist[u] + 1
            if d > shortest:
                continue
            for v in indices[indptr[u]:indptr[u + 1]]:
                w = match_end[v]
                if w == -1:
                    if shortest == inf:
                        shortest = d
                elif dist[w] == inf:
                    dist[w] = d
                    queue.append(w)
        if shortest == inf:
            break

        # DFS phase: augment along length-`shortest` paths only.  ``path``
        # holds the begins from the free root down, ``ends[i]`` the end
        # that leads from path[i] on, ``pos[i]`` the next slot of path[i].
        for s in free:
            path = [s]
            pos = [indptr[s]]
            ends = []
            while path:
                u = path[-1]
                d = dist[u] + 1
                for k in range(pos[-1], indptr[u + 1]):
                    v = indices[k]
                    w = match_end[v]
                    if w == -1:
                        if d == shortest:
                            break
                    elif dist[w] == d:
                        break
                else:
                    # dead end: no shortest path runs through u this phase
                    dist[u] = inf
                    path.pop()
                    pos.pop()
                    if ends:
                        ends.pop()
                    continue
                pos[-1] = k + 1
                ends.append(v)
                if w == -1:
                    for b, e in zip(path, ends):
                        match_begin[b] = e
                        match_end[e] = b
                    break
                path.append(w)
                pos.append(indptr[w])
        free = [u for u in free if match_begin[u] == -1]
    return np.array(match_begin, np.int64), np.array(match_end, np.int64)


# ---------------------------------------------------------------------------
# rows <-> CSR, for handing the kernels' row graphs to CSR references

def rows_from_pairs(n_nodes, pairs):
    """One tuple of ascending ends per node, from (node, end) pairs."""
    rows = [[] for _ in range(n_nodes)]
    for u, v in pairs:
        rows[u].append(v)
    return tuple(tuple(sorted(row)) for row in rows)


def rows_to_csr(rows):
    """(indptr, indices) int64 arrays holding the same rows."""
    indptr = np.zeros(len(rows) + 1, np.int64)
    np.cumsum([len(row) for row in rows], out=indptr[1:])
    indices = np.array([v for row in rows for v in row], np.int64)
    return indptr, indices


def csr_to_rows(indptr, indices):
    """The rows of a CSR, one tuple of ints per node."""
    indptr, indices = np.asarray(indptr).tolist(), np.asarray(indices).tolist()
    return tuple(tuple(indices[a:b]) for a, b in zip(indptr, indptr[1:]))
