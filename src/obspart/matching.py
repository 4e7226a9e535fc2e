"""Structural rank and the rank classes (contractions).

Each function reads the matching and rows the given system keeps.  The
README's "Graph core" section says how one search along alternating
paths of a maximum matching finds every rank class.
"""

from dataclasses import dataclass

from ._kernels import search
from .errors import DegenerateStructureError


def s_rank(sys, include_h=False):
    """Structural rank of A, or of the stacked [A; H] with ``include_h``."""
    match_begin, _ = (sys if include_h else sys.without_measurements()).matching
    return len(match_begin) - match_begin.count(-1)


@dataclass(frozen=True)
class Contraction:
    """States interchangeable as the uncovered node of one rank deficit."""

    id: int                 # position after sorting by lowest member
    members: tuple          # ascending state numbers


def contractions(sys):
    """The rank classes: the connected parts of the system graph's
    Dulmage-Mendelsohn horizontal block, one per unmatched begin, sorted
    by lowest member.

    A part short by two or more nodes leaves no decomposition with one
    class per deficit, so that raises DegenerateStructureError rather than
    being guessed around.
    """
    match_begin, match_end = sys.matching
    # Stepping via match_end turns each end into the begin matched to it,
    # so the search goes from begin to begin.  It never reads a -1: every
    # row it scans lies on an alternating path from an unmatched begin,
    # and an unmatched end there would be an augmenting path, which a
    # maximum matching leaves none of.
    owner, clashes = search(
        sys.rows, [u if e < 0 else -1 for u, e in enumerate(match_begin)],
        via=match_end)
    # States come in ascending order, so each seed first appears at its
    # lowest member and the classes come out sorted.
    members = {}
    for state, seed in enumerate(owner, start=1):
        if seed >= 0:
            members.setdefault(seed, []).append(state)
    if clashes:
        raise _degenerate(members, clashes)
    return tuple(Contraction(id=idx, members=tuple(states))
                 for idx, states in enumerate(members.values()))


def _degenerate(members, clashes):
    """The error naming the parts that clashing seeds join, each short by its seeds."""
    parent = {seed: seed for seed in members}

    def root(u):
        while parent[u] != u:
            parent[u] = u = parent[parent[u]]
        return u

    for a, b in clashes:
        parent[root(b)] = root(a)
    parts = {}  # root seed: [lowest state, number of seeds]
    for seed, states in members.items():
        part = parts.setdefault(root(seed), [states[0], 0])
        part[1] += 1
    components = tuple(map(tuple, parts.values()))
    short = [f"lowest state {low}: short by {k}" for low, k in components if k > 1]
    more = "; ..." if len(short) > 3 else ""
    return DegenerateStructureError(
        "contraction member sets overlap partially: some deficient component "
        f"is short by two or more nodes ({'; '.join(short[:3])}{more})",
        components=components)


def system_contractions(sys):
    """Pipeline convenience: ``contractions(sys)``."""
    return contractions(sys)
