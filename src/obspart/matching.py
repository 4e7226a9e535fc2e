"""Maximum matchings, structural rank, and contraction extraction.

The structural rank of [A; H] equals the size of a maximum matching on the
bipartite companion graph.  When the matching leaves begin nodes uncovered,
each uncovered node seeds a *contraction*: the set of states that could
have been the uncovered one under some other maximum matching, i.e. the
begins an alternating path reaches from it (the coarse part of the
Dulmage-Mendelsohn decomposition).  From begin u, every end e in u's row
leads on to the begin matched to e; one search from all seeds at once
finds every set.
"""

from dataclasses import dataclass

from ._kernels import hopcroft_karp, search
from .errors import DegenerateStructureError
from .structure import build_digraph

@dataclass(frozen=True)
class Matching:
    """A matching on a SystemGraph, edges in (begin, end) lexical order."""

    edges: tuple
    unmatched_begin: tuple  # begin state numbers with no matched edge

    @property
    def size(self):
        return len(self.edges)


def maximum_matching(bg):
    """Deterministic maximum matching (Hopcroft-Karp over sorted adjacency)."""
    match_begin, _ = bg.matching
    edges = []
    unmatched = []
    for b, e in enumerate(match_begin, start=1):
        if e >= 0:
            edges.append((b, e + 1))
        else:
            unmatched.append(b)
    return Matching(edges=tuple(edges), unmatched_begin=tuple(unmatched))


def s_rank(sys, include_h=False):
    """Structural rank of A, or of the stacked [A; H] with ``include_h``.

    The stacked graph only adds measurement ends to the bare one, so its
    matching starts from the bare system's and needs at most one
    augmentation per row.
    """
    match_begin, _ = build_digraph(sys.without_measurements()).matching
    if include_h and sys.p:
        g = build_digraph(sys)
        match_begin, _ = hopcroft_karp(g.rows, g.n_end, start=match_begin)
    return len(match_begin) - match_begin.count(-1)


@dataclass(frozen=True)
class Contraction:
    """States interchangeable as the uncovered node of one rank deficit."""

    id: int                 # position after sorting by lowest member
    members: tuple          # ascending state numbers
    witness_unmatched: int  # the unmatched begin node that generated the set


def contractions(bg):
    """One contraction per unmatched begin node, sorted by lowest member.

    Two seeds whose searches reach a common state mean some deficient
    component is short by two or more nodes; no one-set-per-deficit
    decomposition exists there, so that is reported as
    DegenerateStructureError rather than guessed around.  The seeds
    come from the graph's own cold matching, found once per graph.
    """
    match_begin, match_end = bg.matching
    # Stepping via match_end turns each end into the begin matched to it,
    # so the search goes from begin to begin.  It never reads a -1: every
    # row it scans lies on an alternating path from an unmatched begin,
    # and an unmatched end there would be an augmenting path, which a
    # maximum matching leaves none of.
    owner, clashes = search(
        bg.rows, [u if e < 0 else -1 for u, e in enumerate(match_begin)],
        via=match_end)
    if clashes:
        overlaps = tuple((a + 1, b + 1) for a, b in clashes)
        # Name only the first three pairs, so the message stays one short line.
        shown = ", ".join(f"{a} & {b}" for a, b in overlaps[:3])
        more = ", ..." if len(overlaps) > 3 else ""
        raise DegenerateStructureError(
            f"contraction member sets overlap partially ({len(overlaps)} "
            f"clashing seed pairs: {shown}{more}); a deficient component "
            "is short by two or more nodes",
            overlaps=overlaps,
        )
    members = {}
    for state, seed in enumerate(owner, start=1):
        if seed >= 0:
            members.setdefault(seed + 1, []).append(state)
    ordered = sorted((tuple(states), seed) for seed, states in members.items())
    return tuple(
        Contraction(id=idx, members=states, witness_unmatched=seed)
        for idx, (states, seed) in enumerate(ordered)
    )


def system_contractions(sys):
    """Pipeline convenience: contractions of a system's graph."""
    return contractions(build_digraph(sys))
