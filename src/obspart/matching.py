"""Maximum matchings, structural rank, and contraction extraction.

The structural rank of [A; H] equals the size of a maximum matching on the
bipartite companion graph.  When the matching leaves begin nodes uncovered,
each uncovered node seeds a *contraction*: the set of states that could
have been the uncovered one under some other maximum matching.  Those sets
are found on the auxiliary graph, where unmatched pairs keep their
begin-to-end direction and matched pairs are reversed — walking it from an
unmatched seed enumerates the begins reachable by alternating paths.
"""

from dataclasses import dataclass

import numpy as np

from ._kernels import csr_from_edges, hopcroft_karp, reachable
from .errors import DegenerateStructureError, InconsistencyError
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
    match_begin, _ = hopcroft_karp(bg.indptr, bg.indices, bg.n_begin, bg.n_end)
    edges = []
    unmatched = []
    for b in range(bg.n_begin):
        if match_begin[b] >= 0:
            edges.append((b + 1, int(match_begin[b]) + 1))
        else:
            unmatched.append(b + 1)
    return Matching(edges=tuple(edges), unmatched_begin=tuple(unmatched))


def s_rank(sys, include_h=False):
    """Structural rank of A, or of the stacked [A; H] with ``include_h``."""
    if not include_h:
        sys = sys.without_measurements()
    return maximum_matching(build_digraph(sys)).size


@dataclass(frozen=True)
class AuxiliaryGraph:
    """Directed orientation of a bipartite graph relative to a matching.

    Nodes use one 0-based range: begins are 0..n-1, end node e (1..n+p)
    sits at n+e-1.  Unmatched pairs point begin -> end, matched pairs
    end -> begin.
    """

    n: int
    p: int
    arcs: tuple

    @property
    def n_nodes(self):
        return 2 * self.n + self.p

    def csr(self):
        return csr_from_edges(self.n_nodes, self.arcs)


def build_auxiliary(bg, m):
    """Orient ``bg`` around matching ``m``; m must be a matching of bg."""
    pairs = bg.edges
    pair_set = set(pairs)
    seen_begin = set()
    seen_end = set()
    matched = set()
    for (b, e) in m.edges:
        if (b, e) not in pair_set:
            raise InconsistencyError(f"matching edge ({b}, {e}) is not in the graph")
        if b in seen_begin or e in seen_end:
            raise InconsistencyError(f"matching reuses a node at edge ({b}, {e})")
        seen_begin.add(b)
        seen_end.add(e)
        matched.add((b, e))
    arcs = []
    for (b, e) in pairs:
        bi = b - 1
        ei = bg.n + e - 1
        if (b, e) in matched:
            arcs.append((ei, bi))
        else:
            arcs.append((bi, ei))
    return AuxiliaryGraph(n=bg.n, p=bg.p, arcs=tuple(sorted(arcs)))


@dataclass(frozen=True)
class Contraction:
    """States interchangeable as the uncovered node of one rank deficit."""

    id: int                 # position after sorting by lowest member
    members: tuple          # ascending state numbers
    witness_unmatched: int  # the unmatched begin node that generated the set


def contractions(aux, m):
    """One contraction per unmatched begin node, sorted by lowest member.

    Seeds whose member sets coincide are merged.  Partially overlapping
    member sets mean some deficient component is short by two or more
    nodes; no one-set-per-deficit decomposition exists there, so that is
    reported as DegenerateStructureError rather than guessed around.
    """
    indptr, indices = aux.csr()
    merged = {}
    for seed in m.unmatched_begin:
        seeds = np.zeros(aux.n_nodes, dtype=np.uint8)
        seeds[seed - 1] = 1
        mask = reachable(indptr, indices, aux.n_nodes, seeds)
        members = tuple(i + 1 for i in range(aux.n) if mask[i])
        merged.setdefault(members, seed)
    ordered = sorted(merged.items())

    overlaps = []
    for i in range(len(ordered)):
        for j in range(i + 1, len(ordered)):
            ma, sa = ordered[i]
            mb, sb = ordered[j]
            if set(ma) & set(mb):
                overlaps.append((sa, ma, sb, mb))
    if overlaps:
        pairs = "; ".join(
            f"seed {sa} -> {list(ma)} vs seed {sb} -> {list(mb)}"
            for (sa, ma, sb, mb) in overlaps
        )
        raise DegenerateStructureError(
            f"contraction member sets overlap partially ({pairs}); "
            "a deficient component is short by two or more nodes",
            overlaps=overlaps,
        )
    return tuple(
        Contraction(id=idx, members=members, witness_unmatched=seed)
        for idx, (members, seed) in enumerate(ordered)
    )


def system_contractions(sys):
    """Pipeline convenience: contractions of a system's graph."""
    bg = build_digraph(sys)
    m = maximum_matching(bg)
    aux = build_auxiliary(bg, m)
    return contractions(aux, m)
