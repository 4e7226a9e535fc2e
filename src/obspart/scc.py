"""Strongly connected components, sink detection, and accessibility.

Components are computed over state nodes only; measurement nodes never
join a component.  A component is a *parent* when none of its states has
an arc into a different component — arcs into measurement nodes do not
count against parenthood.  A component is *matched* when its internal
bipartite restriction admits a perfect matching (equivalently, a family
of disjoint cycles covers all of its states; a singleton qualifies only
through a self-loop).

Measurement ends leave every component and flag alone, so both
``decompose`` and ``accessibility_check`` work on the bare graph's state
rows, and accessibility searches the reversed state arcs that the bare
graph keeps, from the measured states.
"""

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate, chain, compress
from operator import eq, not_

from ._kernels import hopcroft_karp, search, tarjan_scc
from .errors import InconsistencyError, PreconditionError
from .structure import build_digraph, split


@dataclass(frozen=True)
class SccDecomposition:
    components: tuple    # tuples of ascending state numbers, sorted by lowest member
    parent_flags: tuple  # bool per component: no arc into another component
    matched_flags: tuple  # bool per component: internal perfect matching exists
    # (src_comp, dst_comp) tuples with one entry per arc between components
    cross_arcs: tuple = field(repr=False, compare=False)

    @cached_property
    def order(self):
        """Condensation DAG as sorted (src_comp, dst_comp) index pairs.

        Built on first read: no report needs it.
        """
        return tuple(sorted(set(zip(*self.cross_arcs))))

    def component_of(self, state):
        for idx, comp in enumerate(self.components):
            if state in comp:
                return idx
        raise PreconditionError(f"state {state} not in any component")

    def parent_components(self):
        return tuple(i for i, flag in enumerate(self.parent_flags) if flag)


def decompose(dg):
    """SCC decomposition of the state part of a system graph."""
    bare = dg.bare
    n, rows = bare.n, bare.rows
    comp_raw, n_comp = tarjan_scc(rows)

    # States are scanned in ascending order, so a component first shows up
    # at its lowest member: first-appearance order is the sorted order.
    renumber = dict(zip(dict.fromkeys(comp_raw), range(n_comp)))
    comp = list(map(renumber.__getitem__, comp_raw))
    # A stable sort by component keeps each component's states ascending.
    states = tuple([u + 1 for u in sorted(range(n), key=comp.__getitem__)])
    sizes = Counter(comp)
    components = split(states, list(accumulate(
        map(sizes.__getitem__, range(n_comp)), initial=0)))

    # Every arc's (source, target) components, flat in row order.
    ends = list(chain.from_iterable(rows))
    cs = [c for c, row in zip(comp, rows) for _ in row]
    cd = list(map(comp.__getitem__, ends))
    inside = list(map(eq, cs, cd))
    cross_src = tuple(compress(cs, map(not_, inside)))
    cross_dst = tuple(compress(cd, map(not_, inside)))
    sources = set(cross_src)

    # Intra-component arcs form a block-diagonal bipartite graph, so one
    # maximum matching is maximum on every block: a component has a
    # perfect matching iff all of its states are matched.  A row with no
    # arc out of its component is kept as it is.  The matching starts
    # from the bare one less the pairs that leave their component.
    kept = tuple(compress(ends, inside))
    at = list(accumulate(inside, initial=0))
    bounds = list(map(at.__getitem__, accumulate(map(len, rows), initial=0)))
    internal = tuple(row if hi - lo == len(row) else kept[lo:hi]
                     for row, lo, hi in zip(rows, bounds, bounds[1:]))
    start = [e if e >= 0 and comp[e] == c else -1
             for e, c in zip(bare.matching[0], comp)]
    match_begin, _ = hopcroft_karp(internal, n, start=start)
    short = {c for c, e in zip(comp, match_begin) if e < 0}

    return SccDecomposition(
        components=components,
        parent_flags=tuple(c not in sources for c in range(n_comp)),
        matched_flags=tuple(c not in short for c in range(n_comp)),
        cross_arcs=(cross_src, cross_dst),
    )


def accessibility_check(dg):
    """Split the states by whether a directed path reaches a measurement.

    Returns ``(accessible, inaccessible)``, both ascending tuples.  A
    state reaches a measurement exactly when it reaches a measured state,
    whose row ends with a measurement end, so one search runs from the
    measured states over the reversed state arcs.
    """
    n = dg.n
    if dg.p == 0:
        return (), tuple(range(1, n + 1))
    labels, _ = search(dg.reverse,
                       [0 if row and row[-1] >= n else -1 for row in dg.rows])
    states = range(1, n + 1)
    return (tuple(compress(states, map((0).__eq__, labels))),
            tuple(compress(states, labels)))


def block_form_certificate(sys):
    """State order putting inaccessible states first.

    Permuting A and H by the returned order exposes the unobservable
    block: the lower-left block of A and the leading columns of H are
    structurally zero.  Both zero blocks are verified entry by entry
    before returning.
    """
    dg = build_digraph(sys)
    _, inaccessible = accessibility_check(dg)
    if not inaccessible:
        raise PreconditionError("system has no inaccessible states")
    inacc = set(inaccessible)
    order = tuple(sorted(inacc)) + tuple(s for s in range(1, sys.n + 1) if s not in inacc)

    for (i, j) in sys.a_pattern:
        if i not in inacc and j in inacc:
            raise InconsistencyError(
                f"a_pattern entry ({i}, {j}) crosses into the zero block"
            )
    for (i, j) in sys.h_pattern:
        if j in inacc:
            raise InconsistencyError(
                f"h_pattern entry ({i}, {j}) measures an inaccessible state"
            )
    return order
