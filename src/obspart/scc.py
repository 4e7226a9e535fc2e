"""Strongly connected components, sink detection, and accessibility.

Components are computed over state nodes only; measurement nodes never
join a component.  A component is a *parent* when none of its states has
an arc into a different component — arcs into measurement nodes do not
count against parenthood.  A component is *matched* when its internal
bipartite restriction admits a perfect matching (equivalently, a family
of disjoint cycles covers all of its states; a singleton qualifies only
through a self-loop).
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ._kernels import csr_from_edges, hopcroft_karp, search, tarjan_scc
from .errors import InconsistencyError, PreconditionError
from .structure import build_digraph


@dataclass(frozen=True)
class SccDecomposition:
    components: tuple    # tuples of ascending state numbers, sorted by lowest member
    parent_flags: tuple  # bool per component: no arc into another component
    matched_flags: tuple  # bool per component: internal perfect matching exists
    # (src_comp, dst_comp) arrays with one entry per arc between components
    cross_arcs: tuple = field(repr=False, compare=False)

    @cached_property
    def order(self):
        """Condensation DAG as sorted (src_comp, dst_comp) index pairs.

        Built on first read: no report needs it.
        """
        src, dst = self.cross_arcs
        return tuple(sorted(set(zip(src.tolist(), dst.tolist()))))

    def component_of(self, state):
        for idx, comp in enumerate(self.components):
            if state in comp:
                return idx
        raise PreconditionError(f"state {state} not in any component")

    def parent_components(self):
        return tuple(i for i, flag in enumerate(self.parent_flags) if flag)


def decompose(dg):
    """SCC decomposition of the state part of a system graph."""
    n = dg.n
    src, dst = dg.arcs()
    if dg.p:
        states = dst < n
        src, dst = src[states], dst[states]
        csr = csr_from_edges(n, np.column_stack([src, dst]))
    else:
        # Every pair of a bare graph ends at a state: its CSR is the state CSR.
        csr = dg.indptr, dg.indices
    comp_raw, n_comp = tarjan_scc(*csr, n)

    # States are scanned in ascending order, so a component first shows up
    # at its lowest member: insertion order is the sorted order.
    groups = {}
    for state, c in enumerate(comp_raw.tolist(), start=1):
        groups.setdefault(c, []).append(state)
    components = tuple(tuple(members) for members in groups.values())
    renumber = np.empty(n_comp, np.int64)
    renumber[list(groups)] = np.arange(n_comp)
    comp = renumber[comp_raw]

    cs, cd = comp[src], comp[dst]
    cross = cs != cd
    is_parent = np.ones(n_comp, bool)
    is_parent[cs[cross]] = False

    # Intra-component arcs form a block-diagonal bipartite graph, so one
    # maximum matching is maximum on every block: a component has a
    # perfect matching iff all of its states are matched.  It starts from
    # the graph's matching less the pairs that leave their component.
    internal = csr_from_edges(n, np.column_stack([src[~cross], dst[~cross]]))
    start = dg.matching[0].copy()
    inside = (start >= 0) & (start < n)
    inside[inside] = comp[inside] == comp[start[inside]]
    start[~inside] = -1
    match_begin, _ = hopcroft_karp(*internal, n, n, start=start)
    short = np.bincount(comp[match_begin < 0], minlength=n_comp)

    return SccDecomposition(
        components=components,
        parent_flags=tuple(is_parent.tolist()),
        matched_flags=tuple((short == 0).tolist()),
        cross_arcs=(cs[cross], cd[cross]),
    )


def accessibility_check(dg):
    """Split the states by whether a directed path reaches a measurement.

    Returns ``(accessible, inaccessible)``, both ascending tuples.
    """
    if dg.p == 0:
        return (), tuple(range(1, dg.n + 1))
    src, dst = dg.arcs()
    # One search from every measurement, labelled 0, over reversed arcs.
    labels, _ = search(*csr_from_edges(dg.n + dg.p, np.column_stack([dst, src])),
                       np.repeat([-1, 0], [dg.n, dg.p]))
    states = range(1, dg.n + 1)
    return (tuple(s for s in states if labels[s - 1] >= 0),
            tuple(s for s in states if labels[s - 1] < 0))


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
