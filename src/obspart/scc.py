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
rows.  ``decompose`` cuts each row to its own component in one pass: a
component that loses an arc is no parent, and the cut rows carry the
internal matching.  Accessibility searches the bare graph's kept
reverse, the state arcs reversed, from the measured states.
"""

from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress

from ._kernels import hopcroft_karp, inside, search, tarjan_scc
from .errors import InconsistencyError, PreconditionError
from .structure import build_digraph


@dataclass(frozen=True)
class SccDecomposition:
    components: tuple    # tuples of ascending state numbers, sorted by lowest member
    parent_flags: tuple  # bool per component: no arc into another component
    matched_flags: tuple  # bool per component: internal perfect matching exists
    comp: tuple = field(repr=False, compare=False)  # component index per state, 0-based
    rows: tuple = field(repr=False, compare=False)  # the bare graph's state rows

    @cached_property
    def order(self):
        """Condensation DAG as sorted (src_comp, dst_comp) index pairs.

        Built on first read: no report needs it.
        """
        comp = self.comp
        return tuple(sorted({(comp[u], comp[v]) for u, row in enumerate(self.rows)
                             for v in row if comp[u] != comp[v]}))

    def component_of(self, state):
        if type(state) is int and 1 <= state <= len(self.comp):
            return self.comp[state - 1]
        raise PreconditionError(f"state {state} not in any component")

    def parent_components(self):
        return tuple(i for i, flag in enumerate(self.parent_flags) if flag)


def decompose(dg):
    """SCC decomposition of the state part of a system graph."""
    bare = dg.bare
    n, rows = bare.n, bare.rows
    comp_raw, n_comp = tarjan_scc(rows)

    # States are scanned in ascending order, so each group lists its states
    # ascending and the groups come in order of their lowest member.
    groups = {}
    for state, c in enumerate(comp_raw, start=1):
        groups.setdefault(c, []).append(state)
    renumber = dict(zip(groups, range(n_comp)))
    comp = tuple(map(renumber.__getitem__, comp_raw))

    # Intra-component arcs form a block-diagonal bipartite graph, so one
    # maximum matching is maximum on every block: a component has a
    # perfect matching iff all of its states are matched.  The matching
    # starts from the bare one less the pairs that leave their component.
    internal, sources = inside(rows, comp)
    start = [e if e >= 0 and comp[e] == c else -1
             for e, c in zip(bare.matching[0], comp)]
    match_begin, _ = hopcroft_karp(internal, n, start=start)
    short = {c for c, e in zip(comp, match_begin) if e < 0}

    return SccDecomposition(
        components=tuple(map(tuple, groups.values())),
        parent_flags=tuple(c not in sources for c in range(n_comp)),
        matched_flags=tuple(c not in short for c in range(n_comp)),
        comp=comp,
        rows=rows,
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
    accessible, inaccessible = accessibility_check(build_digraph(sys))
    if not inaccessible:
        raise PreconditionError("system has no inaccessible states")
    inacc = set(inaccessible)

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
    return inaccessible + accessible
