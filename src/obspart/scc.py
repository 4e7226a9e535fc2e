"""Strongly connected components, sink detection, and accessibility.

Components hold states only.  The README's "Graph core" section defines
parent components and says which rows each check reads.
"""

from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress

from ._kernels import search, tarjan_scc
from .errors import InconsistencyError, PreconditionError


@dataclass(frozen=True)
class SccDecomposition:
    """Components, parent flags and the condensation of a graph's states.

    Two decompositions are equal when their components and parent flags are.
    """

    components: tuple    # tuples of ascending state numbers, sorted by lowest member
    parent_flags: tuple  # bool per component: no arc into another component
    comp: tuple = field(repr=False, compare=False)  # component index per state, 0-based
    rows: tuple = field(repr=False, compare=False)  # the bare system's state rows

    @cached_property
    def order(self):
        """Condensation DAG as sorted (src_comp, dst_comp) index pairs,
        built on first read: no report needs it."""
        comp = self.comp
        return tuple(sorted({(comp[u], comp[v]) for u, row in enumerate(self.rows)
                             for v in row if comp[u] != comp[v]}))

    def component_of(self, state):
        if type(state) is int and 1 <= state <= len(self.comp):
            return self.comp[state - 1]
        raise PreconditionError(f"state {state} not in any component")

    def parent_components(self):
        return tuple(i for i, flag in enumerate(self.parent_flags) if flag)


def decompose(sys):
    """SCC decomposition of the state part of a system's graph."""
    rows = sys.without_measurements().rows
    comp_raw, n_comp, exits = tarjan_scc(rows)

    # States are scanned in ascending order, so each group lists its states
    # ascending and the groups come in order of their lowest member.
    groups = {}
    for state, c in enumerate(comp_raw, start=1):
        groups.setdefault(c, []).append(state)
    renumber = dict(zip(groups, range(n_comp)))

    return SccDecomposition(
        components=tuple(map(tuple, groups.values())),
        parent_flags=tuple(c not in exits for c in groups),
        comp=tuple(map(renumber.__getitem__, comp_raw)),
        rows=rows,
    )


def accessibility_check(sys):
    """Split the states by whether a directed path reaches a measurement.

    Returns ``(accessible, inaccessible)``, both ascending tuples.  A
    state reaches a measurement exactly when it reaches a measured state,
    whose row ends with a measurement end, so one search runs from the
    measured states over the reversed state arcs.
    """
    n = sys.n
    if sys.p == 0:
        return (), tuple(range(1, n + 1))
    labels, _ = search(sys.reverse,
                       [0 if row and row[-1] >= n else -1 for row in sys.rows])
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
    accessible, inaccessible = accessibility_check(sys)
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
