"""Strongly connected components, sink detection, and accessibility.

Components hold states only.  The README's "Graph core" section defines
parent components and says which rows each check reads.
"""

from dataclasses import dataclass, field
from itertools import compress

from ._kernels import search, tarjan_scc


@dataclass(frozen=True)
class SccDecomposition:
    """Components and parent flags of a graph's states.

    Two decompositions are equal when their components and parent flags are.
    """

    components: tuple    # tuples of ascending state numbers, sorted by lowest member
    parent_flags: tuple  # bool per component: no arc into another component
    comp: tuple = field(repr=False, compare=False)  # component index per state, 0-based


def decompose(sys):
    """SCC decomposition of the state part of a system's graph."""
    return _decompose(sys.without_measurements().rows)


def _decompose(rows):
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
    )


def accessibility_check(sys):
    """Split the states by whether a directed path reaches a measurement.

    Returns ``(accessible, inaccessible)``, both ascending tuples.  A
    state reaches a measurement exactly when it reaches a state that H
    measures, so one search runs from those over the reversed state arcs.
    """
    n = sys.n
    seeds = [-1] * n
    for _, state in sys.h_pattern:
        seeds[state - 1] = 0
    labels, _ = search(sys.reverse, seeds)
    states = range(1, n + 1)
    return (tuple(compress(states, map((0).__eq__, labels))),
            tuple(compress(states, labels)))

