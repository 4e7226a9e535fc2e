"""Sparsity patterns and the graphs derived from them.

A system is described purely by which entries of the state matrix A (n x n)
and the measurement matrix H (p x n) may be nonzero.  Entries are 1-based
(row, column) pairs, matching the on-disk format.  From the pattern we build

* the system digraph: state nodes ``x1..xn``, measurement nodes ``y1..yp``,
  with an arc ``xj -> xi`` for each (i, j) in the A pattern and
  ``xj -> yi`` for each (i, j) in the H pattern (an entry a_ij means state
  j drives state i), and
* its bipartite companion: every state appears as a *begin* node, every
  state and measurement as an *end* node, and each digraph arc v -> w
  becomes the undirected pair (v+, w-).  Maximum matchings on this graph
  compute structural ranks.

Begin nodes are identified by state number (1..n).  End nodes use a single
integer range 1..n+p: values up to n are state ends, the rest are
measurement ends (``end_label`` renders them as ``x3`` / ``y1``).
"""

from dataclasses import dataclass, field

import numpy as np

from ._kernels import csr_from_edges, reachable
from .errors import MalformedInputError


def _check_pattern(name, pattern, n_rows, n_cols):
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


@dataclass(frozen=True)
class StructuredSystem:
    """Sparsity pattern of an LTI pair (A, H); values are never stored."""

    n: int
    p: int
    a_pattern: frozenset = field(default_factory=frozenset)
    h_pattern: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 1:
            raise MalformedInputError(f"n must be a positive integer, got {self.n!r}")
        if not isinstance(self.p, int) or self.p < 0:
            raise MalformedInputError(f"p must be a non-negative integer, got {self.p!r}")
        object.__setattr__(self, "a_pattern", frozenset(self.a_pattern))
        object.__setattr__(self, "h_pattern", frozenset(self.h_pattern))
        _check_pattern("a_pattern", self.a_pattern, self.n, self.n)
        _check_pattern("h_pattern", self.h_pattern, self.p, self.n)

    @classmethod
    def from_entries(cls, n, p, a_entries, h_entries=()):
        """Build a system from entry lists, rejecting duplicates.

        File parsers come through here: a repeated (i, j) pair is a sign
        of a malformed input rather than something to merge silently.
        """
        a_entries = [tuple(e) for e in a_entries]
        h_entries = [tuple(e) for e in h_entries]
        for name, entries in (("a", a_entries), ("h", h_entries)):
            seen = set()
            for e in entries:
                if e in seen:
                    raise MalformedInputError(f"duplicate {name} pattern entry {e}")
                seen.add(e)
        return cls(n=n, p=p, a_pattern=frozenset(a_entries), h_pattern=frozenset(h_entries))

    def sorted_a(self):
        return sorted(self.a_pattern)

    def sorted_h(self):
        return sorted(self.h_pattern)

    def row_states(self, row):
        """States measured by row ``row`` (1-based), ascending."""
        if not 1 <= row <= self.p:
            raise MalformedInputError(f"row {row} out of range for p={self.p}")
        return tuple(sorted(j for (i, j) in self.h_pattern if i == row))

    def with_sensor_rows(self, states):
        """Append one single-state measurement row per listed state."""
        extra = []
        for k, s in enumerate(states):
            if not 1 <= s <= self.n:
                raise MalformedInputError(f"sensor state {s} out of range for n={self.n}")
            extra.append((self.p + k + 1, s))
        return StructuredSystem(
            n=self.n,
            p=self.p + len(extra),
            a_pattern=self.a_pattern,
            h_pattern=self.h_pattern | set(extra),
        )

    def without_row(self, row):
        """Drop measurement row ``row`` (1-based) and renumber the rest."""
        if not 1 <= row <= self.p:
            raise MalformedInputError(f"row {row} out of range for p={self.p}")
        kept = []
        for (i, j) in self.h_pattern:
            if i == row:
                continue
            kept.append((i - 1, j) if i > row else (i, j))
        return StructuredSystem(
            n=self.n, p=self.p - 1,
            a_pattern=self.a_pattern, h_pattern=frozenset(kept),
        )

    def without_measurements(self):
        """The bare state pattern: every measurement row dropped."""
        return StructuredSystem(n=self.n, p=0, a_pattern=self.a_pattern)


def state_node(i):
    return f"x{i}"


def measurement_node(i):
    return f"y{i}"


def end_label(sys_or_n, end):
    """Render a unified end id (1..n+p) as ``x<i>`` or ``y<i>``."""
    n = sys_or_n if isinstance(sys_or_n, int) else sys_or_n.n
    return state_node(end) if end <= n else measurement_node(end - n)


@dataclass(frozen=True)
class SystemDigraph:
    """Directed influence graph over labeled state/measurement nodes."""

    n: int
    p: int
    edges: tuple  # ((src_label, dst_label), ...) sorted

    @property
    def state_nodes(self):
        return tuple(state_node(i) for i in range(1, self.n + 1))

    @property
    def measurement_nodes(self):
        return tuple(measurement_node(i) for i in range(1, self.p + 1))

    @property
    def nodes(self):
        return self.state_nodes + self.measurement_nodes

    def node_index(self, label):
        """Unified 0-based index: states first, then measurements."""
        if isinstance(label, str) and len(label) > 1:
            kind, digits = label[0], label[1:]
            if digits.isdigit():
                i = int(digits)
                if kind == "x" and 1 <= i <= self.n:
                    return i - 1
                if kind == "y" and 1 <= i <= self.p:
                    return self.n + i - 1
        raise MalformedInputError(f"unknown node id {label!r}")

    def int_edges(self):
        return [(self.node_index(s), self.node_index(d)) for s, d in self.edges]


def build_digraph(sys):
    """System digraph of a sparsity pattern; one arc per pattern entry."""
    edges = []
    for (i, j) in sorted(sys.a_pattern, key=lambda e: (e[1], e[0])):
        edges.append((state_node(j), state_node(i)))
    for (i, j) in sorted(sys.h_pattern, key=lambda e: (e[1], e[0])):
        edges.append((state_node(j), measurement_node(i)))
    return SystemDigraph(n=sys.n, p=sys.p, edges=tuple(edges))


@dataclass(frozen=True)
class BipartiteGraph:
    """Begin/end split of a system digraph for matching computations.

    ``edges`` holds (begin_state, end_id) pairs in (begin, end) lexical
    order; begin_state is a 1-based state number, end_id runs over the
    unified 1..n+p end range.
    """

    n: int
    p: int
    edges: tuple

    @property
    def n_begin(self):
        return self.n

    @property
    def n_end(self):
        return self.n + self.p

    def csr(self):
        """0-based CSR adjacency from begin nodes to end nodes."""
        zero_based = [(b - 1, e - 1) for (b, e) in self.edges]
        return csr_from_edges(self.n_begin, zero_based)


def build_bipartite(dg):
    """Bipartite companion of a digraph: arc v->w becomes pair (v+, w-)."""
    pairs = set()
    for src, dst in dg.edges:
        begin = int(src[1:])  # arcs always leave a state node
        di = dg.node_index(dst)
        pairs.add((begin, di + 1))
    return BipartiteGraph(n=dg.n, p=dg.p, edges=tuple(sorted(pairs)))


def reverse_reachable(dg, targets):
    """All nodes with a directed path into ``targets`` (targets included)."""
    target_idx = [dg.node_index(t) for t in targets]
    n_nodes = dg.n + dg.p
    reversed_edges = [(d, s) for (s, d) in dg.int_edges()]
    indptr, indices = csr_from_edges(n_nodes, reversed_edges)
    seeds = np.zeros(n_nodes, dtype=np.uint8)
    for t in target_idx:
        seeds[t] = 1
    mask = reachable(indptr, indices, n_nodes, seeds)
    labels = dg.nodes
    return frozenset(labels[i] for i in range(n_nodes) if mask[i])
