"""Sparsity patterns and the graph derived from them.

A system is described purely by which entries of the state matrix A (n x n)
and the measurement matrix H (p x n) may be nonzero.  Entries are 1-based
(row, column) pairs, matching the on-disk format.  Every structural layer
reads one integer graph per system, built on first use and cached:

* each A entry (i, j) becomes the pair (j, i), since state j drives state i;
* each H entry (i, j) becomes the pair (j, n + i), state j feeding
  measurement i.

Pairs are (state, end) with ends in one range 1..n+p: values up to n are
states, the rest measurements.  Read as arcs, the pairs are the system
digraph; read as (begin, end) pairs, they are its bipartite companion,
whose maximum matchings compute structural ranks.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ._kernels import csr_from_edges
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
            if isinstance(s, bool) or not isinstance(s, int):
                raise MalformedInputError(f"sensor state {s!r} is not an integer")
            if not 1 <= s <= self.n:
                raise MalformedInputError(f"sensor state {s} out of range for n={self.n}")
            extra.append((self.p + k + 1, s))
        return self._derived(self.p + len(extra), self.h_pattern.union(extra))

    def without_row(self, row):
        """Drop measurement row ``row`` (1-based) and renumber the rest."""
        if not 1 <= row <= self.p:
            raise MalformedInputError(f"row {row} out of range for p={self.p}")
        kept = []
        for (i, j) in self.h_pattern:
            if i == row:
                continue
            kept.append((i - 1, j) if i > row else (i, j))
        return self._derived(self.p - 1, frozenset(kept))

    def without_measurements(self):
        """The bare state pattern: every measurement row dropped.

        Built once per system, so every layer shares the bare graph.
        """
        return self if self.p == 0 else self._bare

    @cached_property
    def _bare(self):
        return self._derived(0, frozenset())

    def _derived(self, p, h_pattern):
        """This system's A pattern with new measurement rows.

        A was validated when this system was built and the callers check
        every row they add, so ``__post_init__`` is not run again.
        """
        derived = object.__new__(StructuredSystem)
        for name, value in (("n", self.n), ("p", p),
                            ("a_pattern", self.a_pattern), ("h_pattern", h_pattern)):
            object.__setattr__(derived, name, value)
        return derived

    @cached_property
    def graph(self):
        """The system's SystemGraph, built on first use."""
        pairs = [(j - 1, i - 1) for (i, j) in self.a_pattern]
        pairs += [(j - 1, self.n + i - 1) for (i, j) in self.h_pattern]
        indptr, indices = csr_from_edges(self.n, pairs)
        # Every layer shares these arrays, so none may write to them.
        indptr.flags.writeable = indices.flags.writeable = False
        return SystemGraph(n=self.n, p=self.p, indptr=indptr, indices=indices)


@dataclass(frozen=True, eq=False)
class SystemGraph:
    """The pairs of [A; H] as a CSR, shared by every structural layer.

    ``indptr`` and ``indices`` hold the 0-based pairs: one row per state,
    ends ascending within a row.  Only the two arrays are kept, because a
    graph lives as long as its system.
    """

    n: int
    p: int
    indptr: np.ndarray
    indices: np.ndarray

    @property
    def n_begin(self):
        return self.n

    @property
    def n_end(self):
        return self.n + self.p

    @property
    def edges(self):
        """The 1-based (state, end) pairs in lexical order."""
        src, dst = self.arcs()
        return tuple(zip((src + 1).tolist(), (dst + 1).tolist()))

    def arcs(self):
        """0-based (state, end) index arrays, in pair order."""
        return np.repeat(np.arange(self.n), np.diff(self.indptr)), self.indices


def build_digraph(sys):
    """The system's graph: one pair per pattern entry, built once."""
    return sys.graph


def build_bipartite(g):
    """The bipartite companion of ``g``, which is ``g`` itself.

    One SystemGraph serves as both the digraph and its companion.  The
    function stays because the acceptance tests still compose
    ``build_bipartite(build_digraph(sys))``.
    """
    return g
