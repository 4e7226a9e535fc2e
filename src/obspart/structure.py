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
whose maximum matchings compute structural ranks.  The graph keeps them
0-based as rows, one tuple of ascending ends per state.

Systems derived from one another by adding or dropping measurement rows
share one bare system.  Its graph is the only one built from the A
pattern.  The others copy its rows and replace only those of measured
states, each by the bare row followed by the state's measurement ends,
so every unmeasured row is the bare graph's own tuple.  The bare graph
finds one maximum matching, from which the matchings of the graphs that
only add ends to it start, and keeps the reversed state arcs that every
accessibility check searches.
"""

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain

import numpy as np

from ._kernels import hopcroft_karp
from .errors import MalformedInputError


def _check_pattern(name, pattern, n_rows, n_cols):
    if _plain_in_range(pattern, n_rows, n_cols):
        return
    # An entry is bad or of a subclass: check entry by entry, so that the
    # first bad entry is the one named.
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


def _plain_in_range(pattern, n_rows, n_cols):
    """True when every entry is a tuple of two ints inside the bounds.

    Only exact ``tuple`` and ``int`` pass, so a bool, a numpy integer or
    any subclass fails here and is left to the entry-by-entry check.
    Every pass runs in C, one per property, with no numpy call, which
    would cost more than it saves on small patterns.
    """
    if not pattern:
        return True
    if set(map(type, pattern)) != {tuple} or set(map(len, pattern)) != {2}:
        return False
    flat = list(chain.from_iterable(pattern))
    if set(map(type, flat)) != {int}:
        return False
    rows, cols = flat[0::2], flat[1::2]
    return (1 <= min(rows) and max(rows) <= n_rows
            and 1 <= min(cols) and max(cols) <= n_cols)


def _check_index(what, value, bound_name, bound):
    """Reject a bool, a non-int or a value outside 1..bound."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise MalformedInputError(f"{what} {value!r} is not an integer")
    if not 1 <= value <= bound:
        raise MalformedInputError(f"{what} {value} out of range for {bound_name}={bound}")


@dataclass(frozen=True)
class StructuredSystem:
    """Sparsity pattern of an LTI pair (A, H); values are never stored."""

    n: int
    p: int
    a_pattern: frozenset = field(default_factory=frozenset)
    h_pattern: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        if isinstance(self.n, bool) or not isinstance(self.n, int) or self.n < 1:
            raise MalformedInputError(f"n must be a positive integer, got {self.n!r}")
        if isinstance(self.p, bool) or not isinstance(self.p, int) or self.p < 0:
            raise MalformedInputError(f"p must be a non-negative integer, got {self.p!r}")
        for name, n_rows in (("a_pattern", self.n), ("h_pattern", self.p)):
            entries = getattr(self, name)
            try:
                items = iter(entries)
            except TypeError:
                raise MalformedInputError(
                    f"{name} must be an iterable of entries, got {entries!r}"
                ) from None
            if items is entries:  # an iterator is read once: keep its entries
                entries = list(items)
            try:
                pattern = frozenset(entries)
            except TypeError:
                # Only an entry that is no pair of integers is unhashable.
                _check_pattern(name, entries, n_rows, self.n)
                raise
            object.__setattr__(self, name, pattern)
            _check_pattern(name, pattern, n_rows, self.n)

    @classmethod
    def from_entries(cls, n, p, a_entries, h_entries=()):
        """Build a system from entry lists, rejecting duplicates.

        File parsers come through here: a repeated (i, j) pair is a sign
        of a malformed input rather than something to merge silently.
        """
        patterns = []
        for name, entries in (("a", a_entries), ("h", h_entries)):
            entries = _as_tuples(entries)
            try:
                pattern = frozenset(entries)
            except TypeError:
                # The constructor names the unhashable entry, or the
                # pattern that is not iterable.
                patterns.append(entries)
                continue
            if len(pattern) != len(entries):
                # Only a pattern known to repeat an entry is scanned for it.
                seen = set()
                for e in entries:
                    if e in seen:
                        raise MalformedInputError(f"duplicate {name} pattern entry {e}")
                    seen.add(e)
            patterns.append(pattern)
        return cls(n=n, p=p, a_pattern=patterns[0], h_pattern=patterns[1])

    def sorted_a(self):
        return sorted(self.a_pattern)

    def sorted_h(self):
        return sorted(self.h_pattern)

    def row_states(self, row):
        """States measured by row ``row`` (1-based), ascending."""
        _check_index("row", row, "p", self.p)
        return tuple(sorted(j for (i, j) in self.h_pattern if i == row))

    def with_sensor_rows(self, states):
        """Append one single-state measurement row per listed state."""
        extra = []
        for k, s in enumerate(states):
            _check_index("sensor state", s, "n", self.n)
            extra.append((self.p + k + 1, s))
        return self._derived(self.p + len(extra), self.h_pattern.union(extra))

    def without_row(self, row):
        """Drop measurement row ``row`` (1-based) and renumber the rest."""
        _check_index("row", row, "p", self.p)
        kept = []
        for (i, j) in self.h_pattern:
            if i == row:
                continue
            kept.append((i - 1, j) if i > row else (i, j))
        return self._derived(self.p - 1, frozenset(kept))

    def without_measurements(self):
        """The bare state pattern: every measurement row dropped.

        Built once per system and handed on to every system derived from
        it, so they all share the bare graph, its matching and whatever
        is kept there with ``memo``.
        """
        return self if self.p == 0 else self._bare

    @cached_property
    def _bare(self):
        return _unchecked(self.n, 0, self.a_pattern, frozenset())

    def _derived(self, p, h_pattern):
        """This system's A pattern with new measurement rows.

        A was validated when this system was built and the callers check
        every row they add, so ``__post_init__`` is not run again.  The
        result shares this system's bare system, and is that bare system
        when no row is left.
        """
        bare = self.without_measurements()
        if p == 0:
            return bare
        derived = _unchecked(self.n, p, self.a_pattern, h_pattern)
        derived.__dict__["_bare"] = bare
        return derived

    def memo(self, compute):
        """``compute(self)``, worked out once per system and kept with it.

        For results of the pattern alone that the layers above compute,
        such as the classes of the bare system.  Nothing is kept when
        ``compute`` raises, so every call raises again.
        """
        memo = self.__dict__.setdefault("_memo", {})
        if compute not in memo:
            memo[compute] = compute(self)
        return memo[compute]

    @cached_property
    def graph(self):
        """The system's SystemGraph, built on first use.

        Only the bare system reads the A pattern; a system with rows
        extends its bare graph's rows with its own measurement ends.
        """
        n = self.n
        if self.p == 0:
            flat = np.fromiter(chain.from_iterable(self.a_pattern), np.int64,
                               2 * len(self.a_pattern))
            # Entry (i, j) is the pair (j - 1, i - 1), keyed (j - 1) * n + i - 1.
            return SystemGraph(n=n, p=0, rows=_rows(
                n, flat[1::2] * n + flat[0::2] - (n + 1)))
        bare = self._bare.graph
        measured = {}
        for i, j in self.h_pattern:
            measured.setdefault(j - 1, []).append(n + i - 1)
        rows = list(bare.rows)
        for state, ends in measured.items():
            # Measurement ends follow every state end, so the row stays sorted.
            rows[state] += tuple(sorted(ends))
        return SystemGraph(n=n, p=self.p, rows=tuple(rows), base=bare)


def _as_tuples(entries):
    """``entries`` as a list of tuples, for ``from_entries``.

    An entry that is not iterable is kept as it is, and so is a pattern
    that is not iterable, so that the constructor names it.
    """
    try:
        entries = list(entries)
    except TypeError:
        return entries
    try:
        return [tuple(e) for e in entries]
    except TypeError:
        return [_as_tuple(e) for e in entries]


def _as_tuple(entry):
    try:
        return tuple(entry)
    except TypeError:
        return entry


def _rows(n, keys):
    """Rows of n states from an int64 array of keys ``state * n + end``.

    Every end is a state.  One numpy sort orders the pairs: on the
    smallest patterns it costs a few microseconds more than sorting
    Python ints, but at 10^5 states, where the keys outgrow a one-digit
    Python int, the build takes well under half the time.
    """
    keys = np.sort(keys)
    bounds = np.searchsorted(keys, np.arange(0, n * n + 1, n)).tolist()
    ends = tuple((keys % n).tolist())
    return tuple([ends[lo:hi] for lo, hi in zip(bounds, bounds[1:])])


def _unchecked(n, p, a_pattern, h_pattern):
    """A system from already validated parts, skipping ``__post_init__``."""
    system = object.__new__(StructuredSystem)
    for name, value in (("n", n), ("p", p),
                        ("a_pattern", a_pattern), ("h_pattern", h_pattern)):
        object.__setattr__(system, name, value)
    return system


@dataclass(frozen=True, eq=False)
class SystemGraph:
    """The pairs of [A; H] as rows, shared by every structural layer.

    ``rows[u]`` is a tuple of state u's 0-based ends, ascending: its state
    ends, then its measurement ends n..n+p-1.  ``base`` is the bare graph
    whose rows these extend, None for a bare graph.  Only tuples are
    kept, the rows and, once asked for, the ``matching`` and the
    ``reverse`` rows, because a graph lives as long as its system.
    """

    n: int
    p: int
    rows: tuple
    base: "SystemGraph | None" = field(default=None, repr=False)

    @property
    def n_begin(self):
        return self.n

    @property
    def n_end(self):
        return self.n + self.p

    @property
    def bare(self):
        """The graph of the bare system: ``base``, or this graph itself."""
        return self if self.base is None else self.base

    @property
    def edges(self):
        """The 1-based (state, end) pairs in lexical order."""
        return tuple((u, v + 1) for u, row in enumerate(self.rows, start=1)
                     for v in row)

    @cached_property
    def matching(self):
        """(match_begin, match_end) of a maximum matching, found once.

        Hopcroft-Karp from the empty matching, so its tie-breaks are the
        kernel's own.  A bare system's matching seeds the contractions,
        and the matchings of the graphs that extend it start from it.
        Both are tuples, like the rows.
        """
        return hopcroft_karp(self.rows, self.n_end)

    @cached_property
    def reverse(self):
        """The state arcs reversed: ``reverse[v]`` lists, ascending, the
        states with an arc into state v.

        Built once per bare graph; every graph that extends it reads the
        bare graph's.
        """
        if self.base is not None:
            return self.base.reverse
        n, rows = self.n, self.rows
        lengths = np.fromiter(map(len, rows), np.int64, n)
        ends = np.fromiter(chain.from_iterable(rows), np.int64)
        return _rows(n, ends * n + np.repeat(np.arange(n), lengths))


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
