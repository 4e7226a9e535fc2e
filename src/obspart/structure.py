"""Sparsity patterns, each one its own integer graph.

A system is described purely by which entries of A (n x n) and H (p x n)
may be nonzero, as 1-based (row, column) pairs.  The README's "Graph
core" section describes the rows, matching and reverse a system keeps,
which every structural layer reads.
"""

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain

import numpy as np

from ._kernels import hopcroft_karp
from .errors import MalformedInputError


# Keys (i - 1) * n + j - 1 of every pair must fit in int64: n * n + n < 2**63.
# p is bounded alike, so the H keys fit too.
MAX_STATES = 3_037_000_499


def _check_pattern(name, pattern, n_rows, n_cols):
    """The entries as a frozenset; raise on the first bad or repeated
    entry, in the pattern's own order."""
    seen = set()
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
        if entry in seen:
            raise MalformedInputError(f"duplicate {name[0]} pattern entry ({i}, {j})")
        seen.add(entry)
    return frozenset(seen)


def _plain_system(n, p, a, h, kinds):
    """The system of entry lists ``a`` and ``h`` that are ``kinds``
    containers of ``kinds`` pairs of ints, in range and without repeats,
    checked before anything is hashed; None for any other input, which
    the caller's checked route then names.  The checked entries become
    the system's kept keys, so neither pattern is flattened again."""
    if not (type(n) is int and type(p) is int and 1 <= n <= MAX_STATES
            and 0 <= p <= MAX_STATES and type(a) in kinds and type(h) in kinds):
        return None
    flats, patterns = [], []
    for raw, n_rows in ((a, n), (h, p)):
        flat = _plain_pairs(raw, kinds, n_rows, n)
        if flat is None:
            return None
        pattern = frozenset(map(tuple, raw))
        if len(pattern) != len(raw):  # a repeated entry
            return None
        flats.append(flat)
        patterns.append(pattern)
    a_keys, h_keys = (_sorted_keys(flat, n) for flat in flats)
    if p == 0:
        return _unchecked(n, 0, *patterns, _a_keys=a_keys, _h_keys=h_keys)
    bare = _unchecked(n, 0, patterns[0], frozenset(), _a_keys=a_keys)
    return _unchecked(n, p, *patterns, _bare=bare, _h_keys=h_keys)


def _plain_pairs(pattern, kinds, n_rows, n_cols):
    """The entries as one flat int64 array i, j, i, j, ... when every
    entry is a ``kinds`` pair of ints inside the bounds; None otherwise.

    Only the exact types in ``kinds`` and ``int`` pass, so a bool, a numpy
    integer or any subclass fails here and is left to the checked route.
    The type and length tests run in C, one pass per property, and the
    bounds are the array's min and max.
    """
    if not pattern:
        return np.empty(0, np.int64)
    if not set(map(type, pattern)) <= kinds or set(map(len, pattern)) != {2}:
        return None
    flat = list(chain.from_iterable(pattern))
    if set(map(type, flat)) != {int}:
        return None
    try:
        ij = np.fromiter(flat, np.int64, len(flat))
    except OverflowError:  # an int past int64, so out of range
        return None
    if 1 <= ij.min() and ij[0::2].max() <= n_rows and ij[1::2].max() <= n_cols:
        return ij
    return None


def _tuple_of(what, values):
    """``values`` as a tuple; a non-iterable raises ``MalformedInputError``."""
    try:
        return tuple(values)
    except TypeError:
        raise MalformedInputError(f"{what} must be an iterable, got {values!r}") from None


def _check_int(what, value):
    """Reject a bool or a non-int."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise MalformedInputError(f"{what} {value!r} is not an integer")


def _check_index(what, value, bound_name, bound):
    """Reject a bool, a non-int or a value outside 1..bound."""
    _check_int(what, value)
    if not 1 <= value <= bound:
        raise MalformedInputError(f"{what} {value} out of range for {bound_name}={bound}")


@dataclass(frozen=True)
class StructuredSystem:
    """Sparsity pattern of an LTI pair (A, H); values are never stored.

    The pattern is also the system's graph: ``rows``, ``matching`` and
    ``reverse`` are built on first use and kept, since a system is
    immutable.
    """

    n: int
    p: int
    a_pattern: frozenset = field(default_factory=frozenset)
    h_pattern: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        if isinstance(self.n, bool) or not isinstance(self.n, int) or self.n < 1:
            raise MalformedInputError(f"n must be a positive integer, got {self.n!r}")
        if self.n > MAX_STATES:
            raise MalformedInputError(f"n must be at most {MAX_STATES}, got {self.n}")
        if isinstance(self.p, bool) or not isinstance(self.p, int) or self.p < 0:
            raise MalformedInputError(f"p must be a non-negative integer, got {self.p!r}")
        if self.p > MAX_STATES:
            raise MalformedInputError(f"p must be at most {MAX_STATES}, got {self.p}")
        for name, n_rows in (("a_pattern", self.n), ("h_pattern", self.p)):
            entries = getattr(self, name)
            try:
                items = iter(entries)
            except TypeError:
                raise MalformedInputError(
                    f"{name} must be an iterable of entries, got {entries!r}"
                ) from None
            object.__setattr__(self, name, _check_pattern(name, items, n_rows, self.n))

    @classmethod
    def from_entries(cls, n, p, a_entries, h_entries=()):
        """Build a system from entry lists, each entry a pair.

        Lists or tuples of list or tuple pairs of ints, in range and
        without repeats, pass one fast check and are not checked again;
        any other input goes to the constructor, which names the first bad
        or repeated entry.
        """
        return (_plain_system(n, p, a_entries, h_entries, {list, tuple})
                or cls(n=n, p=p, a_pattern=_as_tuples(a_entries),
                       h_pattern=_as_tuples(h_entries)))

    def with_sensor_rows(self, states):
        """Append one single-state measurement row per listed state."""
        extra = []
        for k, s in enumerate(_tuple_of("sensor states", states)):
            _check_index("sensor state", s, "n", self.n)
            extra.append((self.p + k + 1, s))
        return self._derived(self.p + len(extra), self.h_pattern.union(extra))

    def without_row(self, row):
        """Drop measurement row ``row`` (1-based) and renumber the rest."""
        _check_index("row", row, "p", self.p)
        kept = frozenset((i - 1 if i > row else i, j)
                         for (i, j) in self.h_pattern if i != row)
        return self._derived(self.p - 1, kept)

    def without_measurements(self):
        """The bare state pattern: every measurement row dropped.

        Built once and shared by every system derived from this one.
        """
        return self if self.p == 0 else self._bare

    @cached_property
    def _bare(self):
        return _unchecked(self.n, 0, self.a_pattern, frozenset())

    def _derived(self, p, h_pattern):
        """This system's A pattern with new measurement rows, sharing its
        bare system (or that bare system itself when no row is left).  A
        was validated when this system was built and the callers check
        every row they add, so ``__post_init__`` is not run again."""
        bare = self.without_measurements()
        if p == 0:
            return bare
        return _unchecked(self.n, p, self.a_pattern, h_pattern, _bare=bare)

    def memo(self, compute):
        """``compute(self)``, worked out once per system and kept with it.

        Nothing is kept when ``compute`` raises, so every call raises again.
        """
        memo = self.__dict__.setdefault("_memo", {})
        if compute not in memo:
            memo[compute] = compute(self)
        return memo[compute]

    @property
    def n_end(self):
        return self.n + self.p

    @property
    def edges(self):
        """The 1-based (state, end) pairs in lexical order."""
        return tuple((u, v + 1) for u, row in enumerate(self.rows, start=1)
                     for v in row)

    @cached_property
    def rows(self):
        """``rows[u]`` is a tuple of state u's 0-based ends, ascending: its
        state ends, then its measurement ends n..n+p-1.  A system with rows
        extends its bare system's rows with its own measurement ends."""
        n = self.n
        if self.p == 0:
            keys = self._a_keys
            # Entry (i, j) is the pair (j - 1, i - 1), keyed (j - 1) * n + i - 1.
            return _rows(n, keys % n * n + keys // n)
        measured = {}
        for i, j in self.h_pattern:
            measured.setdefault(j - 1, []).append(n + i - 1)
        rows = list(self._bare.rows)
        for state, ends in measured.items():
            # Measurement ends follow every state end, so the row stays sorted.
            rows[state] += tuple(sorted(ends))
        return tuple(rows)

    @cached_property
    def matching(self):
        """(match_begin, match_end) tuples of a maximum matching, found once:
        from the empty one for a bare system, else from its bare system's."""
        start = None if self.p == 0 else self._bare.matching[0]
        return hopcroft_karp(self.rows, self.n_end, start=start)

    @cached_property
    def reverse(self):
        """The state arcs reversed: ``reverse[v]`` lists, ascending, the
        states with an arc into state v.  Built by the bare system and
        shared by every system derived from it."""
        if self.p:
            return self._bare.reverse
        # Entry (i, j) is the reversed arc (i - 1, j - 1): its key is the row key.
        return _rows(self.n, self._a_keys)

    @cached_property
    def _a_keys(self):
        """The A entries (i, j) as sorted keys (i - 1) * n + j - 1, kept by
        the bare system: the ints ``_plain_system`` checked, or the pattern
        flattened here on first use (a system built directly or derived)."""
        if self.p:
            return self._bare._a_keys
        return _sorted_keys(_flat_entries(self.a_pattern), self.n)

    @cached_property
    def _h_keys(self):
        """The H entries' sorted keys, like ``_a_keys``."""
        return _sorted_keys(_flat_entries(self.h_pattern), self.n)


def _flat_entries(pattern):
    """A validated pattern's entries as one flat int64 array i, j, i, j, ..."""
    return np.fromiter(chain.from_iterable(pattern), np.int64, 2 * len(pattern))


def _sorted_keys(flat, n):
    """Sorted keys (i - 1) * n + j - 1 of flat entries i, j, i, j, ..., as
    one read-only int64 array.  Since j <= n, they sort in (i, j) order."""
    keys = np.sort(flat[0::2] * n + flat[1::2] - (n + 1))
    keys.flags.writeable = False
    return keys


def _as_tuples(entries):
    """``entries`` as a list of tuples, for ``from_entries``; an entry or
    a pattern that is not iterable is kept as it is, for the constructor
    to name."""
    try:
        return [_as_tuple(e) for e in entries]
    except TypeError:
        return entries


def _as_tuple(entry):
    try:
        return tuple(entry)
    except TypeError:
        return entry


def _rows(n, keys):
    """Rows of n states from an int64 array of keys ``state * n + end``.

    Every end is a state.  One numpy sort orders the pairs: at 10^5
    states it takes well under half the time of sorting Python ints.
    """
    keys = np.sort(keys)
    bounds = np.searchsorted(keys, np.arange(0, n * n + 1, n)).tolist()
    ends = tuple((keys % n).tolist())
    return tuple([ends[lo:hi] for lo, hi in zip(bounds, bounds[1:])])


def _unchecked(n, p, a_pattern, h_pattern, **cached):
    """A system from already validated parts, skipping ``__post_init__``;
    ``cached`` holds the values of cached properties the caller has."""
    system = object.__new__(StructuredSystem)
    for name, value in (("n", n), ("p", p),
                        ("a_pattern", a_pattern), ("h_pattern", h_pattern)):
        object.__setattr__(system, name, value)
    system.__dict__.update(cached)
    return system


def build_digraph(sys):
    """The system itself, whose rows are its graph: one pair per pattern
    entry, built once."""
    return sys
