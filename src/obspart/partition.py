"""Measurement classification, equivalence classes and sensor placement.

The README's "Classes and placement" section describes the two class
families, the placement that hits each class once, and the row labels.
"""

from dataclasses import dataclass
from itertools import chain, combinations
from math import comb

from ._kernels import hopcroft_karp
from .errors import (
    InconsistencyError,
    InfeasiblePlacementError,
    MalformedInputError,
    ParameterError,
    PreconditionError,
)
from .matching import contractions, s_rank
from .scc import accessibility_check, decompose
from .structure import _check_index, _check_int, _tuple_of

ALPHA = "alpha"
BETA = "beta"
GAMMA = "gamma"

# Enumerating every minimal placement tests every count-subset of the
# class states; the bound keeps that to at most C(15, 7) subsets.
_WITNESS_SUBSET_LIMIT = comb(15, 7)


@dataclass(frozen=True)
class TheoremCheck:
    observable: bool
    failed_condition: str            # "", "accessibility", or "matching"
    inaccessible: tuple              # states with no path to a measurement
    s_rank: int                      # structural rank of the stacked pattern
    n: int


@dataclass(frozen=True)
class PartitionReport:
    alpha_classes: tuple
    beta_classes: tuple
    labels: tuple                    # one of ALPHA/BETA/GAMMA per row of H
    minimal_sets: tuple
    sensor_count: int


def theorem_check(sys):
    """Generic observability: accessibility plus full structural rank.

    When both conditions fail, accessibility is the reported reason —
    it is the cheaper one to explain and to fix.  The accessibility split
    is kept with the system, where the numeric oracle reads it.
    """
    _, inaccessible = sys.memo(accessibility_check)
    rank = s_rank(sys, include_h=True)
    if inaccessible:
        failed = "accessibility"
    elif rank < sys.n:
        failed = "matching"
    else:
        failed = ""
    return TheoremCheck(
        observable=failed == "",
        failed_condition=failed,
        inaccessible=inaccessible,
        s_rank=rank,
        n=sys.n,
    )


def equivalence_classes(sys):
    """(rank classes, access classes) of the state pattern, kept by its
    bare system: the classes describe candidate sensor sites, whatever
    rows are already there.

    The access classes are the parent components that hold no whole rank
    class, whose sensor would already sit inside them.  In the domain these
    are the parents a disjoint cycle family covers.  The rank classes come
    first, so a system outside it raises before any access class is computed.
    """
    alpha = rank_classes(sys)
    return alpha, sys.without_measurements().memo(_access_classes)


def rank_classes(sys):
    """The rank classes of ``equivalence_classes`` alone."""
    return sys.without_measurements().memo(_rank_classes)


def _rank_classes(bare):
    return tuple(c.members for c in contractions(bare))


def _access_classes(bare):
    dec = bare.memo(decompose)
    comp = dec.comp
    held = {comp[cls[0] - 1] for cls in rank_classes(bare)
            if len({comp[s - 1] for s in cls}) == 1}
    return tuple(members for c, members in enumerate(dec.components)
                 if dec.parent_flags[c] and c not in held)


def _checked_classes(classes, family):
    """The classes as a list of tuples of ints; a family or a class that
    is not iterable, or a bool or non-int state, raises ``MalformedInputError``."""
    what = f"{family} class"
    classes = [_tuple_of(what, cls) for cls in _tuple_of(f"{family} classes", classes)]
    for state in chain.from_iterable(classes):
        _check_int(f"{what} state", state)
    return classes


def _normalize_classes(classes, family):
    classes = _checked_classes(classes, family)
    low = min(chain.from_iterable(classes), default=1)
    if low < 1:
        raise MalformedInputError(f"{family} class state {low} is below 1")
    out = sorted(tuple(sorted(set(cls))) for cls in classes)
    if out and not out[0]:  # an empty class sorts first
        raise InfeasiblePlacementError(
            f"empty {family} class leaves nothing to place a sensor on",
            empty_class=(),
        )
    seen = set()
    for members in out:
        for state in members:
            if state in seen:
                raise InconsistencyError(
                    f"{family} classes overlap on state {state}"
                )
            seen.add(state)
    return tuple(out)


def forbid_states(alpha_classes, beta_classes, forbidden):
    """Drop forbidden states from every class, for what-if placement.

    Classes keep their order, each with its states ascending.  A family,
    class or forbidden list that is not iterable, or a bool or non-int
    state, raises ``MalformedInputError``.  Only the type is checked: the
    range check needs n, which ``partition_report`` has and checks.
    """
    forbidden = _tuple_of("forbidden states", forbidden)
    for state in forbidden:
        _check_int("forbidden state", state)
    return _forbid(_checked_classes(alpha_classes, "alpha"),
                   _checked_classes(beta_classes, "beta"), set(forbidden))


def _forbid(alpha, beta, forbidden):
    def reduce(classes, family):
        reduced = []
        for cls in classes:
            members = tuple(s for s in sorted(set(cls)) if s not in forbidden)
            if not members:
                raise InfeasiblePlacementError(
                    f"forbidding {sorted(forbidden)} empties the {family} "
                    f"class {tuple(sorted(set(cls)))}",
                    empty_class=tuple(sorted(set(cls))),
                )
            reduced.append(members)
        return tuple(reduced)

    return reduce(alpha, "alpha"), reduce(beta, "beta")


def _overlap_rows(groups, classes):
    """Row i lists, ascending, the classes that group i of states meets;
    every matching in this module runs on such rows."""
    class_of = {state: c for c, cls in enumerate(classes) for state in cls}
    return tuple(
        tuple(sorted({class_of[s] for s in group if s in class_of})) for group in groups
    )


def _witness(alpha, beta, match_begin, match_end):
    picks = [min(set(a_cls) & set(beta[j])) if j >= 0 else a_cls[0]
             for a_cls, j in zip(alpha, match_begin)]
    picks += [b_cls[0] for b_cls, i in zip(beta, match_end) if i < 0]
    if len(set(picks)) != len(picks):
        raise InconsistencyError(
            "placement witness collided on a state; class families are "
            "not consistent with a maximum overlap matching"
        )
    return tuple(sorted(picks))


def _all_witnesses(alpha, beta, count):
    candidates = sorted(set(chain(*alpha, *beta)))
    subsets = comb(len(candidates), count)
    if subsets > _WITNESS_SUBSET_LIMIT:
        raise ParameterError(f"witness enumeration tests at most {_WITNESS_SUBSET_LIMIT} "
                             f"subsets, got C({len(candidates)}, {count}) = {subsets}")
    classes = list(alpha) + list(beta)
    return tuple(combo for combo in combinations(candidates, count)
                 if all(set(combo).intersection(cls) for cls in classes))


def minimal_placement(alpha_classes, beta_classes, *, sys=None, all_witnesses=False):
    """Smallest sensor set hitting every class, with witness placements.

    Returns ``(sets, count)``.  ``sets`` holds one witness by default
    (lowest-index tie-breaks throughout) or every minimal placement when
    ``all_witnesses`` is set.  When ``sys`` is given, each returned set
    is verified to make the bare state pattern generically observable.
    ``all_witnesses`` tests all ``count``-subsets of the class states, at most 6435.
    A class that is no collection of ints of at least 1 raises
    ``MalformedInputError``.
    """
    return _placement(_normalize_classes(alpha_classes, "alpha"),
                      _normalize_classes(beta_classes, "beta"), sys, all_witnesses)


def _placement(alpha, beta, sys, all_witnesses):
    """``minimal_placement`` of sorted, disjoint classes of sorted ints."""
    match_begin, match_end = hopcroft_karp(_overlap_rows(alpha, beta), len(beta))
    overlap = len(alpha) - match_begin.count(-1)
    count = len(alpha) + len(beta) - overlap

    if all_witnesses:
        sets = _all_witnesses(alpha, beta, count)
    else:
        sets = (_witness(alpha, beta, match_begin, match_end),)

    if sys is not None:
        bare = sys.without_measurements()
        for placement in sets:
            check = theorem_check(bare.with_sensor_rows(placement))
            if not check.observable:
                raise InconsistencyError(
                    f"placement {placement} fails the observability theorem "
                    f"({check.failed_condition}); classes do not describe "
                    f"this system"
                )
    return list(sets), count


def classify_measurements(sys):
    """Label each measurement row alpha, beta, or gamma.

    Rows are matched to the rank classes, then the rows left to the
    access classes, each by one maximum matching; every row matched to
    neither is gamma, and dropping all of them together leaves an
    observable system observable.
    """
    return _label_rows(_row_states(sys), *equivalence_classes(sys))


def _row_states(sys):
    """{row: set of measured states}, rejecting rows that measure none."""
    if sys.p == 0:
        raise PreconditionError("classification requires at least one measurement row")
    row_states = {row: set() for row in range(1, sys.p + 1)}
    for row, state in sys.h_pattern:
        row_states[row].add(state)
    for row, states in row_states.items():
        if not states:
            raise MalformedInputError(f"measurement row {row} measures no state")
    return row_states


def _label_rows(row_states, alpha, beta):
    """Match the rows, as begins lowest first, to the rank classes they
    touch, then the rows left to the access classes: a row matched to a
    rank class is alpha, one matched to an access class beta, the rest gamma."""
    labels = dict.fromkeys(row_states, GAMMA)
    for family, classes in ((ALPHA, alpha), (BETA, beta)):
        free = [row for row, label in labels.items() if label == GAMMA]
        touched = _overlap_rows(map(row_states.get, free), classes)
        match_begin, _ = hopcroft_karp(touched, len(classes))
        for row, c in zip(free, match_begin):
            if c >= 0:
                labels[row] = family
    return tuple(labels.values())


def partition_report(sys, forbid=(), all_witnesses=False):
    """Full structural report: classes, row labels, minimal placements."""
    forbid = _tuple_of("forbid", forbid)
    for state in forbid:
        _check_index("forbidden state", state, "n", sys.n)
    alpha, beta = equivalence_classes(sys)
    if forbid:
        alpha, beta = _forbid(alpha, beta, set(forbid))
    # The classes found are sorted, disjoint ints; forbidding keeps each
    # class sorted, but may change the order of the classes.
    sets, count = _placement(sorted(alpha), sorted(beta), sys, all_witnesses)
    labels = sys.memo(classify_measurements) if sys.p else ()
    return PartitionReport(
        alpha_classes=alpha,
        beta_classes=beta,
        labels=labels,
        minimal_sets=tuple(sets),
        sensor_count=count,
    )
