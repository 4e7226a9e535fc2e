"""Measurement classification, equivalence classes and sensor placement.

The README's "Classes and placement" section describes the two class
families, the placement that hits each class once, and the row labels.
"""

from dataclasses import dataclass
from itertools import combinations

from ._kernels import hopcroft_karp
from .errors import (
    InconsistencyError,
    InfeasiblePlacementError,
    MalformedInputError,
    ParameterError,
    PreconditionError,
)
from .matching import s_rank, system_contractions
from .scc import accessibility_check, decompose
from .structure import _check_index, _check_int, build_digraph

ALPHA = "alpha"
BETA = "beta"
GAMMA = "gamma"

# Enumerating every minimal placement is exponential in principle; the
# guard keeps it to at most C(15, 7) candidate subsets.
ALL_WITNESS_LIMIT = 15


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
    it is the cheaper one to explain and to fix.
    """
    _, inaccessible = accessibility_check(build_digraph(sys))
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

    An unmatched parent component yields no access class, because it
    contains a full rank class, whose sensor already sits inside it.  The
    rank classes come first, so a system without them raises before any
    access class is computed.
    """
    alpha = rank_classes(sys)
    return alpha, sys.without_measurements().memo(_access_classes)


def rank_classes(sys):
    """The rank classes of ``equivalence_classes`` alone."""
    return sys.without_measurements().memo(_rank_classes)


def _rank_classes(bare):
    return tuple(c.members for c in system_contractions(bare))


def _access_classes(bare):
    dec = decompose(build_digraph(bare))
    return tuple(
        comp
        for comp, is_parent, is_matched in zip(
            dec.components, dec.parent_flags, dec.matched_flags
        )
        if is_parent and is_matched
    )


def _normalize_classes(classes, family):
    out = []
    for cls in classes:
        members = tuple(sorted(set(cls)))
        if not members:
            raise InfeasiblePlacementError(
                f"empty {family} class leaves nothing to place a sensor on",
                empty_class=tuple(cls),
            )
        out.append(members)
    out.sort()
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

    A bool or a non-int state raises ``MalformedInputError``.  Only the
    type is checked: the range check needs n, which ``partition_report``
    has and checks.
    """
    forbidden = tuple(forbidden)
    for state in forbidden:
        _check_int("forbidden state", state)
    forbidden = set(forbidden)

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

    return reduce(alpha_classes, "alpha"), reduce(beta_classes, "beta")


def _overlap_rows(alpha, beta):
    """Row i lists, ascending, the beta classes that alpha class i meets."""
    beta_of = {state: j for j, cls in enumerate(beta) for state in cls}
    return tuple(
        tuple(sorted({beta_of[s] for s in cls if s in beta_of})) for cls in alpha
    )


def _witness(alpha, beta, match_begin, match_end):
    picks = [min(set(a_cls) & set(beta[j])) if j >= 0 else a_cls[0]
             for a_cls, j in zip(alpha, match_begin)]
    picks += [b_cls[0] for b_cls, i in zip(beta, match_end) if i < 0]
    witness = tuple(sorted(picks))
    if len(witness) != len(picks):
        raise InconsistencyError(
            "placement witness collided on a state; class families are "
            "not consistent with a maximum overlap matching"
        )
    return witness


def _all_witnesses(alpha, beta, count):
    candidates = sorted({s for cls in alpha for s in cls}
                        | {s for cls in beta for s in cls})
    if len(candidates) > ALL_WITNESS_LIMIT:
        raise ParameterError(
            f"witness enumeration supports at most {ALL_WITNESS_LIMIT} "
            f"candidate states, got {len(candidates)}"
        )
    classes = list(alpha) + list(beta)
    return tuple(combo for combo in combinations(candidates, count)
                 if all(set(combo).intersection(cls) for cls in classes))


def minimal_placement(alpha_classes, beta_classes, *, sys=None, all_witnesses=False):
    """Smallest sensor set hitting every class, with witness placements.

    Returns ``(sets, count)``.  ``sets`` holds one witness by default
    (lowest-index tie-breaks throughout) or every minimal placement when
    ``all_witnesses`` is set.  When ``sys`` is given, each returned set
    is verified to make the bare state pattern generically observable.
    """
    alpha = _normalize_classes(alpha_classes, "alpha")
    beta = _normalize_classes(beta_classes, "beta")
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
        class_of = {state: c for c, cls in enumerate(classes) for state in cls}
        free = [row for row, label in labels.items() if label == GAMMA]
        touched = [sorted({class_of[s] for s in row_states[row] if s in class_of})
                   for row in free]
        match_begin, _ = hopcroft_karp(touched, len(classes))
        for row, c in zip(free, match_begin):
            if c >= 0:
                labels[row] = family
    return tuple(labels.values())


def is_necessary(sys, row):
    """Would deleting this measurement row lose generic observability?"""
    if isinstance(row, bool) or not (isinstance(row, int) and 1 <= row <= sys.p):
        raise ParameterError(
            f"row must be a measurement index in 1..{sys.p}, got {row!r}"
        )
    if not theorem_check(sys).observable:
        raise PreconditionError(
            "necessity is defined only for generically observable systems"
        )
    return not theorem_check(sys.without_row(row)).observable


def partition_report(sys, forbid=(), all_witnesses=False):
    """Full structural report: classes, row labels, minimal placements."""
    forbid = tuple(forbid)
    for state in forbid:
        _check_index("forbidden state", state, "n", sys.n)
    classes = equivalence_classes(sys)
    alpha, beta = forbid_states(*classes, forbid) if forbid else classes
    sets, count = minimal_placement(alpha, beta, sys=sys, all_witnesses=all_witnesses)
    labels = _label_rows(_row_states(sys), *classes) if sys.p else ()
    return PartitionReport(
        alpha_classes=alpha,
        beta_classes=beta,
        labels=labels,
        minimal_sets=tuple(sets),
        sensor_count=count,
    )
