"""Measurement classification, equivalence classes, and sensor placement.

Candidate sensor sites fall into two families of classes, both computed
from the state pattern alone:

* rank classes — member sets of the bipartite contractions; a sensor on
  any member repairs the same unit of structural-rank deficit;
* access classes — matched parent components; a sensor on any member
  makes the whole component (and everything upstream of it) accessible.

A minimal placement hits every class once, sharing a state between a
rank class and an access class whenever their intersection allows it.
Classes within one family are disjoint, so the sharing opportunities
form a bipartite graph and the optimum is a maximum matching on it.

Existing measurement rows are labeled against the same classes: the
designated cover of a rank class is "alpha", of an access class "beta",
and anything left over is "gamma" (removable without losing generic
observability).
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
from .structure import build_digraph

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
    """(rank classes, access classes) of the state pattern.

    Measurement rows are deliberately ignored: the classes describe
    candidate sensor sites, whether or not a sensor is already present.
    Access classes list every matched parent component; an unmatched
    parent yields none, because it necessarily contains a full rank
    class and the sensor that class demands already sits inside it.

    Each family is worked out once per bare system, which every system
    derived from ``sys`` shares.  The rank classes come first, so a
    system without them raises before any access class is computed.
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
    """Drop forbidden states from every class, for what-if placement."""
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


def _overlap_matching(alpha, beta):
    return hopcroft_karp(_overlap_rows(alpha, beta), len(beta))


def _witness(alpha, beta, match_begin, match_end):
    picks = []
    for i, a_cls in enumerate(alpha):
        j = match_begin[i]
        if j >= 0:
            picks.append(min(set(a_cls) & set(beta[j])))
        else:
            picks.append(a_cls[0])
    for j, b_cls in enumerate(beta):
        if match_end[j] < 0:
            picks.append(b_cls[0])
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
    found = []
    for combo in combinations(candidates, count):
        chosen = set(combo)
        if all(chosen.intersection(cls) for cls in classes):
            found.append(combo)
    return tuple(found)


def minimal_placement(alpha_classes, beta_classes, *, sys=None, all_witnesses=False):
    """Smallest sensor set hitting every class, with witness placements.

    Returns ``(sets, count)``.  ``sets`` holds one witness by default
    (lowest-index tie-breaks throughout) or every minimal placement when
    ``all_witnesses`` is set.  When ``sys`` is given, each returned set
    is verified to make the bare state pattern generically observable.
    """
    alpha = _normalize_classes(alpha_classes, "alpha")
    beta = _normalize_classes(beta_classes, "beta")
    match_begin, match_end = _overlap_matching(alpha, beta)
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

    Classes are covered greedily — rank classes first, then access
    classes, lowest row index first — so exactly one row is designated
    per class it is the first to reach; the rest are gamma.
    """
    row_states = _row_states(sys)
    return _label_rows(row_states, *equivalence_classes(sys))


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
    """Give each class, in order, the lowest untaken row touching it."""
    # Each state's rows, highest first, so that the lowest untaken row is
    # the last one once taken rows are popped; a row, once taken, stays
    # taken, so each state's list is popped through at most once.
    rows_of = {}
    for row in sorted(row_states, reverse=True):
        for state in row_states[row]:
            rows_of.setdefault(state, []).append(row)
    labels = dict.fromkeys(row_states, GAMMA)
    for family, classes in ((ALPHA, alpha), (BETA, beta)):
        for cls in classes:
            best = None
            for state in cls:
                rows = rows_of.get(state)
                while rows and labels[rows[-1]] != GAMMA:
                    rows.pop()
                if rows and (best is None or rows[-1] < best):
                    best = rows[-1]
            if best is not None:
                labels[best] = family
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
