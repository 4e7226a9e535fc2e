from itertools import chain
from math import comb

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from obspart import (
    DegenerateStructureError,
    InconsistencyError,
    InfeasiblePlacementError,
    MalformedInputError,
    ParameterError,
    PreconditionError,
    classify_measurements,
    equivalence_classes,
    forbid_states,
    minimal_placement,
    partition_report,
    theorem_check,
)
from obspart import _kernels, matching, partition, scc
from obspart.partition import _label_rows, _overlap_rows, _row_states
from conftest import FIX15_A, FIX15_ALPHA, FIX15_BETA, S
from oracles import (
    greedy_row_labels,
    is_necessary,
    max_matching_size,
    minimum_sensor_sets,
    numeric_observable,
    overlap_edges,
)
from strategies import random_partitionable_system, systems


class TestTheoremCheck:
    def test_chain_observable(self, chain3):
        check = theorem_check(chain3)
        assert check.observable
        assert check.failed_condition == ""
        assert check.s_rank == 3
        assert check.inaccessible == ()

    def test_accessibility_reported_before_matching(self):
        # sensor on x1 breaks both conditions; accessibility is reported
        sys = S(3, 1, [(2, 1), (3, 2)], [(1, 1)])
        check = theorem_check(sys)
        assert not check.observable
        assert check.failed_condition == "accessibility"
        assert check.inaccessible == (2, 3)

    def test_no_measurements(self, cycle3):
        check = theorem_check(cycle3)
        assert not check.observable
        assert check.failed_condition == "accessibility"

    def test_pure_matching_failure(self):
        # fan measured at the sink: everything reaches the sensor but
        # the stacked pattern is rank deficient
        sys = S(3, 1, [(3, 1), (3, 2)], [(1, 3)])
        check = theorem_check(sys)
        assert not check.observable
        assert check.failed_condition == "matching"
        assert check.inaccessible == ()
        assert check.s_rank == 2

    @given(systems(n_max=8))
    def test_verdict_matches_conditions(self, sys):
        check = theorem_check(sys)
        assert check.observable == (
            check.inaccessible == () and check.s_rank == sys.n
        )


class TestEquivalenceClasses:
    def test_fan(self, fan3):
        assert equivalence_classes(fan3) == (((1, 2), (3,)), ())

    def test_cycle(self, cycle3):
        assert equivalence_classes(cycle3) == ((), ((1, 2, 3),))

    def test_fixture(self, fix15):
        assert equivalence_classes(fix15) == (FIX15_ALPHA, FIX15_BETA)

    def test_measurements_are_ignored(self, fix15):
        with_h = fix15.with_sensor_rows([9, 12, 4])
        assert equivalence_classes(with_h) == equivalence_classes(fix15)

    def test_unmatched_parent_yields_no_beta_class(self, fan3):
        # component {3} is a parent but not matched: covered by alpha {3}
        alpha, beta = equivalence_classes(fan3)
        assert (3,) in alpha
        assert beta == ()

    def test_matched_parent_inside_alpha_class_is_kept(self):
        # x1 -> x2, x2 self-loop: alpha class {1,2}, access class {2};
        # only a sensor on the shared state 2 works, so the subset class
        # must not be dropped
        sys = S(2, 0, [(2, 1), (2, 2)])
        alpha, beta = equivalence_classes(sys)
        assert alpha == ((1, 2),)
        assert beta == ((2,),)
        sets, count = minimal_placement(alpha, beta, sys=sys)
        assert count == 1
        assert sets == [(2,)]

    @given(systems(n_max=7, allow_h=False))
    def test_families_internally_disjoint(self, sys):
        from obspart import DegenerateStructureError

        try:
            alpha, beta = equivalence_classes(sys)
        except DegenerateStructureError:
            return
        for family in (alpha, beta):
            seen = set()
            for cls in family:
                assert not (seen & set(cls))
                seen |= set(cls)


class TestMinimalPlacement:
    def test_fixture_arithmetic(self):
        sets, count = minimal_placement(FIX15_ALPHA, FIX15_BETA)
        assert count == 3
        assert sets == [(4, 9, 12)]

    def test_fixture_forbid_12(self):
        alpha, beta = forbid_states(FIX15_ALPHA, FIX15_BETA, {12})
        sets, count = minimal_placement(alpha, beta)
        assert count == 4
        assert sets == [(4, 9, 10, 11)]

    def test_single_beta_class(self):
        sets, count = minimal_placement((), ((1, 2, 3),))
        assert count == 1
        assert sets == [(1,)]

    def test_overlapping_alpha_classes_rejected(self):
        with pytest.raises(InconsistencyError, match="alpha classes overlap"):
            minimal_placement(((1, 2), (2, 3)), ())

    def test_empty_class_rejected(self):
        with pytest.raises(InfeasiblePlacementError):
            minimal_placement(((),), ())

    @pytest.mark.parametrize("alpha, message", [
        ([(0,)], "alpha class state 0 is below 1"),
        ([(2, -1)], "alpha class state -1 is below 1"),
        ([(True,)], "alpha class state True is not an integer"),
        ([(1, "a")], "alpha class state 'a' is not an integer"),
        ([(1, True)], "alpha class state True is not an integer"),
        ([5], "alpha class must be an iterable, got 5"),
        (5, "alpha classes must be an iterable, got 5"),
    ], ids=["zero", "negative", "bool", "str", "bool beside its int", "int class",
            "int classes"])
    def test_bad_class_state_rejected(self, alpha, message):
        with pytest.raises(MalformedInputError) as exc:
            minimal_placement(alpha, [])
        assert str(exc.value) == message

    def test_witness_refuses_a_repeated_state(self):
        # Both classes are left unmatched, which no maximum matching does
        # when they share state 1, so each picks it.
        with pytest.raises(InconsistencyError, match="collided on a state"):
            partition._witness(((1,),), ((1,),), (-1,), (-1,))

    def test_witness_verification_against_system(self, fix15):
        sets, count = minimal_placement(*equivalence_classes(fix15), sys=fix15)
        assert count == 3
        assert sets == [(4, 9, 12)]

    def test_all_witnesses_fixture(self, fix15):
        sets, count = minimal_placement(
            FIX15_ALPHA, FIX15_BETA, sys=fix15, all_witnesses=True
        )
        assert count == 3
        assert sets == [(4, 9, 12), (9, 12, 15)]

    def test_all_witnesses_one_subset_accepted(self):
        # 16 candidate states, but C(16, 16) = 1 subset to test.
        singles = tuple((i,) for i in range(1, 17))
        assert minimal_placement(singles, (), all_witnesses=True) == (
            [tuple(range(1, 17))], 16)

    def test_all_witnesses_bound_is_on_subsets(self):
        # Seven classes over 15 states: C(15, 7) = 6435 subsets, the most
        # accepted; one state more gives C(16, 7) = 11440.
        classes = [(2 * k - 1, 2 * k) for k in range(1, 7)] + [(13, 14, 15)]
        sets, count = minimal_placement(classes, (), all_witnesses=True)
        assert (len(sets), count) == (2 ** 6 * 3, 7)
        with pytest.raises(ParameterError) as exc:
            minimal_placement(classes[:-1] + [(13, 14, 15, 16)], (), all_witnesses=True)
        assert str(exc.value) == ("witness enumeration tests at most 6435 subsets, "
                                  "got C(16, 7) = 11440")

    def test_all_witnesses_beyond_fifteen_candidates_match_brute_force(self):
        # Draws with more than 15 class states: each is refused exactly when
        # it has more than C(15, 7) subsets to test, and the small accepted
        # ones list every smallest observable sensor set.
        rng = np.random.default_rng(12345)
        refused = checked = 0
        for n_lo, n_hi in ((16, 25), (26, 40)):
            for _ in range(200):
                sys = random_partitionable_system(rng, n_lo=n_lo, n_hi=n_hi)
                alpha, beta = equivalence_classes(sys)
                candidates = len(set(chain(*alpha, *beta)))
                if candidates <= 15:
                    continue
                count = minimal_placement(alpha, beta)[1]
                if comb(candidates, count) > 6435:
                    with pytest.raises(ParameterError, match=str(comb(candidates, count))):
                        partition_report(sys, all_witnesses=True)
                    refused += 1
                    continue
                report = partition_report(sys, all_witnesses=True)
                if comb(sys.n, count) <= 20000:
                    assert (list(report.minimal_sets), report.sensor_count) == \
                        minimum_sensor_sets(sys)
                    checked += 1
        assert (refused, checked) == (14, 20)

    def test_inconsistent_classes_fail_verification(self, fix15):
        # classes that ignore the access side do not make the system
        # observable, and the witness check with sys= catches that
        with pytest.raises(InconsistencyError, match="fails the observability"):
            minimal_placement(((1,),), (), sys=fix15)


class TestForbidStates:
    def test_fixture_example(self):
        alpha, beta = forbid_states(FIX15_ALPHA, FIX15_BETA, {12})
        assert alpha == ((2, 7, 9), (4, 15), (10,))
        assert beta == ((9,), (11, 13, 14))

    def test_empty_forbid_is_identity(self):
        assert forbid_states(FIX15_ALPHA, FIX15_BETA, set()) == (
            FIX15_ALPHA, FIX15_BETA
        )

    def test_emptied_class_is_infeasible(self):
        with pytest.raises(InfeasiblePlacementError, match=r"\(3,\)") as exc:
            forbid_states(((3,),), (), {3})
        assert exc.value.empty_class == (3,)

    @pytest.mark.parametrize("state", [True, 2.0, "2", None])
    def test_non_integer_state_rejected(self, state):
        # {2.0} used to drop state 2 and {True} state 1.
        with pytest.raises(MalformedInputError) as exc:
            forbid_states(FIX15_ALPHA, FIX15_BETA, {12, state})
        assert str(exc.value) == f"forbidden state {state!r} is not an integer"

    def test_non_iterable_forbidden_rejected(self):
        with pytest.raises(MalformedInputError) as exc:
            forbid_states(FIX15_ALPHA, FIX15_BETA, 5)
        assert str(exc.value) == "forbidden states must be an iterable, got 5"

    def test_state_outside_every_class_is_ignored(self):
        # Only partition_report knows n, so only it range-checks.
        assert forbid_states(FIX15_ALPHA, FIX15_BETA, {99}) == (FIX15_ALPHA, FIX15_BETA)

    def test_class_order_is_kept(self):
        assert forbid_states([[5, 4, 4], (1, 2)], [{3}], [2]) == (((4, 5), (1,)), ((3,),))

    @pytest.mark.parametrize("alpha, beta, message", [
        ([5], [], "alpha class must be an iterable, got 5"),
        ([(1, "a")], [], "alpha class state 'a' is not an integer"),
        ([(True,)], [], "alpha class state True is not an integer"),
        (FIX15_ALPHA, 5, "beta classes must be an iterable, got 5"),
        (FIX15_ALPHA, [(9,), (11, 2.0)], "beta class state 2.0 is not an integer"),
    ], ids=["int class", "str state", "bool state", "int family", "float state"])
    def test_bad_class_rejected(self, alpha, beta, message):
        # Each used to raise a bare TypeError, or to pass a bool state on.
        with pytest.raises(MalformedInputError) as exc:
            forbid_states(alpha, beta, ())
        assert str(exc.value) == message


class TestClassify:
    def test_chain_alpha(self, chain3):
        assert classify_measurements(chain3) == ("alpha",)

    def test_cycle_beta_gamma(self):
        sys = S(3, 2, [(2, 1), (3, 2), (1, 3)], [(1, 1), (2, 2)])
        assert classify_measurements(sys) == ("beta", "gamma")

    def test_diagonal_both_beta(self):
        sys = S(2, 2, [(1, 1), (2, 2)], [(1, 1), (2, 2)])
        assert classify_measurements(sys) == ("beta", "beta")

    def test_fixture_witness_rows(self, fix15):
        sys = fix15.with_sensor_rows([4, 9, 12])
        # row 2 (state 9) covers alpha {2,7,9}; row 1 (state 4) covers
        # {4,15}; row 3 (state 12) covers {10,12}; then 9 and 12 are taken,
        # so the access classes {9} and {11..14} have no free row left
        assert classify_measurements(sys) == ("alpha", "alpha", "alpha")

    def test_gamma_for_duplicate_coverage(self, fix15):
        sys = fix15.with_sensor_rows([4, 9, 12, 13, 7])
        labels = classify_measurements(sys)
        assert labels == ("alpha", "alpha", "alpha", "beta", "gamma")

    def test_multi_state_row_covers_any_class(self):
        # one row measuring x1 and x3 covers the alpha class {3} of the
        # chain even though x1 alone would not
        sys = S(3, 1, [(2, 1), (3, 2)], [(1, 1), (1, 3)])
        assert classify_measurements(sys) == ("alpha",)

    def test_no_necessary_row_is_gamma(self):
        # Rank classes {2} and {3}, access class {4}: a greedy pass gives
        # row 2 to {2} and leaves {3} no row, yet without row 3 states 2
        # and 3 share one row and the system is not observable.  The
        # matching gives row 2 to {3} and row 3 to {2}.
        sys = S(4, 3, [(1, 1), (2, 1), (3, 1), (4, 4)],
                [(1, 4), (2, 2), (2, 3), (3, 2)])
        labels = classify_measurements(sys)
        for row, label in enumerate(labels, start=1):
            if is_necessary(sys, row):
                assert label != "gamma"

    @given(systems(n_max=7, allow_h=False), st.data())
    def test_dropping_every_gamma_row_keeps_observability(self, sys, data):
        try:
            alpha, beta = equivalence_classes(sys)
        except DegenerateStructureError:
            return
        # As many rows as a minimal placement has sensors, or a few more,
        # each on one to three class members, so that they compete.
        _, count = minimal_placement(alpha, beta)
        members = sorted({s for cls in alpha + beta for s in cls})
        rows = data.draw(st.lists(st.sets(st.sampled_from(members), min_size=1,
                                          max_size=3),
                                  min_size=count, max_size=count + 2))
        grown = S(sys.n, len(rows), sorted(sys.a_pattern),
                  [(r, s) for r, states in enumerate(rows, start=1) for s in states])
        if not theorem_check(grown).observable:
            return
        labels = classify_measurements(grown)
        kept = grown
        for row in range(grown.p, 0, -1):
            if labels[row - 1] == "gamma":
                kept = kept.without_row(row)
        assert theorem_check(kept).observable

    def test_row_without_states_is_malformed(self):
        sys = S(3, 2, [(2, 1), (3, 2)], [(1, 3)])  # row 2 empty
        with pytest.raises(MalformedInputError, match="row 2 measures no state"):
            classify_measurements(sys)

    def test_requires_measurements(self, fan3):
        with pytest.raises(PreconditionError, match="at least one measurement"):
            classify_measurements(fan3)


@st.composite
def families_and_rows(draw):
    """Two families of disjoint classes over 1..n, and multi-state rows."""
    n = draw(st.integers(1, 12))

    def family():
        tags = draw(st.lists(st.integers(-1, 3), min_size=n, max_size=n))
        groups = {}
        for state, tag in enumerate(tags, start=1):
            if tag >= 0:
                groups.setdefault(tag, []).append(state)
        return tuple(sorted(tuple(g) for g in groups.values()))

    alpha, beta = family(), family()
    p = draw(st.integers(1, 6))
    rows = {
        row: draw(st.sets(st.integers(1, n), min_size=1, max_size=4))
        for row in range(1, p + 1)
    }
    return alpha, beta, rows


class TestBookkeeping:
    """The linear class bookkeeping against literal pairwise scans."""

    @given(families_and_rows())
    def test_matches_quadratic_references(self, case):
        alpha, beta, rows = case
        overlap = _overlap_rows(alpha, beta)
        assert len(overlap) == len(alpha)
        assert ([(i, j) for i, row in enumerate(overlap) for j in row]
                == overlap_edges(alpha, beta))
        # Each single-state row touches at most one class of a family, so
        # the matchings give every class its lowest row, as a greedy pass does.
        single = {row: {min(states)} for row, states in rows.items()}
        assert _label_rows(single, alpha, beta) == greedy_row_labels(single, alpha, beta)

    @given(families_and_rows())
    def test_labels_are_maximum_matchings(self, case):
        alpha, beta, rows = case
        labels = dict(zip(rows, _label_rows(rows, alpha, beta)))

        def touched(chosen, classes):
            return [[c for c, cls in enumerate(classes) if rows[row] & set(cls)]
                    for row in chosen]

        alpha_rows = [row for row in rows if labels[row] == "alpha"]
        left = [row for row in rows if labels[row] != "alpha"]
        beta_rows = [row for row in left if labels[row] == "beta"]
        # The rows labelled alpha are a largest set of rows matched to
        # rank classes, and the beta rows one among the rows left over.
        assert max_matching_size(touched(alpha_rows, alpha)) == len(alpha_rows)
        assert max_matching_size(touched(rows, alpha)) == len(alpha_rows)
        assert max_matching_size(touched(beta_rows, beta)) == len(beta_rows)
        assert max_matching_size(touched(left, beta)) == len(beta_rows)

    @given(systems(n_max=6, p_max=4))
    def test_row_states_groups_every_row(self, sys):
        if sys.p == 0:
            return
        want = {r: {j for (i, j) in sys.h_pattern if i == r} for r in range(1, sys.p + 1)}
        empty = [r for r, states in want.items() if not states]
        if empty:
            with pytest.raises(MalformedInputError, match=f"row {empty[0]} measures"):
                _row_states(sys)
        else:
            assert _row_states(sys) == want


class TestIsNecessary:
    def test_only_sensor_is_necessary(self, chain3):
        assert is_necessary(chain3, 1)

    def test_cycle_rows_removable(self):
        sys = S(3, 2, [(2, 1), (3, 2), (1, 3)], [(1, 1), (2, 2)])
        assert not is_necessary(sys, 1)
        assert not is_necessary(sys, 2)

    def test_diagonal_all_necessary(self):
        sys = S(2, 2, [(1, 1), (2, 2)], [(1, 1), (2, 2)])
        assert is_necessary(sys, 1)
        assert is_necessary(sys, 2)

    def test_unobservable_system_is_a_precondition_error(self, fan3):
        sys = fan3.with_sensor_rows([1])
        with pytest.raises(PreconditionError, match="observable"):
            is_necessary(sys, 1)

    def test_row_out_of_range(self, chain3):
        with pytest.raises(ParameterError, match="row must be"):
            is_necessary(chain3, 2)

    def test_bool_row_rejected(self, chain3):
        with pytest.raises(ParameterError, match="got True"):
            is_necessary(chain3, True)


class TestPartitionReport:
    def test_fixture_report(self, fix15):
        report = partition_report(fix15)
        assert report.alpha_classes == FIX15_ALPHA
        assert report.beta_classes == FIX15_BETA
        assert report.labels == ()
        assert report.minimal_sets == ((4, 9, 12),)
        assert report.sensor_count == 3

    def test_forbid_flows_through(self, fix15):
        report = partition_report(fix15, forbid={12})
        assert report.sensor_count == 4
        assert report.minimal_sets == ((4, 9, 10, 11),)

    @pytest.mark.parametrize("forbid, message", [
        ({True}, "forbidden state True is not an integer"),
        ({2.0}, "forbidden state 2.0 is not an integer"),
        ({99}, "forbidden state 99 out of range for n=15"),
        ({0}, "forbidden state 0 out of range for n=15"),
        ({-1}, "forbidden state -1 out of range for n=15"),
    ], ids=["bool", "float", "above n", "zero", "negative"])
    def test_bad_forbidden_state_rejected(self, fix15, forbid, message):
        with pytest.raises(MalformedInputError) as exc:
            partition_report(fix15, forbid=forbid)
        assert str(exc.value) == message

    def test_non_iterable_forbid_rejected(self, fix15):
        with pytest.raises(MalformedInputError) as exc:
            partition_report(fix15, forbid=5)
        assert str(exc.value) == "forbid must be an iterable, got 5"

    @given(systems(n_max=7, allow_h=False), st.data())
    def test_placement_is_the_public_one_of_the_report_classes(self, sys, data):
        forbid = data.draw(st.sets(st.integers(1, sys.n), max_size=2))
        try:
            report = partition_report(sys, forbid=forbid, all_witnesses=True)
        except (DegenerateStructureError, InfeasiblePlacementError):
            return
        sets, count = minimal_placement(report.alpha_classes, report.beta_classes,
                                        sys=sys, all_witnesses=True)
        assert (list(report.minimal_sets), report.sensor_count) == (sets, count)

    def test_found_classes_are_not_normalized_again(self, fix15, count_calls):
        normalized = count_calls(partition._normalize_classes)
        forbidden = partition_report(fix15, forbid={2})
        # Forbidding 2 puts {7, 9} first; the report keeps that order.
        assert forbidden.alpha_classes == ((7, 9), (4, 15), (10, 12))
        assert forbidden.minimal_sets == partition_report(fix15).minimal_sets == ((4, 9, 12),)
        assert normalized == []


def fix15_sensed():
    """A fresh copy of the fixture with rows on its witness (4, 9, 12)."""
    return S(15, 3, FIX15_A, [(1, 4), (2, 9), (3, 12)])


def fix15_chain(copies=20):
    """``copies`` disjoint copies of the fixture, each with rows on 9 and 12.

    Copy k holds states 15k+1..15k+15, so 20 copies make 300 states.
    """
    a = [(i + 15 * k, j + 15 * k) for k in range(copies) for (i, j) in FIX15_A]
    h = [(2 * k + r, s + 15 * k) for k in range(copies) for r, s in ((1, 9), (2, 12))]
    return S(15 * copies, 2 * copies, a, h)


class TestSharing:
    """The bare system's matching and classes are found once and shared."""

    def test_classes_found_once_per_system(self, count_calls):
        sys = fix15_sensed()
        n_contractions = count_calls(matching.contractions)
        n_decompose = count_calls(scc.decompose)
        plain = partition_report(sys)
        assert partition_report(sys, forbid={12}).sensor_count == 4
        assert [is_necessary(sys, row) for row in (1, 2, 3)] == [True] * 3
        assert classify_measurements(sys) == plain.labels == ("alpha",) * 3
        assert len(n_contractions) == len(n_decompose) == 1

    def test_derived_systems_share_the_bare_system(self):
        sys = fix15_sensed()
        bare = sys.without_measurements()
        assert sys.with_sensor_rows([1]).without_measurements() is bare
        assert sys.without_row(2).without_measurements() is bare
        assert sys.without_row(2).without_row(1).without_row(1) is bare
        assert sys.with_sensor_rows([1]).without_row(4).without_measurements() is bare
        one_row = S(3, 1, [(2, 1), (3, 2)], [(1, 3)])
        assert one_row.without_row(1) is one_row.without_measurements()

    @given(systems(), st.lists(st.integers(1, 8), max_size=2))
    def test_cached_classes_match_a_fresh_system(self, sys, sensors):
        grown = sys.with_sensor_rows([s for s in sensors if s <= sys.n])
        fresh = S(sys.n, 0, sorted(sys.a_pattern))
        try:
            expected = equivalence_classes(fresh)
        except DegenerateStructureError:
            with pytest.raises(DegenerateStructureError):
                equivalence_classes(sys)
            with pytest.raises(DegenerateStructureError):
                equivalence_classes(grown)
            return
        theorem_check(sys)
        assert equivalence_classes(sys) == expected
        assert equivalence_classes(grown) == expected
        # The seeds still come from a cold matching of the bare graph.
        cold = matching.contractions(S(sys.n, 0, sorted(sys.a_pattern)))
        assert matching.system_contractions(grown.without_measurements()) == cold

    def test_errors_are_never_cached(self, count_calls):
        sys = S(4, 1, [(4, 1), (4, 2), (4, 3)], [(1, 4)])
        n_contractions = count_calls(matching.contractions)
        for call in (equivalence_classes, partition_report, classify_measurements,
                     equivalence_classes):
            with pytest.raises(DegenerateStructureError, match="overlap partially"):
                call(sys)
        assert len(n_contractions) == 4


class TestMatchingBudget:
    """Guards the count of Hopcroft-Karp runs against recomputation."""

    def test_check_and_two_reports_run_eight_matchings(self, count_calls):
        # theorem_check: the bare matching and the input's, warm from it;
        # plain report: class overlap, witness check and the two row-label
        # matchings; forbidden report: class overlap and witness check, the
        # row labels being kept by the system.
        sys = fix15_chain()
        calls = count_calls(_kernels.hopcroft_karp)
        assert theorem_check(sys).observable is False
        assert partition_report(sys).sensor_count == 60
        forbid = {12 + 15 * k for k in range(20)}
        assert partition_report(sys, forbid=forbid).sensor_count == 80
        assert len(calls) == 8

    def test_derived_check_runs_one_matching(self, count_calls):
        # Once the bare matching exists, a derived system's check only
        # augments it, and a second check reads the kept matching.
        sys = fix15_chain()
        theorem_check(sys.without_measurements())
        calls = count_calls(_kernels.hopcroft_karp)
        derived = sys.with_sensor_rows([1])
        assert theorem_check(derived).s_rank == theorem_check(derived).s_rank
        assert len(calls) == 1


class TestPlacementProperties:
    @given(systems(n_max=7, allow_h=False))
    def test_witnesses_hit_every_class_and_observability(self, sys):
        from obspart import DegenerateStructureError

        try:
            alpha, beta = equivalence_classes(sys)
        except DegenerateStructureError:
            return
        sets, count = minimal_placement(alpha, beta, sys=sys)
        witness = sets[0]
        assert len(witness) == count
        for cls in alpha + beta:
            assert set(witness) & set(cls)
        grown = sys.with_sensor_rows(witness)
        assert theorem_check(grown).observable
        assert numeric_observable(sys.n, sys.a_pattern, witness)

    @given(systems(n_max=6, allow_h=False))
    def test_every_witness_sensor_is_necessary(self, sys):
        from obspart import DegenerateStructureError

        try:
            alpha, beta = equivalence_classes(sys)
        except DegenerateStructureError:
            return
        sets, _ = minimal_placement(alpha, beta, sys=sys)
        grown = sys.with_sensor_rows(sets[0])
        for row in range(1, grown.p + 1):
            if row > sys.p:  # only the appended sensors
                assert is_necessary(grown, row)

    @given(systems(n_max=6, allow_h=False))
    def test_count_formula(self, sys):
        from obspart import DegenerateStructureError

        try:
            alpha, beta = equivalence_classes(sys)
        except DegenerateStructureError:
            return
        sets, count = minimal_placement(alpha, beta)
        intersecting = [
            (i, j)
            for i, a in enumerate(alpha)
            for j, b in enumerate(beta)
            if set(a) & set(b)
        ]
        # the formula's matching size is bounded by the smaller family and
        # witnessed by the returned placement size
        assert count >= len(alpha) + len(beta) - min(len(alpha), len(beta))
        assert count <= len(alpha) + len(beta)
        if not intersecting:
            assert count == len(alpha) + len(beta)
        assert len(sets[0]) == count
