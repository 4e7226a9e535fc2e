import re
import threading
import tracemalloc
from sys import getswitchinterval, setswitchinterval

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from obspart import (
    MalformedInputError,
    NumericError,
    NumericRealization,
    ParameterError,
    PreconditionError,
    decompose,
    gramian_rank,
    modal_gramian_rank,
    pbh_check,
    random_system,
    rank_report,
    realize,
    s_rank,
    theorem_check,
    verify_alpha_equivalence,
    verify_beta_equivalence,
)
import obspart.numeric as numeric
from obspart.numeric import (
    NUMERIC_STATE_LIMIT,
    _TRIAL_BLOCK,
    _observable_bases,
    _realize_stack,
)
from conftest import S
from oracles import (
    exact_krylov_rank,
    normalized_a,
    obs_stack,
    observable_basis_reference,
    realize_reference,
    unobservable_modes_reference,
)
from strategies import systems


class TestRealize:
    def test_deterministic_per_seed_and_trial(self, chain3):
        r1 = realize(chain3, seed=42, trial=0)
        r2 = realize(chain3, seed=42, trial=0)
        np.testing.assert_array_equal(r1.a, r2.a)
        np.testing.assert_array_equal(r1.h, r2.h)

    def test_trials_differ(self, chain3):
        r0 = realize(chain3, seed=42, trial=0)
        r1 = realize(chain3, seed=42, trial=1)
        assert not np.array_equal(r0.a, r1.a)

    def test_values_live_on_the_pattern(self, fix15):
        r = realize(fix15)
        nonzero = {(i + 1, j + 1) for i, j in zip(*np.nonzero(r.a))}
        assert nonzero == set(fix15.a_pattern)
        magnitudes = np.abs(r.a[r.a != 0])
        assert np.all((magnitudes >= 0.5) & (magnitudes <= 2.0))

    def test_empty_pattern(self):
        r = realize(S(2, 0, []))
        assert r.a.shape == (2, 2) and not r.a.any()
        assert r.h.shape == (0, 2)

    @given(systems(p_max=3), st.lists(st.integers(1, 8), max_size=3),
           st.integers(0, 3), st.integers(0, 2**32 - 1), st.integers(0, 9))
    def test_matches_the_entry_by_entry_scatter(self, sys, sensors, drop, seed, trial):
        sensors = [min(s, sys.n) for s in sensors]
        derived = [sys, sys.with_sensor_rows(sensors)]
        if 1 <= drop <= sys.p:
            derived.append(sys.without_row(drop))
        for system in derived:
            for draw in ((seed, trial), (seed, trial + 1), (42, 0)):
                r = realize(system, *draw)
                a, h = realize_reference(system, *draw)
                assert r.a.shape == (system.n, system.n)
                assert r.h.shape == (system.p, system.n)
                assert r.a.dtype == r.h.dtype == np.float64
                np.testing.assert_array_equal(r.a, a)
                np.testing.assert_array_equal(r.h, h)

    @given(systems(p_max=3), st.integers(0, 2**32 - 1), st.integers(1, 9))
    def test_each_trial_of_the_stack_is_a_lone_realization(self, sys, seed, trials):
        a, h = _realize_stack(sys, seed, range(trials))
        assert a.shape == (trials, sys.n, sys.n)
        assert h.shape == (trials, sys.p, sys.n)
        for t in range(trials):
            r = realize(sys, seed, t)
            ref_a, ref_h = realize_reference(sys, seed, t)
            for got, want in ((r.a, a[t]), (r.h, h[t]), (r.a, ref_a), (r.h, ref_h)):
                assert got.tobytes() == want.tobytes()

    def test_kept_offsets_are_read_only(self, fix15):
        sys = fix15.with_sensor_rows([4, 9])
        realize(sys)
        a_offsets, h_offsets = sys._a_keys, sys._h_keys
        for offsets in (a_offsets, h_offsets):
            assert offsets.dtype == np.int64 and not offsets.flags.writeable
            with pytest.raises(ValueError):
                offsets[0] = 0
        assert sys._a_keys is a_offsets and sys._h_keys is h_offsets

    def test_parameter_validation(self, chain3):
        with pytest.raises(ParameterError, match="seed"):
            realize(chain3, seed=-1)
        with pytest.raises(ParameterError, match="trial"):
            realize(chain3, trial=-2)
        for flag in (True, False):
            with pytest.raises(ParameterError, match="seed"):
                realize(chain3, seed=flag)
            with pytest.raises(ParameterError, match="trial"):
                realize(chain3, trial=flag)


def block_chain(rng, n, sensors):
    """n states in random blocks of 3-10, each block feeding the next
    through one arc, with single-state sensors on distinct states."""
    a = []
    start = 0
    tail = None
    while start < n:
        size = min(n - start, int(rng.integers(3, 11)))
        block = random_system(rng, size, size, p_lo=0, p_hi=0)
        a += [(i + start, j + start) for i, j in sorted(block.a_pattern)]
        if tail is not None:
            a.append((start + int(rng.integers(1, size + 1)), tail))
        tail = start + int(rng.integers(1, size + 1))
        start += size
    states = rng.choice(n, size=sensors, replace=False)
    h = [(k + 1, int(s) + 1) for k, s in enumerate(states)]
    return S(n, sensors, a, h)


class TestGramianRank:
    def test_chain_full_rank(self, chain3):
        assert gramian_rank(realize(chain3)) == 3

    def test_chain_measured_at_source(self):
        sys = S(3, 1, [(2, 1), (3, 2)], [(1, 1)])
        assert gramian_rank(realize(sys)) == 1

    def test_cycle_single_sensor(self):
        sys = S(3, 1, [(2, 1), (3, 2), (1, 3)], [(1, 1)])
        assert gramian_rank(realize(sys)) == 3

    def test_no_measurements(self, fan3):
        assert gramian_rank(realize(fan3)) == 0

    def test_tol_must_be_positive(self, chain3):
        with pytest.raises(ParameterError, match="tol must be positive"):
            gramian_rank(realize(chain3), tol=0)

    @pytest.mark.parametrize("tol", [float("inf"), float("nan")])
    def test_tol_must_be_finite(self, chain3, tol):
        with pytest.raises(ParameterError, match="tol must be positive"):
            gramian_rank(realize(chain3), tol=tol)

    def test_no_overcount_on_a_long_block_chain(self):
        # Re-orthonormalizing the whole stacked basis at every step let
        # rounding errors grow into spurious directions here: ranks
        # (100, 100, 110, 100, 100) against an exact generic rank of 87.
        sys = block_chain(np.random.default_rng(17), 130, 6)
        exact = exact_krylov_rank(sys.n, sorted(sys.a_pattern), sorted(sys.h_pattern))
        assert exact == 87
        assert rank_report(sys).gramian_ranks == (exact,) * 5

    @pytest.mark.parametrize("seed, n, sensors, exact", [
        (19, 130, 6, 67),
        (36, 100, 4, 61),
    ])
    def test_no_overcount_past_the_accessible_states(self, seed, n, sensors, exact):
        # Grown on all n states, rounding leaked into the inaccessible
        # columns: every trial read 76 and 69 here.
        sys = block_chain(np.random.default_rng(seed), n, sensors)
        a, h = sorted(sys.a_pattern), sorted(sys.h_pattern)
        assert exact_krylov_rank(sys.n, a, h) == exact
        assert rank_report(sys).gramian_ranks == (exact,) * 5

    @given(systems(), st.lists(st.integers(1, 8), max_size=3))
    def test_rank_never_exceeds_the_accessible_states(self, sys, sensors):
        for system in (sys, sys.with_sensor_rows([min(s, sys.n) for s in sensors])):
            accessible = system.n - len(theorem_check(system).inaccessible)
            assert max(rank_report(system, trials=3).gramian_ranks) <= accessible

    def test_scale_invariance(self, chain3):
        r = realize(chain3)
        base = gramian_rank(r)
        for c in (0.1, 1.0, 10.0):
            scaled = NumericRealization(a=c * r.a, h=r.h, seed=r.seed,
                                        trial=r.trial)
            assert gramian_rank(scaled) == base


# n = 12, p = 3: at tol 1e-3 and the default seed the five trials' ranks
# are (8, 8, 7, 8, 8), and trial 2 falls one row behind the others two
# steps before the end, so a step grows trials 0, 1, 3 and 4 together
# and trial 2 on its own.
SPLIT_A = [(1, 2), (1, 3), (1, 10), (1, 11), (5, 3), (6, 1), (6, 2), (7, 10),
           (7, 11), (8, 3), (8, 4), (10, 1), (10, 3), (11, 3), (11, 4),
           (11, 8), (11, 9), (12, 4), (12, 11)]
SPLIT_H = [(1, 9), (2, 7), (3, 1)]
# n = 12, p = 3: ranks (10, 11, 11, 11, 11) at tol 1e-3, trial 0 a step
# behind the contiguous group of trials 1-4 for six steps.
LAGGING_A = [(2, 2), (2, 4), (2, 9), (3, 4), (3, 8), (3, 11), (4, 6), (5, 4),
             (5, 10), (6, 3), (6, 5), (6, 9), (7, 1), (7, 7), (7, 9), (8, 12),
             (10, 5), (10, 12), (11, 1), (11, 9), (12, 7)]
LAGGING_H = [(1, 7), (2, 10), (3, 11)]


def lockstep_bases(sys, seed, trials, tol):
    a, h = _realize_stack(sys, seed, range(trials))
    basis, counts = _observable_bases(a, h, tol)
    return [basis[t, :counts[t]] for t in range(trials)]


def reference_bases(sys, seed, trials, tol):
    return [
        observable_basis_reference(
            NumericRealization(*realize_reference(sys, seed, t), seed, t), tol)
        for t in range(trials)
    ]


def assert_bitwise_reference(sys, seed, trials, tol):
    for got, want in zip(lockstep_bases(sys, seed, trials, tol),
                         reference_bases(sys, seed, trials, tol), strict=True):
        assert got.shape == want.shape
        assert np.array_equal(got, want)


class TestLockstepBases:
    @given(systems(p_max=3), st.lists(st.integers(1, 8), max_size=3),
           st.integers(0, 3), st.integers(1, 7), st.sampled_from([1e-8, 1e-6]),
           st.integers(0, 2**32 - 1))
    def test_each_basis_is_bitwise_the_lone_one(self, sys, sensors, drop,
                                                 trials, tol, seed):
        sensors = [min(s, sys.n) for s in sensors]
        derived = [sys, sys.with_sensor_rows(sensors)]
        if 1 <= drop <= sys.p:
            derived.append(sys.without_row(drop))
        for system in derived:
            assert_bitwise_reference(system, seed, trials, tol)

    @pytest.mark.parametrize("a, h, ranks", [
        (SPLIT_A, SPLIT_H, (8, 8, 7, 8, 8)),
        (LAGGING_A, LAGGING_H, (10, 11, 11, 11, 11)),
    ])
    def test_diverging_trials_match_bitwise(self, a, h, ranks):
        sys = S(12, 3, a, h)
        report = rank_report(sys, trials=5, tol=1e-3)
        assert len(set(report.gramian_ranks)) > 1
        assert report.gramian_ranks == ranks
        assert_bitwise_reference(sys, 42, 5, 1e-3)

    def test_long_block_chain_matches_bitwise(self):
        sys = block_chain(np.random.default_rng(17), 130, 6)
        assert_bitwise_reference(sys, 42, 3, 1e-8)

    @given(systems(), st.sampled_from([1e-300, 1e-17, 1e-8]))
    def test_rank_never_exceeds_n(self, sys, tol):
        report = rank_report(sys, trials=3, tol=tol)
        assert all(r <= sys.n for r in report.gramian_ranks)
        assert gramian_rank(realize(sys), tol) <= sys.n

    def test_tiny_tol_keeps_the_rank_at_n(self):
        sys = S(3, 3, [(1, 2), (1, 3), (2, 2), (2, 3)], [(1, 1), (2, 2), (3, 1)])
        assert gramian_rank(realize(sys), 1e-17) == 3
        assert pbh_check(realize(sys), 1e-17) == ()

    def test_caller_realization_is_never_written(self, fix15):
        for sys in (fix15.with_sensor_rows([4, 9]), S(2, 1, [(1, 1), (2, 2)], [(1, 1)])):
            r = realize(sys)
            a, h = r.a.tobytes(), r.h.tobytes()
            gramian_rank(r)
            pbh_check(r)
            assert r.a.tobytes() == a and r.h.tobytes() == h

    def test_trials_go_through_in_blocks(self, monkeypatch):
        sys = S(12, 3, SPLIT_A, SPLIT_H)
        sizes = []
        stack = numeric._realize_stack

        def counted(sys, seed, trials):
            sizes.append(len(trials))
            return stack(sys, seed, trials)

        monkeypatch.setattr(numeric, "_realize_stack", counted)
        report = rank_report(sys, trials=23, tol=1e-3)
        assert max(sizes) == _TRIAL_BLOCK and sum(sizes) == 23
        want = tuple(b.shape[0] for b in reference_bases(sys, 42, 23, 1e-3))
        assert len(set(want)) > 1
        assert report.gramian_ranks == want
        assert report.pbh_observable == tuple(r == 12 for r in want)

    def test_one_svd_per_step_for_all_trials(self, monkeypatch):
        # an 8-cycle seen at one state: every trial gains one row a step
        sys = S(8, 1, [(i + 1, i) for i in range(1, 8)] + [(1, 8)], [(1, 1)])
        calls = []
        svd = np.linalg.svd

        def counted(*args, **kwargs):
            calls.append(args[0].shape)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        report = rank_report(sys, trials=5)
        assert report.gramian_ranks == (8,) * 5
        assert len(calls) <= 1 + sys.n


def assert_realized_as_reference(sys, seed, trial):
    r = realize(sys, seed, trial)
    a, h = realize_reference(sys, seed, trial)
    assert r.a.tobytes() == a.tobytes() and r.h.tobytes() == h.tobytes()


def assert_same_modes(got, want):
    assert np.array(got, dtype=complex).tobytes() == np.array(want, dtype=complex).tobytes()


def assert_report_as_reference(sys, seed, trials, tol):
    report = rank_report(sys, seed, trials, tol)
    bases = reference_bases(sys, seed, trials, tol)
    first = NumericRealization(*realize_reference(sys, seed, 0), seed, 0)
    assert report.gramian_ranks == tuple(b.shape[0] for b in bases)
    assert_same_modes(report.pbh_rank_deficient_eigenvalues,
                      unobservable_modes_reference(first, bases[0], tol))


def assert_same_legacy_state(before):
    after = np.random.get_state()
    assert before[0] == after[0] and np.array_equal(before[1], after[1])
    assert before[2:] == after[2:]


class TestKeptStates:
    def test_interleaved_and_repeated_orders(self):
        sys = S(12, 3, SPLIT_A, SPLIT_H)
        legacy = np.random.get_state()
        # (seed, trial) for a lone realization, (seed, trials) for a report
        realizations = [(7, 0), (7, 3), (8, 1), (7, 0), (8, 0), (7, 4), (8, 1)]
        reports = [(7, 5), (8, 2), (7, 5), (8, 3), (7, 2), (8, 2), (7, 5)]
        for lone, report in zip(realizations, reports):
            assert_realized_as_reference(sys, *lone)
            assert_report_as_reference(sys, *report, 1e-3)
        assert_same_legacy_state(legacy)

    def test_evicted_states_are_seeded_again(self, chain3):
        cache = numeric._initial_state
        size = cache.cache_info().maxsize
        keys = [(seed, trial) for seed in range(size // 4 + 2) for trial in range(4)]
        for key in keys:
            realize(chain3, *key)
        assert cache.cache_info().currsize == size
        misses = cache.cache_info().misses
        for key in keys[:8]:
            assert_realized_as_reference(chain3, *key)
        assert cache.cache_info().misses == misses + 8
        for key in keys[:8] + keys[-8:]:
            assert_realized_as_reference(chain3, *key)
        assert cache.cache_info().misses == misses + 8

    def test_threads_draw_their_own_seeds(self):
        system = S(12, 3, SPLIT_A, SPLIT_H)
        seeds = (11, 12, 13, 14)
        want = {(seed, t): realize_reference(system, seed, t)
                for seed in seeds for t in range(4)}
        legacy = np.random.get_state()
        wrong = []

        def draw(seed):
            for _ in range(100):
                for t in range(4):
                    r = realize(system, seed, t)
                    a, h = want[seed, t]
                    if r.a.tobytes() != a.tobytes() or r.h.tobytes() != h.tobytes():
                        wrong.append((seed, t))

        threads = [threading.Thread(target=draw, args=(seed,)) for seed in seeds]
        interval = getswitchinterval()
        setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []
        assert_same_legacy_state(legacy)


class TestFixedCosts:
    def test_rank_zero_skips_the_block_eigensolve(self, monkeypatch):
        sys = S(4, 0, [(2, 1), (3, 2), (4, 3), (1, 4)])
        calls = []
        for name in ("qr", "eigvals"):
            real = getattr(np.linalg, name)

            def counted(*args, real=real, name=name, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        report = rank_report(sys)
        assert report.gramian_ranks == (0,) * 5
        assert len(report.pbh_rank_deficient_eigenvalues) == 4
        assert calls == ["eigvals"]

    def test_a_repeated_report_seeds_nothing(self, monkeypatch):
        sys = S(12, 3, SPLIT_A, SPLIT_H)
        numeric._initial_state.cache_clear()
        seeded = []
        for name in ("PCG64", "default_rng"):
            real = getattr(np.random, name)

            def counted(*args, real=real, **kwargs):
                seeded.append(args)
                return real(*args, **kwargs)

            monkeypatch.setattr(np.random, name, counted)
        first = rank_report(sys, seed=5)
        # PCG64(0) builds this thread's generator, if no call has yet
        assert [args for args in seeded if args != (0,)] == [([5, t],) for t in range(5)]
        seeded.clear()
        assert rank_report(sys, seed=5) == first
        assert seeded == []


def chain(n):
    """States 1 -> 2 -> ... -> n, with the last one measured."""
    return S(n, 1, [(i + 1, i) for i in range(1, n)], [(1, n)])


class TestStateLimit:
    def test_limit_is_realized(self):
        r = realize(chain(NUMERIC_STATE_LIMIT))
        assert r.a.shape == (NUMERIC_STATE_LIMIT, NUMERIC_STATE_LIMIT)

    @pytest.mark.parametrize("call", [realize, rank_report, modal_gramian_rank])
    def test_above_limit_is_refused_before_any_square_array(self, call):
        n = NUMERIC_STATE_LIMIT + 1
        sys = chain(n)
        tracemalloc.start()
        try:
            with pytest.raises(PreconditionError) as info:
                call(sys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(info.value) == (f"the numeric oracle realizes at most "
                                   f"{NUMERIC_STATE_LIMIT} states, got n={n}")
        # One n x n array of doubles would take n^2 * 8 bytes, about 34 MB.
        assert peak < n * n * 8 // 100


class TestModalVote:
    def test_unanimous_chain(self, chain3):
        modal, agreement = modal_gramian_rank(chain3, trials=7)
        assert modal == 3
        assert agreement == 1.0

    def test_trials_validation(self, chain3):
        with pytest.raises(ParameterError, match="trials"):
            modal_gramian_rank(chain3, trials=0)
        with pytest.raises(ParameterError, match="trials"):
            modal_gramian_rank(chain3, trials=True)

    @given(systems(n_max=6))
    def test_mode_is_lowest_among_most_frequent(self, sys):
        report = rank_report(sys, trials=5)
        counts = {}
        for r in report.gramian_ranks:
            counts[r] = counts.get(r, 0) + 1
        best = max(counts.values())
        assert report.gramian_rank == min(
            r for r, c in counts.items() if c == best
        )
        assert report.agreement == best / 5


class TestPbh:
    def test_deficient_mode_of_a_diagonal_pair(self):
        r = NumericRealization(
            a=np.diag([1.0, 2.0]), h=np.array([[1.0, 0.0]]), seed=0, trial=0
        )
        deficient = pbh_check(r)
        assert len(deficient) == 1
        assert deficient[0] == pytest.approx(2 + 0j)

    def test_repeated_eigenvalue_reported_with_multiplicity(self):
        r = NumericRealization(
            a=np.eye(2), h=np.array([[1.0, 0.0]]), seed=0, trial=0
        )
        deficient = pbh_check(r)
        assert len(deficient) == 2
        assert all(lam == pytest.approx(1 + 0j) for lam in deficient)

    def test_observable_realization_has_no_deficient_modes(self, chain3):
        assert pbh_check(realize(chain3)) == ()

    def test_verdict_is_scale_invariant(self):
        for c in (0.1, 1.0, 10.0):
            r = NumericRealization(
                a=c * np.diag([1.0, 2.0]), h=np.array([[1.0, 0.0]]),
                seed=0, trial=0,
            )
            assert len(pbh_check(r)) == 1

    def test_eigenvalues_sorted(self):
        # two unobserved real modes come back in increasing order
        r = NumericRealization(
            a=np.diag([3.0, 1.0, 2.0]),
            h=np.zeros((0, 3)), seed=0, trial=0,
        )
        deficient = pbh_check(r)
        assert [z.real for z in deficient] == [1.0, 2.0, 3.0]

    def test_eigensolver_failure_is_a_numeric_error(self, monkeypatch):
        def fail(matrix):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvals", fail)
        r = NumericRealization(
            a=np.diag([1.0, 2.0]), h=np.array([[1.0, 0.0]]), seed=0, trial=0
        )
        with pytest.raises(NumericError,
                           match=r"^eigensolver failed: Eigenvalues did not converge\nA = \["):
            pbh_check(r)


def assert_pbh_as_reference(sys, sensors, drop, tol, seed):
    """``pbh_check`` and ``rank_report`` list bitwise the reference's
    modes on the system, its bare system, and the system with sensors
    added or row ``drop`` dropped."""
    sensors = [min(s, sys.n) for s in sensors]
    derived = [sys, sys.without_measurements(), sys.with_sensor_rows(sensors)]
    if 1 <= drop <= sys.p:
        derived.append(sys.without_row(drop))
    for system in derived:
        r = NumericRealization(*realize_reference(system, seed, 0), seed, 0)
        want = unobservable_modes_reference(
            r, observable_basis_reference(r, tol), tol)
        assert_same_modes(pbh_check(r, tol), want)
        report = rank_report(system, seed, trials=2, tol=tol)
        assert_same_modes(report.pbh_rank_deficient_eigenvalues, want)


class TestPbhReference:
    @given(systems(p_max=3), st.lists(st.integers(1, 8), max_size=3),
           st.integers(0, 3), st.sampled_from([1e-8, 1e-6, 1.0, 2.0]),
           st.integers(0, 2**32 - 1))
    def test_bitwise_the_reference(self, sys, sensors, drop, tol, seed):
        assert_pbh_as_reference(sys, sensors, drop, tol, seed)

    @given(systems(p_max=3), st.lists(st.integers(1, 8), max_size=3),
           st.integers(0, 3), st.sampled_from([1e-8, 1e-6, 1.0, 2.0]),
           st.integers(0, 2**32 - 1))
    def test_bitwise_the_reference_by_component(self, sys, sensors, drop, tol, seed):
        # With the gate at 0 every system takes its eigenvalues from the
        # diagonal blocks of its components, as systems of 64 states do.
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(numeric, "_COMPONENT_SPECTRUM_STATES", 0)
            assert_pbh_as_reference(sys, sensors, drop, tol, seed)

    @pytest.mark.parametrize("diagonal, want, exact_norms", [
        # x1's gap 1e-3 is above sqrt(tol) * F: it passes on the bound alone.
        ((1.0, 1.001, 3.0), (1.001, 3.0), 0),
        # x1's gap 1e-6 lies between tol * F / sqrt(3) and sqrt(tol) * F,
        # and the SVD of B - I lets it pass.
        ((1.0, 1.000001, 3.0), (1.000001, 3.0), 1),
        # F / sqrt(3) = 57.7 against sigma_max = 100: x1's gap 8e-7 is
        # above tol times the lower bound, below tol times the exact norm.
        ((1.0, 1.0000008, 100.0), (1.0, 1.0000008, 100.0), 1),
    ])
    def test_exact_norm_only_between_the_bounds(self, monkeypatch, diagonal, want,
                                                exact_norms):
        # H measures x1 alone, so x2 and x3 span the unobservable block.
        r = NumericRealization(a=np.diag(diagonal), h=np.array([[1.0, 0.0, 0.0]]),
                               seed=0, trial=0)
        basis = observable_basis_reference(r, 1e-8)
        expected = unobservable_modes_reference(r, basis, 1e-8)
        norms = []
        norm = np.linalg.norm

        def counted(x, ord=None, *args, **kwargs):
            norms.append(ord)
            return norm(x, ord, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "norm", counted)
        got = pbh_check(r, 1e-8)
        assert_same_modes(got, expected)
        assert got == want
        assert norms.count(2) == exact_norms


class TestPbhComponents:
    def test_chain_lists_the_report_modes_and_exact_zeros(self):
        sys = block_chain(np.random.default_rng(17), 130, 6)
        assert sys.n >= numeric._COMPONENT_SPECTRUM_STATES
        report = rank_report(sys)
        modes = report.pbh_rank_deficient_eigenvalues
        assert report.gramian_rank < sys.n
        assert_same_modes(pbh_check(realize(sys)), modes)
        loops = {i for i, j in sys.a_pattern if i == j}
        unlooped = [c for c in decompose(sys).components
                    if len(c) == 1 and c[0] not in loops]
        assert set(theorem_check(sys).inaccessible) & {c[0] for c in unlooped}
        assert sum(z == 0 for z in modes) == len(unlooped) > 0

    def test_blocks_of_one_size_share_one_eigensolve(self, monkeypatch):
        # Components {1, 2}, {3, 4}, {5, 6, 7}, {8} and {9}; no rows, so
        # every eigenvalue fails and no block of the complement is solved.
        a = np.zeros((9, 9))
        for i, j, v in [(0, 1, 1.0), (1, 0, -2.0), (2, 3, 3.0), (3, 2, 0.5),
                        (4, 5, 1.0), (5, 6, 1.0), (6, 4, 1.5), (7, 7, -0.75),
                        (2, 0, 1.0), (4, 3, 1.0)]:
            a[i, j] = v
        shapes = []
        eigvals = np.linalg.eigvals

        def counted(matrix):
            shapes.append(matrix.shape)
            return eigvals(matrix)

        monkeypatch.setattr(np.linalg, "eigvals", counted)
        monkeypatch.setattr(numeric, "_COMPONENT_SPECTRUM_STATES", 0)
        got = pbh_check(NumericRealization(a=a, h=np.zeros((0, 9)), seed=0, trial=0))
        assert shapes == [(2, 2, 2), (1, 3, 3)]
        assert got.count(0j) == 1 and got.count(-0.75 + 0j) == 1
        gaps = np.abs(np.subtract.outer(np.array(got), eigvals(a)))
        assert len(got) == 9 and gaps.min(axis=0).max() < 1e-12
        assert gaps.min(axis=1).max() < 1e-12

    def test_eigensolver_failure_is_a_numeric_error(self, monkeypatch):
        shapes = []

        def fail(matrix):
            shapes.append(matrix.shape)
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvals", fail)
        monkeypatch.setattr(numeric, "_COMPONENT_SPECTRUM_STATES", 0)
        # A 2-cycle seen at x1 and an unseen x3 with a self-loop.
        a = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 2.0]])
        r = NumericRealization(a=a, h=np.array([[1.0, 0.0, 0.0]]), seed=0, trial=0)
        with pytest.raises(NumericError,
                           match=r"^eigensolver failed: Eigenvalues did not converge\nA = \["):
            pbh_check(r)
        assert shapes == [(1, 2, 2)]


class TestRankReport:
    @pytest.mark.parametrize("kwargs, message", [
        ({"trials": True}, "trials must be a positive integer, got True"),
        ({"tol": True}, "tol must be positive, got True"),
        ({"seed": True}, "seed must be a non-negative integer, got True"),
    ])
    def test_bools_rejected(self, chain3, kwargs, message):
        with pytest.raises(ParameterError, match=rf"^{re.escape(message)}$"):
            rank_report(chain3, **kwargs)

    def test_chain_report(self, chain3):
        report = rank_report(chain3, trials=3)
        assert report.n == 3
        assert report.trials == 3
        assert report.gramian_rank == 3
        assert report.agreement == 1.0
        assert report.gramian_ranks == (3, 3, 3)
        assert report.pbh_rank_deficient_eigenvalues == ()
        assert report.pbh_observable == (True, True, True)

    def test_unobservable_report(self):
        sys = S(2, 1, [(1, 1), (2, 2)], [(1, 1)])
        report = rank_report(sys, trials=3)
        assert report.gramian_rank == 1
        assert len(report.pbh_rank_deficient_eigenvalues) == 1
        assert report.pbh_observable == (False, False, False)


class TestVerifyAlpha:
    def test_fan_sources_interchangeable(self, fan3):
        assert verify_alpha_equivalence(fan3, 1, 2)

    def test_fan_cross_class_rejected(self, fan3):
        assert not verify_alpha_equivalence(fan3, 1, 3)
        assert not verify_alpha_equivalence(fan3, 2, 3)

    def test_reflexive(self, fan3):
        assert verify_alpha_equivalence(fan3, 1, 1)

    def test_own_measurements_are_ignored(self, fan3):
        # the check compares against the bare state pattern, so stacking
        # the system with sensors does not change the verdict
        grown = fan3.with_sensor_rows([1, 3])
        assert verify_alpha_equivalence(grown, 1, 2)

    def test_fixture_class_members(self, fix15):
        assert verify_alpha_equivalence(fix15, 2, 7)
        assert verify_alpha_equivalence(fix15, 7, 9)
        assert verify_alpha_equivalence(fix15, 4, 15)
        assert not verify_alpha_equivalence(fix15, 2, 4)

    def test_numeric_rank_below_the_structural_one_is_rejected(self, fix15):
        # 2 and 7 share a rank class, so every structural probe passes; at
        # tol 0.9 the realization's SVD counts fewer ranks than they do.
        assert verify_alpha_equivalence(fix15, 2, 7)
        assert not verify_alpha_equivalence(fix15, 2, 7, tol=0.9)

    def test_bad_seed_raises_for_every_pair(self):
        # (1, 2) fails the structural test, so the seed was never read there.
        chain = S(3, 0, [(2, 1), (3, 2)])
        for seed in (-1, True, 1.5):
            for u, v in ((3, 3), (1, 2)):
                with pytest.raises(ParameterError, match="seed"):
                    verify_alpha_equivalence(chain, u, v, seed=seed)

    @pytest.mark.parametrize("v, message", [
        (0, "sensor state 0 out of range for n=3"),
        (99, "sensor state 99 out of range for n=3"),
        ("x", "sensor state 'x' is not an integer"),
    ])
    def test_both_states_are_checked(self, v, message):
        # u's probe fails the structural test, which does not make v's check moot.
        sys = S(3, 0, [(2, 1), (3, 1)])
        for args in ((1, v), (v, 1)):
            with pytest.raises(MalformedInputError) as exc:
                verify_alpha_equivalence(sys, *args)
            assert str(exc.value) == message


class TestVerifyBeta:
    def test_cycle_members_interchangeable(self, cycle3):
        assert verify_beta_equivalence(cycle3, [], 1, 2)
        assert verify_beta_equivalence(cycle3, [], 2, 3)

    def test_diagonal_loops_not_interchangeable(self):
        sys = S(2, 0, [(1, 1), (2, 2)])
        assert not verify_beta_equivalence(sys, [], 1, 2)

    def test_reflexive_on_empty_base(self, cycle3):
        assert verify_beta_equivalence(cycle3, [], 1, 1)

    def test_single_state_loop_end_anchors_to_base(self):
        # chain feeding nothing plus an isolated self-loop: the loop
        # sensor adds exactly one to the rank of the chain base
        sys = S(4, 0, [(2, 1), (3, 2), (4, 4)])
        assert verify_beta_equivalence(sys, [3], 4, 4)

    def test_non_iterable_base_rejected(self, cycle3):
        with pytest.raises(MalformedInputError) as exc:
            verify_beta_equivalence(cycle3, 5, 1, 2)
        assert str(exc.value) == "h_alpha must be an iterable, got 5"

    def test_multi_state_class_fails_the_unit_increment_anchor(self):
        # a two-state loop reveals both of its states at once, so the
        # exactly-one increment over a nonempty base cannot hold even for
        # genuinely interchangeable sensors; the check is that strict
        sys = S(5, 0, [(2, 1), (3, 2), (4, 5), (5, 4)])
        assert not verify_beta_equivalence(sys, [3], 4, 5)


    def test_base_rank_only_when_it_decides(self, count_calls):
        # The base rank is read only over a nonempty base, and only once
        # the ranks with u, with v and with both agree.
        calls = count_calls(numeric.modal_gramian_rank)
        loops = S(5, 0, [(2, 1), (3, 2), (4, 4), (5, 5)])
        for sys, base, u, v, verdict, count in (
                (S(3, 0, [(2, 1), (3, 2), (1, 3)]), [], 1, 2, True, 3),
                (loops, [3], 4, 5, False, 3),
                (loops, [3], 4, 4, True, 4)):
            calls.clear()
            assert verify_beta_equivalence(sys, base, u, v) is verdict
            assert len(calls) == count

class TestGenericAgreement:
    """Every realization takes the structural verdict's rank."""

    def test_observable_chain(self, chain3):
        assert rank_report(chain3, trials=100).gramian_ranks == (3,) * 100

    def test_unobservable_system(self, fan3):
        assert rank_report(fan3, trials=20).gramian_ranks == (0,) * 20


class TestStructuralNumericBridge:
    @given(systems(n_max=7))
    def test_gramian_rank_bounded_by_structural_rank(self, sys):
        assert gramian_rank(realize(sys)) <= s_rank(sys, include_h=True)

    @given(systems(n_max=7))
    def test_rank_matches_exact_generic_rank(self, sys):
        exact = exact_krylov_rank(sys.n, sorted(sys.a_pattern), sorted(sys.h_pattern))
        assert gramian_rank(realize(sys)) == exact

    @given(systems(n_max=6))
    def test_iterated_rank_matches_plain_stack_svd(self, sys):
        # on small systems the power stack is well conditioned, so the
        # incremental row-space rank must equal a plain SVD of the stack
        r = realize(sys)
        stack = obs_stack(normalized_a(r.a), r.h)
        sv = np.linalg.svd(stack, compute_uv=False) if stack.size else np.zeros(1)
        stacked = (sv > 1e-8 * sv[0]).sum()
        assert gramian_rank(r) == stacked

    @given(systems(n_max=7, allow_h=False))
    def test_realized_a_attains_structural_rank(self, sys):
        r = realize(sys)
        ranks = []
        for trial in range(3):
            rt = realize(sys, trial=trial)
            sv = np.linalg.svd(rt.a, compute_uv=False)
            if sv.size and sv[0] > 0:
                ranks.append(int((sv > 1e-8 * sv[0]).sum()))
            else:
                ranks.append(0)
        assert max(ranks) == s_rank(sys)
        assert r.a.shape == (sys.n, sys.n)
