import copy

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from obspart import (
    DegenerateStructureError,
    StructuredSystem,
    build_digraph,
    contractions,
    s_rank,
    random_system,
    system_contractions,
)
from obspart._kernels import hopcroft_karp
from conftest import FIX15_ALPHA, S
from oracles import (
    all_maximum_matchings,
    horizontal_parts,
    possible_unmatched_sets,
    rank_class_sets,
)
from strategies import systems


def matched_pairs(sys):
    """The 0-based (begin, end) pairs of the system's kept matching."""
    match_begin, _ = sys.matching
    return [(b, e) for b, e in enumerate(match_begin) if e >= 0]


class TestMaximumMatching:
    def test_chain(self):
        # States 1 -> 2 -> 3: ends 2 and 3 are taken, state 3 has no row.
        assert S(3, 0, [(2, 1), (3, 2)]).matching == ((1, 2, -1), (-1, 0, 1))

    def test_cycle(self, cycle3):
        match_begin, match_end = cycle3.matching
        assert -1 not in match_begin and -1 not in match_end

    def test_fan(self, fan3):
        match_begin, _ = fan3.matching
        assert len(matched_pairs(fan3)) == 1
        assert match_begin.count(-1) == 2

    def test_no_shared_endpoints(self):
        sys = S(4, 2, [(1, 2), (3, 2), (4, 4)], [(1, 2), (2, 3)])
        _, match_end = sys.matching
        pairs = matched_pairs(sys)
        assert len({e for _, e in pairs}) == len(pairs)
        assert all(match_end[e] == b for b, e in pairs)
        assert match_end.count(-1) == sys.n_end - len(pairs)

    @given(systems(n_max=6))
    def test_size_is_maximum(self, sys):
        if sys.edges:
            best = max(len(x) for x in all_maximum_matchings(sys.n, sys.edges))
        else:
            best = 0
        assert len(matched_pairs(sys)) == s_rank(sys, include_h=True) == best


class TestSRank:
    def test_full_diagonal(self):
        assert s_rank(S(4, 0, [(i, i) for i in range(1, 5)])) == 4

    def test_chain(self):
        assert s_rank(S(3, 0, [(2, 1), (3, 2)])) == 2

    def test_stacked_includes_h(self):
        sys = S(3, 2, [(3, 1), (3, 2)], [(1, 1), (2, 3)])
        assert s_rank(sys) == 1
        assert s_rank(sys, include_h=True) == 3

    @given(systems())
    def test_h_never_decreases_rank(self, sys):
        assert s_rank(sys, include_h=True) >= s_rank(sys)

    @given(systems(n_max=6, allow_h=False), st.tuples(st.integers(1, 6), st.integers(1, 6)))
    def test_monotone_under_edge_addition(self, sys, extra):
        i, j = extra
        if i > sys.n or j > sys.n:
            return
        grown = StructuredSystem(
            n=sys.n, p=0, a_pattern=sys.a_pattern | {(i, j)}
        )
        assert s_rank(grown) >= s_rank(sys)


class TestContractions:
    def test_fan_two_contractions(self, fan3):
        cons = system_contractions(fan3)
        assert [c.members for c in cons] == [(1, 2), (3,)]
        assert [c.id for c in cons] == [0, 1]

    def test_chain_single(self):
        cons = system_contractions(S(3, 0, [(2, 1), (3, 2)]))
        assert [c.members for c in cons] == [(3,)]

    def test_fixture_three(self, fix15):
        cons = system_contractions(fix15)
        assert tuple(c.members for c in cons) == FIX15_ALPHA

    def test_merged_seeds(self):
        # x1 and x2 both feed x3 only, and x3 and x4 feed nothing.  x1 is
        # matched to x3, so seed 2 reaches it: one class {1, 2}.  Seeds 3
        # and 4 have no edges and are classes of their own.  No two seeds
        # ever share a class, so nothing is merged.
        cons = system_contractions(S(4, 0, [(3, 1), (3, 2)]))
        assert [c.members for c in cons] == [(1, 2), (3,), (4,)]

    def test_partial_overlap_degenerate(self):
        # three begins compete for one end: the deficient component is
        # short by two, and the seeds' member sets overlap partially
        sys = S(4, 0, [(4, 1), (4, 2), (4, 3)])
        with pytest.raises(DegenerateStructureError, match="overlap partially") as exc:
            system_contractions(sys)
        # x1, x2 and x3 share the one end: one part short by two.  x4 has
        # no end at all: a part of its own, short by one.
        assert exc.value.components == ((1, 2), (4, 1))
        assert str(exc.value) == (
            "contraction member sets overlap partially: some deficient "
            "component is short by two or more nodes (lowest state 1: short by 2)")

    def test_star_diagnostic_is_bounded(self):
        # States 1..200 feed state 201: one part of 200 states short by 199,
        # and state 201, which feeds nothing, short by one.
        sys = S(201, 0, [(201, i) for i in range(1, 201)])
        with pytest.raises(DegenerateStructureError) as exc:
            contractions(build_digraph(sys))
        assert exc.value.components == ((1, 199), (201, 1))
        assert str(exc.value).endswith("(lowest state 1: short by 199)")

    def test_clashes_join_through_a_common_seed(self):
        # The kernel's matching leaves states 5, 6 and 7 unmatched.  The
        # searches from 5 and from 6 each meet the one from 7, not each
        # other, and the three make one part short by three.
        sys = S(7, 0, [(2, 3), (2, 7), (4, 1), (4, 5), (4, 7), (6, 2), (6, 4),
                       (6, 6), (6, 7), (7, 2)])
        bg = build_digraph(sys)
        assert horizontal_parts(bg.n, bg.edges) == [((1, 3, 4, 5, 6, 7), 3)]
        with pytest.raises(DegenerateStructureError) as exc:
            contractions(bg)
        assert exc.value.components == ((1, 3),)

    def test_message_names_three_parts(self):
        # Five disjoint fans, each of three states feeding a fourth that
        # feeds nothing: five parts short by two, named three at most.
        sys = S(20, 0, [(4 * t + 4, 4 * t + s) for t in range(5) for s in (1, 2, 3)])
        with pytest.raises(DegenerateStructureError) as exc:
            system_contractions(sys)
        assert exc.value.components == tuple(
            part for t in range(5) for part in ((4 * t + 1, 2), (4 * t + 4, 1)))
        assert str(exc.value).endswith(
            "(lowest state 1: short by 2; lowest state 5: short by 2; "
            "lowest state 9: short by 2; ...)")
        assert str(exc.value).count("\n") == 0

    @given(systems(n_max=6, allow_h=False))
    def test_matches_brute_force_classes(self, sys):
        bg = build_digraph(sys)
        expected = rank_class_sets(bg.n, bg.edges)
        if expected is None:
            with pytest.raises(DegenerateStructureError):
                system_contractions(sys)
        else:
            assert [c.members for c in system_contractions(sys)] == expected

    def test_members_union_is_possible_unmatched(self, fix15):
        bg = build_digraph(fix15)
        expected = possible_unmatched_sets(bg.n, bg.edges)
        union = set().union(*expected)
        cons = system_contractions(fix15)
        assert set().union(*(set(c.members) for c in cons)) == union

    @given(systems(n_max=6, allow_h=False))
    def test_count_equals_rank_deficit(self, sys):
        try:
            cons = system_contractions(sys)
        except DegenerateStructureError:
            return
        assert len(cons) == sys.n - s_rank(sys)

    @given(systems(n_max=6))
    def test_count_equals_stacked_rank_deficit(self, sys):
        try:
            cons = system_contractions(sys)
        except DegenerateStructureError:
            return
        assert len(cons) == sys.n - s_rank(sys, include_h=True)

    @given(systems(n_max=6, allow_h=False))
    def test_lemma_one_per_matching(self, sys):
        """Each maximum matching misses exactly one member per contraction,
        and members are exactly the nodes missable that way."""
        bg = build_digraph(sys)
        try:
            cons = system_contractions(sys)
        except DegenerateStructureError:
            return
        unmatched_sets = possible_unmatched_sets(bg.n, bg.edges)
        for c in cons:
            members = set(c.members)
            hits = set()
            for s in unmatched_sets:
                picked = s & members
                assert len(picked) == 1
                hits |= picked
            assert hits == members


def shuffled_matchings(bg, rng, count):
    """Maximum matchings of ``bg``, each augmented by the kernel from a
    greedy matching that takes the begins and their ends in random order."""
    for _ in range(count):
        start = [-1] * bg.n
        taken = set()
        for u in rng.permutation(bg.n).tolist():
            free = [v for v in bg.rows[u] if v not in taken]
            if free:
                start[u] = free[int(rng.integers(len(free)))]
                taken.add(start[u])
        yield hopcroft_karp(bg.rows, bg.n_end, start=start)


def outcome(bg):
    """(classes, None) for ``bg``, or (None, (payload, message)) when it
    raises."""
    try:
        return contractions(bg), None
    except DegenerateStructureError as exc:
        return None, (exc.components, str(exc))


class TestMatchingFree:
    """Classes, parts and messages read the pattern, not the matching."""

    def test_same_answer_under_every_matching(self):
        rng = np.random.default_rng(2026)
        moved = degenerate = 0
        for _ in range(600):
            sys = random_system(rng, n_lo=1, n_hi=14, density_lo=0.5,
                                density_hi=3.5, p_lo=0, p_hi=3)
            expected = outcome(sys)
            degenerate += expected[1] is not None
            for m in shuffled_matchings(sys, rng, 5):
                moved += m != sys.matching
                fresh = copy.copy(sys)
                fresh.__dict__["matching"] = m
                assert outcome(fresh) == expected
        # The check means something only if matchings and answers vary.
        assert moved > 500 and degenerate > 10

    @given(systems(n_max=6))
    def test_parts_match_brute_force(self, sys):
        bg = build_digraph(sys)
        parts = horizontal_parts(bg.n, bg.edges)
        if all(k == 1 for _, k in parts):
            assert [c.members for c in contractions(bg)] == [m for m, _ in parts]
        else:
            with pytest.raises(DegenerateStructureError) as exc:
                contractions(bg)
            assert list(exc.value.components) == [(m[0], k) for m, k in parts]
