import pytest
from hypothesis import given
from hypothesis import strategies as st

from obspart import (
    DegenerateStructureError,
    StructuredSystem,
    build_digraph,
    contractions,
    maximum_matching,
    s_rank,
    system_contractions,
)
from conftest import FIX15_ALPHA, S
from oracles import all_maximum_matchings, possible_unmatched_sets, rank_class_sets
from strategies import systems


class TestMaximumMatching:
    def test_chain(self):
        m = maximum_matching(build_digraph(S(3, 0, [(2, 1), (3, 2)])))
        assert m.size == 2
        assert m.unmatched_begin == (3,)

    def test_cycle(self, cycle3):
        m = maximum_matching(build_digraph(cycle3))
        assert m.size == 3
        assert m.unmatched_begin == ()

    def test_fan(self, fan3):
        m = maximum_matching(build_digraph(fan3))
        assert m.size == 1
        assert len(m.unmatched_begin) == 2

    def test_no_shared_endpoints(self):
        m = maximum_matching(build_digraph(S(4, 2, [(1, 2), (3, 2), (4, 4)],
                                             [(1, 2), (2, 3)])))
        begins = [b for b, _ in m.edges]
        ends = [e for _, e in m.edges]
        assert len(set(begins)) == len(begins)
        assert len(set(ends)) == len(ends)

    @given(systems(n_max=6))
    def test_size_is_maximum(self, sys):
        bg = build_digraph(sys)
        m = maximum_matching(bg)
        if bg.edges:
            best = max(len(x) for x in all_maximum_matchings(bg.n, bg.edges))
        else:
            best = 0
        assert m.size == best


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
        for c in cons:
            assert c.witness_unmatched in c.members

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
        # x1 takes the one end; seeds 2 and 3 both reach x1, seed 4 nothing.
        assert exc.value.overlaps == ((2, 3),)
        assert "1 clashing seed pairs: 2 & 3)" in str(exc.value)

    def test_star_diagnostic_is_bounded(self):
        # States 1..200 feed state 201 and x1 takes its end.  Seed 2 reaches
        # x1 first, the 198 seeds after it clash with seed 2, and the
        # message names only the first three pairs.
        sys = S(201, 0, [(201, i) for i in range(1, 201)])
        with pytest.raises(DegenerateStructureError) as exc:
            contractions(build_digraph(sys))
        assert exc.value.overlaps == tuple((2, s) for s in range(3, 201))
        assert "198 clashing seed pairs: 2 & 3, 2 & 4, 2 & 5, ...)" in str(exc.value)

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
