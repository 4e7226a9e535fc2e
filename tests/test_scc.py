import inspect

import pytest
from hypothesis import given

from obspart import (
    DegenerateStructureError,
    accessibility_check,
    build_digraph,
    decompose,
    equivalence_classes,
    export_dot,
)
import obspart._kernels as _kernels
import obspart.partition as partition
import obspart.structure as structure
from obspart.partition import _access_classes
from conftest import S
from oracles import bfs_reach, brute_sccs, cycle_family_covers, horizontal_parts
from strategies import systems


def state_arcs(sys):
    """(src, dst) state pairs in influence direction."""
    return [(j, i) for (i, j) in sys.a_pattern]


def parents(dec):
    """The parent components, in component order."""
    return tuple(comp for comp, flag in zip(dec.components, dec.parent_flags) if flag)


def condensation(sys, dec):
    """The (source, target) component pairs of the arcs between components."""
    comp = dec.comp
    return {(comp[s - 1], comp[t - 1]) for s, t in state_arcs(sys)
            if comp[s - 1] != comp[t - 1]}


class TestDecompose:
    def test_cycle_is_one_matched_parent(self, cycle3):
        dec = decompose(build_digraph(cycle3))
        assert dec.components == ((1, 2, 3),)
        assert dec.parent_flags == (True,)
        # No rank class, so the parent is an access class.
        assert equivalence_classes(cycle3) == ((), ((1, 2, 3),))

    def test_chain_three_singletons(self):
        dec = decompose(build_digraph(S(3, 0, [(2, 1), (3, 2)])))
        assert dec.components == ((1,), (2,), (3,))
        assert dec.parent_flags == (False, False, True)

    def test_fixture_matched_parents(self, fix15):
        dec = decompose(build_digraph(fix15))
        assert parents(dec) == ((9,), (11, 12, 13, 14))
        # Neither parent holds a whole rank class, so both are access classes.
        assert _access_classes(fix15) == parents(dec)

    def test_self_loop_singleton_is_matched(self):
        sys = S(2, 0, [(1, 1), (1, 2)])
        dec = decompose(build_digraph(sys))
        assert dec.components == ((1,), (2,))
        assert dec.parent_flags == (True, False)
        # The rank class {1, 2} leaves the parent {1}, which the self-loop covers.
        assert equivalence_classes(sys) == (((1, 2),), ((1,),))

    def test_measurement_arcs_do_not_break_parenthood(self):
        with_h = decompose(build_digraph(S(2, 1, [(1, 1)], [(1, 1)])))
        without = decompose(build_digraph(S(2, 0, [(1, 1)])))
        assert with_h.parent_flags == without.parent_flags

    @given(systems(n_max=7))
    def test_partition_and_acyclic_condensation(self, sys):
        dec = decompose(build_digraph(sys))
        flat = [s for comp in dec.components for s in comp]
        assert sorted(flat) == list(range(1, sys.n + 1))
        # The condensation is a DAG: repeatedly strip sinks.
        remaining = set(range(len(dec.components)))
        edges = condensation(sys, dec)
        while remaining:
            sinks = {
                c for c in remaining
                if not any(src == c and dst in remaining for src, dst in edges)
            }
            assert sinks, "condensation has a cycle"
            remaining -= sinks

    @given(systems(n_max=7))
    def test_parent_iff_condensation_sink(self, sys):
        dec = decompose(build_digraph(sys))
        sources = {src for src, _ in condensation(sys, dec)}
        for idx in range(len(dec.components)):
            assert dec.parent_flags[idx] == (idx not in sources)

    @given(systems(n_max=7))
    def test_components_are_the_brute_sccs(self, sys):
        bare = sys.without_measurements()
        got = decompose(build_digraph(sys))
        want = brute_sccs(sys.n, [(s - 1, t - 1) for (s, t) in state_arcs(sys)])
        assert {frozenset(s - 1 for s in comp) for comp in got.components} == want
        # Measurement arcs leave every component and flag alone, so the
        # graph with rows and its bare graph decompose alike.
        alone = decompose(build_digraph(bare))
        assert got == alone and got.comp == alone.comp

    @given(systems(n_max=7))
    def test_order_and_comp_match_the_brute_condensation(self, sys):
        dec = decompose(build_digraph(sys))
        arcs = [(s - 1, t - 1) for (s, t) in state_arcs(sys)]
        owner = {v: c for c in brute_sccs(sys.n, arcs) for v in c}
        index = {frozenset(s - 1 for s in comp): i for i, comp in enumerate(dec.components)}
        brute = {(index[owner[s]], index[owner[t]]) for s, t in arcs if owner[s] != owner[t]}
        assert condensation(sys, dec) == brute
        assert len(dec.comp) == sys.n
        for s in range(1, sys.n + 1):
            assert s in dec.components[dec.comp[s - 1]]

    def test_bare_graph_rows_serve_every_decomposition(self, fix15, monkeypatch):
        builds = []
        rows = structure._rows

        def counted(*args):
            builds.append(args[0])
            return rows(*args)

        monkeypatch.setattr(structure, "_rows", counted)
        bare = S(fix15.n, 0, sorted(fix15.a_pattern))
        assert _access_classes(bare) == ((9,), (11, 12, 13, 14))
        assert builds == [fix15.n]
        # A system with rows copies the bare rows, and its decomposition
        # runs on them: no rows are built for its graph.
        grown = bare.with_sensor_rows([1, 9, 9])
        dec = decompose(build_digraph(grown))
        assert builds == [fix15.n]
        assert dec == decompose(build_digraph(bare))

    def test_decomposition_and_scc_coloring_run_no_matching(self, fix15, count_calls):
        kernels = {name: count_calls(f) for name, f in list(vars(_kernels).items())
                   if inspect.isfunction(f)}
        assert set(kernels) == {"hopcroft_karp", "tarjan_scc", "search"}
        matchings, sccs = kernels["hopcroft_karp"], kernels["tarjan_scc"]
        decompose(build_digraph(S(fix15.n, 1, sorted(fix15.a_pattern), [(1, 9)])))
        # One kernel call finds the components and the parents.
        assert sum(map(len, kernels.values())) == len(sccs) == 1
        export_dot(S(fix15.n, 1, sorted(fix15.a_pattern), [(1, 9)]), color_by="scc")
        assert len(sccs) == 2
        assert matchings == []


class TestAccessClasses:
    @given(systems(n_max=6))
    def test_access_classes_are_the_parents_a_cycle_family_covers(self, sys):
        try:
            beta = equivalence_classes(sys)[1]
        except DegenerateStructureError:
            return
        arcs = [(s - 1, t - 1) for (s, t) in state_arcs(sys)]
        want = []
        for comp in brute_sccs(sys.n, arcs):
            internal = [(s, t) for (s, t) in arcs if s in comp and t in comp]
            if (not any(s in comp and t not in comp for s, t in arcs)
                    and cycle_family_covers(comp, internal)):
                want.append(tuple(sorted(s + 1 for s in comp)))
        assert beta == tuple(sorted(want))

    def test_rule_is_not_the_cycle_family_outside_the_domain(self):
        # Parent {1, 2, 3} has no cycle family, yet the only horizontal
        # part, {2, 3, 4} short by 2, leaves it: outside the domain the two
        # rules part, and the classes are refused before either is read.
        sys = S(4, 0, [(2, 1), (3, 1), (1, 2), (1, 3), (1, 4)])
        assert parents(decompose(build_digraph(sys))) == ((1, 2, 3),)
        assert not cycle_family_covers(
            (1, 2, 3), [(s, t) for (s, t) in state_arcs(sys) if 4 not in (s, t)])
        assert horizontal_parts(sys.n, sys.edges) == [((2, 3, 4), 2)]
        with pytest.raises(DegenerateStructureError, match="lowest state 2: short by 2"):
            equivalence_classes(sys)


class TestAccessibility:
    def test_chain_with_sensor(self, chain3):
        accessible, inaccessible = accessibility_check(build_digraph(chain3))
        assert accessible == (1, 2, 3)
        assert inaccessible == ()

    def test_no_measurements(self, fan3):
        accessible, inaccessible = accessibility_check(build_digraph(fan3))
        assert accessible == ()
        assert inaccessible == (1, 2, 3)

    def test_two_cycles_one_measured(self):
        sys = S(4, 1, [(2, 1), (1, 2), (4, 3), (3, 4)], [(1, 1)])
        accessible, inaccessible = accessibility_check(build_digraph(sys))
        assert accessible == (1, 2)
        assert inaccessible == (3, 4)

    @given(systems(n_max=7))
    def test_inaccessible_iff_some_unmeasured_parent_below(self, sys):
        """Everything is accessible iff every parent component (computed
        over states only) contains a measured state."""
        dg = build_digraph(sys)
        _, inaccessible = accessibility_check(dg)
        dec = decompose(dg)
        measured = {j for (_, j) in sys.h_pattern}
        parents_ok = all(set(comp) & measured for comp in parents(dec))
        assert (not inaccessible) == parents_ok

    @given(systems(n_max=7, p_max=4))
    def test_matches_a_search_back_from_every_measurement(self, sys):
        # Over the whole graph, measurement nodes included: arcs reversed,
        # one search from every measurement node.  Rows may measure
        # several states, or none.
        n = sys.n
        reversed_arcs = ([(i - 1, j - 1) for (i, j) in sys.a_pattern]
                         + [(n + i - 1, j - 1) for (i, j) in sys.h_pattern])
        reach = bfs_reach(n + sys.p, reversed_arcs, range(n, n + sys.p))
        want = tuple(s for s in range(1, n + 1) if s - 1 in reach)
        accessible, inaccessible = accessibility_check(build_digraph(sys))
        assert accessible == want
        assert inaccessible == tuple(s for s in range(1, n + 1) if s not in want)

    def test_multi_state_rows_and_an_empty_row(self):
        # Row 1 measures x2 and x4, row 2 nothing; x1 -> x2, x3 -> x3.
        sys = S(4, 2, [(2, 1), (3, 3)], [(1, 2), (1, 4)])
        assert accessibility_check(build_digraph(sys)) == ((1, 2, 4), (3,))
        # A row that measures nothing leaves every state inaccessible.
        assert accessibility_check(build_digraph(S(2, 1, [(2, 1)]))) == ((), (1, 2))

    def test_reverse_built_once_per_bare_pattern(self, fix15, monkeypatch):
        # One build of the bare rows and one of their reverse serve the
        # check of the input and every placement self-check.
        builds = []
        rows = structure._rows

        def counted(*args):
            builds.append(args[0])
            return rows(*args)

        checks = []
        check = partition.theorem_check

        def counted_check(sys):
            checks.append(sys.p)
            return check(sys)

        monkeypatch.setattr(structure, "_rows", counted)
        monkeypatch.setattr(partition, "theorem_check", counted_check)
        sys = S(fix15.n, 2, sorted(fix15.a_pattern), [(1, 1), (2, 9), (2, 10)])
        assert not partition.theorem_check(sys).observable
        report = partition.partition_report(sys, all_witnesses=True)
        assert len(report.minimal_sets) > 1
        assert len(checks) == 1 + len(report.minimal_sets)
        assert builds == [fix15.n, fix15.n]


class TestBlockForm:
    @given(systems(n_max=7, p_max=4))
    def test_certificate_blocks_are_zero(self, sys):
        # With the inaccessible states first, A is block triangular and H
        # is zero on them: the numeric oracle's slice to the accessible
        # block drops no entry of [H; HA; ...].
        _, inaccessible = accessibility_check(sys)
        inacc = set(inaccessible)
        for (i, j) in sys.a_pattern:
            assert i in inacc or j not in inacc
        for (_, j) in sys.h_pattern:
            assert j not in inacc
