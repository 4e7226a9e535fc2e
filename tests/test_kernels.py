import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching

from obspart import StructuredSystem
from obspart import _kernels as K
from oracles import (
    bfs_reach,
    brute_sccs,
    hopcroft_karp_reference,
    rows_from_pairs,
    rows_to_csr,
)
from strategies import systems


def random_bipartite(rng, n_begin, n_end, n_edges):
    cells = rng.choice(n_begin * n_end, size=min(n_edges, n_begin * n_end),
                       replace=False)
    return sorted((int(c) // n_end, int(c) % n_end) for c in cells)


def block_chain(rng, n_blocks):
    """Arcs of a chain of strongly connected blocks under shuffled labels.

    Each block of 1-6 nodes is a cycle plus random chords, its first node
    may carry an arc into the previous block, and a random relabelling
    makes the DFS meet the blocks out of chain order.
    """
    sizes = rng.integers(1, 7, size=n_blocks)
    n = int(sizes.sum())
    label = rng.permutation(n)
    arcs = set()
    start = 0
    for b, size in enumerate(sizes.tolist()):
        block = list(range(start, start + size))
        if size > 1 or rng.random() < 0.5:
            arcs.update(zip(block, block[1:] + block[:1]))
        for _ in range(size // 2):
            arcs.add((int(rng.choice(block)), int(rng.choice(block))))
        if b and rng.random() < 0.8:
            arcs.add((start, start - 1 - int(rng.integers(sizes[b - 1]))))
        start += size
    return n, sorted((int(label[s]), int(label[d])) for s, d in arcs)


def digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.asarray(a, dtype=np.int64).tobytes())
    return h.hexdigest()[:16]


# Digests of the kernels' exact output on seeded inputs, recorded when
# the kernels indexed numpy arrays element by element.  A port to another
# container must keep scan order and tie-breaks, so these must not move.
MATCHING_DIGESTS = {
    1: "f72615c9551da38f",
    2: "a8ebbd20e9ab8f55",
    3: "b4b54b51ab329df0",
}
TARJAN_DIGEST = "98836164fb2af395"


def seeded_bipartite(seed):
    rng = np.random.default_rng(seed)
    nb, ne = 400, 380
    return nb, ne, random_bipartite(rng, nb, ne, int(2.5 * nb))


class TestPinnedOutputs:
    @pytest.mark.parametrize("seed", sorted(MATCHING_DIGESTS))
    def test_matching_is_pinned(self, seed):
        nb, ne, edges = seeded_bipartite(seed)
        match_begin, match_end = K.hopcroft_karp(rows_from_pairs(nb, edges), ne)
        assert digest(match_begin, match_end) == MATCHING_DIGESTS[seed]

    def test_scc_ids_are_pinned(self):
        n, arcs = block_chain(np.random.default_rng(5), 300)
        comp, n_comp, _ = K.tarjan_scc(rows_from_pairs(n, arcs))
        assert digest(comp, [n_comp]) == TARJAN_DIGEST


def is_int_tuple(values):
    return type(values) is tuple and all(type(v) is int for v in values)


class TestSystemGraphArrays:
    """Every layer hands the kernels a system's immutable rows."""

    @pytest.fixture
    def graph(self):
        sys = StructuredSystem(
            n=4, p=0,
            a_pattern=frozenset({(2, 1), (3, 2), (1, 3), (4, 4), (4, 3)}),
        )
        assert type(sys.rows) is tuple and all(map(is_int_tuple, sys.rows))
        # A system with rows shares every unmeasured row with its bare system.
        measured = sys.with_sensor_rows([2])
        assert [m is b for m, b in zip(measured.rows, sys.rows)] == [True, False, True, True]
        return sys

    def test_hopcroft_karp(self, graph):
        match_begin, match_end = K.hopcroft_karp(graph.rows, graph.n_end)
        assert is_int_tuple(match_begin) and is_int_tuple(match_end)
        assert match_begin == (1, 2, 0, 3)
        assert match_end == (2, 0, 1, 3)

    def test_tarjan_scc(self, graph):
        comp, n_comp, exits = K.tarjan_scc(graph.rows)
        assert is_int_tuple(comp)
        assert type(n_comp) is int
        assert comp == (1, 1, 1, 0)  # the sink {4} pops first
        assert exits == {1}

    def test_search(self, graph):
        # 0 -> 1 -> 2 -> 0 and 2 -> 3, and a loop at 3.
        owner = [5, -1, -1, 2]
        labels, clashes = K.search(graph.rows, owner)
        assert labels == [5, 5, 5, 2]
        assert clashes == [(2, 5)]
        assert owner == [5, -1, -1, 2]


class TestCsr:
    """The rows a system's graph hands the kernels, one per CSR row."""

    def test_basic_shape(self):
        # Pairs (0, 1), (0, 2) and (2, 0): A entry (i, j) is the pair (j-1, i-1).
        g = StructuredSystem(n=3, p=0, a_pattern=[(2, 1), (3, 1), (1, 3)])
        assert g.rows == ((1, 2), (), (0,))

    def test_orders_lexically(self):
        # Pairs (1, 1), (0, 2), (1, 0), (0, 1); end 2 is measurement 1.
        g = StructuredSystem(n=2, p=1, a_pattern=[(2, 2), (1, 2), (2, 1)],
                             h_pattern=[(1, 1)])
        assert g.rows == ((1, 2), (0, 1))

    def test_empty(self):
        g = StructuredSystem(n=2, p=0)
        assert g.rows == ((), ())


class TestHopcroftKarp:
    def test_matches_scipy_on_random_graphs(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            nb = int(rng.integers(1, 12))
            ne = int(rng.integers(1, 12))
            edges = random_bipartite(rng, nb, ne, int(rng.integers(0, 3 * nb)) + 1)
            mine, _ = K.hopcroft_karp(rows_from_pairs(nb, edges), ne)
            rows = [b for b, _ in edges]
            cols = [e for _, e in edges]
            graph = csr_matrix((np.ones(len(edges)), (rows, cols)), shape=(nb, ne))
            ref = maximum_bipartite_matching(graph, perm_type="column")
            assert matched(mine) == int((ref >= 0).sum())

    def test_matching_is_consistent(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            nb = int(rng.integers(1, 10))
            ne = int(rng.integers(1, 10))
            edges = random_bipartite(rng, nb, ne, 2 * nb)
            edge_set = set(edges)
            match_begin, match_end = K.hopcroft_karp(rows_from_pairs(nb, edges), ne)
            used_ends = set()
            for b in range(nb):
                e = int(match_begin[b])
                if e >= 0:
                    assert (b, e) in edge_set
                    assert e not in used_ends
                    used_ends.add(e)
                    assert int(match_end[e]) == b

    def test_deterministic(self):
        edges = [(0, 0), (0, 1), (1, 0), (2, 1), (2, 2)]
        a = K.hopcroft_karp(rows_from_pairs(3, edges), 3)
        b = K.hopcroft_karp(rows_from_pairs(3, edges), 3)
        assert a[0] == b[0]
        assert a[1] == b[1]


def matched(match_begin):
    return sum(e >= 0 for e in match_begin)


def assert_matching(rows, match_begin, match_end):
    """A valid matching on the rows, with consistent begin and end tuples."""
    for b, e in enumerate(match_begin):
        if e >= 0:
            assert e in rows[b]
            assert match_end[e] == b
    for e, b in enumerate(match_end):
        if b >= 0:
            assert match_begin[b] == e


def same_as_reference(rows, ne, start=None):
    """The kernel's matching, asserted equal int for int to the reference's,
    which runs on the same graph as CSR arrays."""
    given = None if start is None else list(start)
    mine = K.hopcroft_karp(rows, ne, start=given)
    assert given == (None if start is None else list(start))  # never written
    ref = hopcroft_karp_reference(
        *rows_to_csr(rows), len(rows), ne,
        start=None if start is None else np.array(start, np.int64))
    assert is_int_tuple(mine[0]) and is_int_tuple(mine[1])
    assert mine == (tuple(ref[0].tolist()), tuple(ref[1].tolist()))
    return mine


class TestWarmStart:
    """Augmenting from the bare matching, as ``s_rank`` and ``decompose`` do."""

    @given(systems(), st.lists(st.integers(1, 8), max_size=3))
    def test_same_size_as_cold_start(self, sys, sensors):
        bare = sys.without_measurements()
        start, start_end = K.hopcroft_karp(bare.rows, bare.n)

        comp, _, _ = K.tarjan_scc(bare.rows)
        intra = tuple(tuple(v for v in row if comp[v] == comp[u])
                      for u, row in enumerate(bare.rows))
        intra_start = tuple(e if e >= 0 and comp[e] == comp[u] else -1
                            for u, e in enumerate(start))
        plus_sensors = sys.without_measurements().with_sensor_rows(
            [s for s in sensors if s <= sys.n])
        graphs = [
            (sys.rows, sys.n + sys.p, start),
            (plus_sensors.rows, plus_sensors.n_end, start),
            (intra, sys.n, intra_start),
            (bare.rows, bare.n, start),
        ]
        for rows, ne, first in graphs:
            cold, _ = same_as_reference(rows, ne)
            warm, warm_end = same_as_reference(rows, ne, start=first)
            assert_matching(rows, warm, warm_end)
            assert matched(warm) == matched(cold)
            # Augmenting paths never unmatch a begin.
            assert all(w >= 0 for w, f in zip(warm, first) if f >= 0)
        # A maximum matching has no augmenting path left to take.
        assert warm == start
        assert warm_end == start_end


    def test_keeps_a_maximum_start_the_cold_search_would_not_find(self):
        rows = rows_from_pairs(2, [(0, 0), (0, 1), (1, 0), (1, 1)])
        assert K.hopcroft_karp(rows, 2)[0] == (0, 1)
        match_begin, match_end = K.hopcroft_karp(rows, 2, start=(1, 0))
        assert match_begin == (1, 0) and match_end == (1, 0)

    def test_augments_from_a_partial_start(self):
        # Begin 0 holds end 0 and only begin 1 can take end 1 instead.
        rows = rows_from_pairs(3, [(0, 0), (0, 1), (1, 0), (2, 2)])
        start = [0, -1, -1]
        match_begin, match_end = K.hopcroft_karp(rows, 3, start=start)
        assert match_begin == (1, 0, 2)
        assert match_end == (1, 0, 2)
        assert start == [0, -1, -1]


def some_matching(n_begin, edges, order):
    """A matching taken greedily from ``edges`` visited in ``order``."""
    match_begin = [-1] * n_begin
    used = set()
    for i in order:
        b, e = edges[i]
        if match_begin[b] < 0 and e not in used:
            match_begin[b] = e
            used.add(e)
    return match_begin


class TestDroppedRoots:
    """Roots whose alternating region is closed are dropped for good, and
    the matchings stay those of the search from every free begin."""

    @given(st.data())
    @settings(max_examples=200)
    def test_random_graphs_with_surplus_begins(self, data):
        ne = data.draw(st.integers(1, 10))
        nb = ne + data.draw(st.integers(0, 6))
        edges = sorted(data.draw(st.lists(
            st.tuples(st.integers(0, nb - 1), st.integers(0, ne - 1)),
            max_size=3 * nb, unique=True)))
        rows = rows_from_pairs(nb, edges)
        same_as_reference(rows, ne)
        order = data.draw(st.permutations(range(len(edges))))
        n_start = data.draw(st.integers(0, len(edges)))
        same_as_reference(rows, ne, start=some_matching(nb, edges, order[:n_start]))

    @given(st.integers(0, 2**32 - 1), st.integers(1, 60))
    @settings(max_examples=60)
    def test_block_chains(self, seed, n_blocks):
        rng = np.random.default_rng(seed)
        n, arcs = block_chain(rng, n_blocks)
        rows = rows_from_pairs(n, arcs)
        same_as_reference(rows, n)
        order = rng.permutation(len(arcs))[:int(rng.integers(len(arcs) + 1))]
        same_as_reference(rows, n, start=some_matching(n, arcs, order))

    def test_size_matches_scipy_with_many_phases(self):
        # 2000 begins on 1800 ends with two edges each: after the greedy
        # pass, nine phases augment and drop 306 roots between them.
        nb, ne = 2000, 1800
        edges = random_bipartite(np.random.default_rng(0), nb, ne, 2 * nb)
        match_begin, match_end = same_as_reference(rows_from_pairs(nb, edges), ne)
        rows, cols = np.array(edges).T
        graph = csr_matrix((np.ones(len(edges)), (rows, cols)), shape=(nb, ne))
        ref = maximum_bipartite_matching(graph, perm_type="column")
        assert matched(match_begin) == int((ref >= 0).sum())
        assert matched(match_end) == int((ref >= 0).sum())

    def test_root_cut_short_at_the_shortest_length_augments_later(self):
        # Begin 0 reaches begin 1 through end 0, and begin 1 holds a free
        # end, but begin 2 has a free end of its own: the first phase stops
        # at length 1 before scanning begin 1, so root 0 must stay.
        rows = rows_from_pairs(3, [(0, 0), (1, 0), (1, 1), (2, 2)])
        match_begin, match_end = same_as_reference(rows, 3, start=(-1, 0, -1))
        assert match_begin == (0, 1, 2)
        assert match_end == (0, 1, 2)

    def test_root_that_meets_an_augmenting_region_stays(self):
        # Root 1's only end leads to begin 2, which root 0 reached first;
        # root 0 augments through begin 2, and root 1 then augments through
        # begins 0 and 3.  Alone, root 1's region looks closed.
        edges = [(0, 0), (0, 3), (1, 0), (2, 0), (2, 1), (3, 2), (3, 3)]
        rows = rows_from_pairs(4, edges)
        match_begin, match_end = same_as_reference(rows, 4, start=(-1, -1, 0, 3))
        assert match_begin == (3, 0, 1, 2)
        assert match_end == (1, 2, 3, 0)


def random_arcs(data, n):
    return sorted(data.draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=3 * n, unique=True,
        )
    ))


class TestTarjan:
    @given(st.data())
    @settings(max_examples=60)
    def test_matches_brute_force(self, data):
        n = data.draw(st.integers(1, 8))
        arcs = random_arcs(data, n)
        comp, n_comp, _ = K.tarjan_scc(rows_from_pairs(n, arcs))
        groups = {}
        for v in range(n):
            groups.setdefault(comp[v], set()).add(v)
        assert set(map(frozenset, groups.values())) == brute_sccs(n, arcs)
        assert n_comp == len(groups)

    def test_component_ids_topological(self):
        # arcs 0->1->2: pop order makes sinks lower ids
        comp, _, exits = K.tarjan_scc(rows_from_pairs(3, [(0, 1), (1, 2)]))
        assert comp[2] < comp[1] < comp[0]
        assert exits == {comp[0], comp[1]}


class TestLeaving:
    """The components with an arc out, as `tarjan_scc` finds them in its pass."""

    @given(st.data())
    @settings(max_examples=60)
    def test_matches_a_scan_of_every_arc(self, data):
        n = data.draw(st.integers(1, 8))
        arcs = random_arcs(data, n)
        comp, _, exits = K.tarjan_scc(rows_from_pairs(n, arcs))
        assert type(exits) is set
        assert exits == {comp[s] for s, d in arcs if comp[d] != comp[s]}


class TestSearch:
    @given(st.data())
    @settings(max_examples=40)
    def test_one_label_matches_bfs(self, data):
        n = data.draw(st.integers(1, 8))
        arcs = random_arcs(data, n)
        seed_nodes = data.draw(st.sets(st.integers(0, n - 1), min_size=1))
        owner = [0 if v in seed_nodes else -1 for v in range(n)]
        labels, clashes = K.search(rows_from_pairs(n, arcs), owner)
        assert {v for v in range(n) if labels[v] >= 0} == bfs_reach(n, arcs, seed_nodes)
        assert set(labels) <= {-1, 0}
        assert clashes == []

    @given(st.data())
    @settings(max_examples=60)
    def test_several_labels(self, data):
        n = data.draw(st.integers(1, 8))
        arcs = random_arcs(data, n)
        seeds = data.draw(st.lists(st.integers(0, n - 1), min_size=1, unique=True))
        # Distinct labels, not in seed order, so that a label is no node id.
        label_of = dict(zip(seeds, data.draw(st.permutations(range(len(seeds))))))
        owner = [label_of.get(v, -1) for v in range(n)]
        labels, clashes = K.search(rows_from_pairs(n, arcs), owner)

        reach = {label: bfs_reach(n, arcs, [seed]) for seed, label in label_of.items()}
        assert {v for v in range(n) if labels[v] >= 0} == set().union(*reach.values())
        for v, label in enumerate(labels):
            if label >= 0:
                assert v in reach[label]
        disjoint = all(not (reach[a] & reach[b])
                       for a in reach for b in reach if a < b)
        assert (clashes == []) == disjoint
        assert clashes == sorted(set(clashes))
        for a, b in clashes:
            assert a < b and reach[a] & reach[b]

    @given(st.data())
    @settings(max_examples=60)
    def test_via_steps_to_the_mapped_nodes(self, data):
        # Rows over ends, and a map from each end to a node, as the rank
        # classes step from a begin through an end to the begin matched to it.
        n = data.draw(st.integers(1, 8))
        n_end = data.draw(st.integers(1, 8))
        via = tuple(data.draw(st.lists(st.integers(0, n - 1),
                                       min_size=n_end, max_size=n_end)))
        rows = rows_from_pairs(n, data.draw(st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n_end - 1)),
            max_size=3 * n, unique=True)))
        owner = data.draw(st.lists(st.integers(-1, 3), min_size=n, max_size=n))
        mapped = tuple(tuple(via[e] for e in row) for row in rows)
        assert K.search(rows, owner, via=via) == K.search(mapped, owner)
