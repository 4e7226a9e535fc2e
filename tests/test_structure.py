import copy
import dataclasses
import json
import pickle
import re
from collections import namedtuple
from functools import partial

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.sparse import csr_matrix

from obspart import (
    DegenerateStructureError,
    MalformedInputError,
    StructuredSystem,
    accessibility_check,
    build_digraph,
    contractions,
    decompose,
    s_rank,
)
from obspart.io import load_matrix_market, load_system, system_from_dict
from obspart.structure import _check_pattern
from conftest import S
from oracles import (
    check_pattern_reference,
    csr_to_rows,
    edited_h_reference,
    pattern_keys_reference,
    pattern_rows_reference,
    system_to_dict,
)
from strategies import patterns, systems

# One bad entry each, made from a valid entry (i, j) of a pattern with
# ``rows`` rows and n columns.
BAD_ENTRIES = {
    "bool": lambda i, j, rows, n: (True, j),
    "numpy integer": lambda i, j, rows, n: (np.int64(i), j),
    "float": lambda i, j, rows, n: (i + 0.5, j),
    "3-tuple": lambda i, j, rows, n: (i, j, 1),
    "list": lambda i, j, rows, n: [i, j],
    "pair holding a list": lambda i, j, rows, n: (i, [j]),
    "dict": lambda i, j, rows, n: {i: j},
    "zero": lambda i, j, rows, n: (0, j),
    "row past the last": lambda i, j, rows, n: (rows + 1, j),
    "column past n": lambda i, j, rows, n: (i, n + 1),
}


def _message(check, *args):
    with pytest.raises(MalformedInputError) as exc:
        check(*args)
    return str(exc.value)


class TestStructuredSystem:
    def test_pattern_entry_out_of_range(self):
        with pytest.raises(MalformedInputError, match=r"\(4, 1\) out of range"):
            S(3, 0, [(4, 1)])

    def test_h_rows_bounded_by_p(self):
        with pytest.raises(MalformedInputError, match=r"\(2, 1\) out of range"):
            S(3, 1, [], [(2, 1)])

    def test_non_integer_entry_rejected(self):
        with pytest.raises(MalformedInputError, match="not a pair of integers"):
            StructuredSystem(n=2, p=0, a_pattern=frozenset({(1.0, 2)}))

    def test_bool_entry_rejected(self):
        with pytest.raises(MalformedInputError, match="not a pair of integers"):
            StructuredSystem(n=2, p=0, a_pattern=frozenset({(True, 2)}))

    def test_bad_n(self):
        with pytest.raises(MalformedInputError, match="n must be"):
            S(0, 0, [])

    def test_negative_p(self):
        with pytest.raises(MalformedInputError, match="p must be"):
            S(2, -1, [])

    @pytest.mark.parametrize("n, p, message", [
        (True, False, "n must be a positive integer, got True"),
        (1, False, "p must be a non-negative integer, got False"),
        (1, True, "p must be a non-negative integer, got True"),
    ])
    def test_bool_size_rejected(self, n, p, message):
        with pytest.raises(MalformedInputError, match=rf"^{re.escape(message)}$"):
            StructuredSystem(n=n, p=p, a_pattern={(1, 1)})

    @given(st.integers(50, 70), st.sampled_from(["a", "h"]),
           st.sampled_from(sorted(BAD_ENTRIES)), st.integers(0, 2**32 - 1),
           st.floats(0, 1))
    def test_one_bad_entry_among_many_is_named_as_before(
            self, n, which, bad, seed, where):
        # The all-at-once check must fall back to the entry-by-entry one
        # and name the same entry in the same words.
        p = n // 2
        rows = n if which == "a" else p
        cells = np.random.default_rng(seed).choice(rows * n, 1000, replace=False)
        entries = [(c // n + 1, c % n + 1) for c in cells.tolist()]
        entry = BAD_ENTRIES[bad](*entries[0], rows, n)
        entries = [e for e in entries if e != entry]  # (True, j) == (1, j)
        entries.insert(int(where * len(entries)), entry)
        name = f"{which}_pattern"
        expected = _message(check_pattern_reference, name, entries, rows, n)
        assert _message(_check_pattern, name, entries, rows, n) == expected
        built = partial(StructuredSystem, n=n, p=p, **{name: entries})
        assert _message(built) == expected
        if isinstance(entry, tuple):  # from_entries makes a tuple of a list or dict
            lists = (entries, []) if which == "a" else ([], entries)
            from_entries = partial(StructuredSystem.from_entries, n, p, *lists)
            assert _message(from_entries) == expected

    @pytest.mark.parametrize("first, second, message", [
        ((3, 1), ("x", 2), "a_pattern entry (3, 1) out of range for a 2x2 pattern"),
        (("x", 2), (3, 1), "a_pattern entry ('x', 2) is not a pair of integers"),
        ((2**70, 1), (3, 1),
         "a_pattern entry (1180591620717411303424, 1) out of range for a 2x2 pattern"),
    ])
    def test_first_bad_entry_in_input_order_is_named(self, first, second, message):
        entries = [(1, 1), first, (2, 2), second]
        assert _message(StructuredSystem, 2, 0, entries) == message
        assert _message(StructuredSystem.from_entries, 2, 0, entries) == message

    @pytest.mark.parametrize("a, h, message", [
        ([[1, [2]]], [], "a_pattern entry (1, [2]) is not a pair of integers"),
        ([], [[1, {"x": 1}]],
         "h_pattern entry (1, {'x': 1}) is not a pair of integers"),
        ([5], [], "a_pattern entry 5 is not a pair of integers"),
        ([(1, 2)], [7], "h_pattern entry 7 is not a pair of integers"),
        ([(1, 2), 5, [2, 1]], [], "a_pattern entry 5 is not a pair of integers"),
        (iter([(1, 2), [1, [2]]]), [],
         "a_pattern entry (1, [2]) is not a pair of integers"),
        (5, [], "a_pattern must be an iterable of entries, got 5"),
    ])
    def test_unhashable_entry_is_named_by_from_entries(self, a, h, message):
        with pytest.raises(MalformedInputError, match=rf"^{re.escape(message)}$"):
            StructuredSystem.from_entries(2, 1, a, h)

    @pytest.mark.parametrize("pattern, message", [
        (5, "a_pattern must be an iterable of entries, got 5"),
        (None, "a_pattern must be an iterable of entries, got None"),
        (iter([(1, 2), [1, [2]]]),
         "a_pattern entry [1, [2]] is not a pair of integers"),
    ])
    def test_pattern_that_is_no_collection_of_pairs_is_named(self, pattern, message):
        with pytest.raises(MalformedInputError, match=rf"^{re.escape(message)}$"):
            StructuredSystem(n=2, p=0, a_pattern=pattern)

    def test_iterator_pattern_accepted(self):
        sys = StructuredSystem(n=3, p=1, a_pattern=iter([(2, 1), (3, 2)]),
                               h_pattern=((1, j) for j in [3]))
        assert sys == S(3, 1, [(2, 1), (3, 2)], [(1, 3)])

    def test_sizes_are_checked_before_an_unhashable_entry(self):
        with pytest.raises(MalformedInputError, match="n must be"):
            StructuredSystem.from_entries("2", 0, [[1, [2]]])

    def test_int_and_tuple_subclasses_accepted(self):
        class Index(int):
            pass

        Pair = namedtuple("Pair", "row col")
        sys = StructuredSystem(
            n=3, p=1, a_pattern={Pair(Index(2), Index(1)), (3, Index(2))},
            h_pattern={Pair(1, 3)})
        assert sys == S(3, 1, [(2, 1), (3, 2)], [(1, 3)])
        assert build_digraph(sys).edges == ((1, 2), (2, 3), (3, 4))

    def test_duplicate_entries_rejected(self):
        with pytest.raises(MalformedInputError, match=r"duplicate a pattern entry \(1, 2\)"):
            S(3, 0, [(1, 2), (1, 2)])
        with pytest.raises(MalformedInputError, match="duplicate h"):
            S(3, 2, [], [(1, 1), (1, 1)])

    @pytest.mark.parametrize("a, h, message", [
        ([(1, 1), (1, 1)], [], "duplicate a pattern entry (1, 1)"),
        ([], [(1, 2), (1, 1), (1, 2)], "duplicate h pattern entry (1, 2)"),
        ([(1, 1), (3, 1), (1, 1)], [],
         "a_pattern entry (3, 1) out of range for a 2x2 pattern"),
        # Sorted, (1, 1) repeats first; in input order, (2, 2) does.
        ([(2, 2), (1, 1), (2, 2), (1, 1)], [], "duplicate a pattern entry (2, 2)"),
        ([(1, 2), (2, 1), (1, 2)], [(1, 1), (1, 1)], "duplicate a pattern entry (1, 2)"),
    ])
    def test_constructor_rejects_the_first_repeated_entry(self, a, h, message):
        assert _message(StructuredSystem, 2, 1, iter(a), h) == message
        assert _message(StructuredSystem.from_entries, 2, 1, a, h) == message
        doc = {"n": 2, "p": 1, "a": [list(e) for e in a], "h": [list(e) for e in h]}
        assert _message(system_from_dict, doc) == message

    @given(st.data())
    def test_from_entries_is_the_constructor_on_pairs_with_repeats(self, data):
        n, p = data.draw(st.integers(1, 3)), data.draw(st.integers(0, 2))

        def pairs(rows):
            # Mostly in range, so that a repeat often comes before a bad entry.
            inside = st.tuples(st.integers(1, max(rows, 1)), st.integers(1, n))
            anywhere = st.tuples(st.integers(0, 4), st.integers(0, 4))
            return st.lists(st.one_of(inside, inside, anywhere), max_size=6)

        a, h = data.draw(pairs(n)), data.draw(pairs(p))

        def outcome(build):
            try:
                sys = build()
            except MalformedInputError as exc:
                return str(exc)
            return sys.n, sys.p, sys.a_pattern, sys.h_pattern

        built = outcome(lambda: StructuredSystem(n=n, p=p, a_pattern=a, h_pattern=h))
        assert outcome(lambda: StructuredSystem.from_entries(n, p, a, h)) == built

        def reference():
            check_pattern_reference("a_pattern", a, n, n)
            check_pattern_reference("h_pattern", h, p, n)
            return StructuredSystem(n=n, p=p, a_pattern=set(a), h_pattern=set(h))

        assert outcome(reference) == built

    def test_with_sensor_rows_appends(self):
        sys = S(3, 1, [(2, 1)], [(1, 3)])
        grown = sys.with_sensor_rows([2, 1])
        assert grown.p == 3
        assert grown.h_pattern == {(1, 3), (2, 2), (3, 1)}
        with pytest.raises(MalformedInputError, match="sensor state 7 out of range"):
            sys.with_sensor_rows([7])
        with pytest.raises(MalformedInputError,
                           match="^sensor states must be an iterable, got 7$"):
            sys.with_sensor_rows(7)

    @pytest.mark.parametrize("state", [True, 2.0, "2"])
    def test_with_sensor_rows_names_a_non_integer_state(self, state):
        sys = S(3, 1, [(2, 1)], [(1, 3)])
        with pytest.raises(MalformedInputError,
                           match=rf"sensor state {state!r} is not an integer"):
            sys.with_sensor_rows([state])

    def test_derived_systems_keep_the_pattern(self):
        sys = S(3, 2, [(2, 1), (3, 2)], [(1, 3), (2, 1), (2, 2)])
        grown = sys.with_sensor_rows([2])
        assert grown == S(3, 3, [(2, 1), (3, 2)], [(1, 3), (2, 1), (2, 2), (3, 2)])
        assert sys.without_row(1) == S(3, 1, [(2, 1), (3, 2)], [(1, 1), (1, 2)])
        assert sys.without_measurements() == S(3, 0, [(2, 1), (3, 2)])

    def test_without_row_renumbers(self):
        sys = S(3, 3, [], [(1, 1), (2, 2), (3, 3)])
        smaller = sys.without_row(2)
        assert smaller.p == 2
        assert smaller.h_pattern == {(1, 1), (2, 3)}

    @pytest.mark.parametrize("row", [True, False, 1.5, 1.0, "1", None])
    def test_non_integer_row_named(self, row):
        # without_row(True) used to drop row 1, and without_row(1.5) to
        # merge rows 1 and 2 into one.
        sys = S(3, 2, [(2, 1), (3, 2)], [(1, 3), (2, 1)])
        with pytest.raises(MalformedInputError,
                           match=rf"^row {re.escape(repr(row))} is not an integer$"):
            sys.without_row(row)

    @pytest.mark.parametrize("row", [0, 3, -1])
    def test_row_out_of_range(self, row):
        sys = S(3, 2, [(2, 1), (3, 2)], [(1, 3), (2, 1)])
        with pytest.raises(MalformedInputError, match=rf"^row {row} out of range for p=2$"):
            sys.without_row(row)

    def test_first_duplicate_named(self):
        with pytest.raises(MalformedInputError, match=r"duplicate a pattern entry \(2, 3\)"):
            S(3, 0, [(1, 2), (2, 3), (3, 3), (2, 3), (1, 2)])
        with pytest.raises(MalformedInputError, match=r"duplicate h pattern entry \(1, 2\)"):
            S(3, 1, [(1, 2), (2, 1)], [[1, 2], (1, 2)])


class TestAKeptAsKeys:
    """Every system, however built, keeps A and H only as sorted keys;
    ``a_pattern`` and ``h_pattern`` are built from them on each read."""

    A = [(3, 2), (2, 1), (1, 1), (2, 3)]
    H = [(1, 3), (2, 1)]

    def routes(self, tmp_path):
        """{route: (system, (p, H) of its twin built by the constructor)}."""
        doc = {"n": 3, "p": 2, "a": [list(e) for e in self.A],
               "h": [list(e) for e in self.H]}
        path = tmp_path / "system.json"
        path.write_text(json.dumps(doc))
        mtx = tmp_path / "system.mtx"
        mtx.write_text("%%MatrixMarket matrix coordinate pattern general\n3 3 4\n"
                       + "".join(f"{i} {j}\n" for i, j in self.A))
        direct = StructuredSystem(n=3, p=2, a_pattern=self.A, h_pattern=self.H)
        built = StructuredSystem.from_entries(3, 2, self.A, self.H)
        return {
            "constructor": (direct, (2, self.H)),
            "constructor p=0": (StructuredSystem(n=3, p=0, a_pattern=self.A), (0, [])),
            "load_system": (load_system(path)[0], (2, self.H)),
            "load_matrix_market": (load_matrix_market(mtx), (0, [])),
            "system_from_dict": (system_from_dict(doc)[0], (2, self.H)),
            "from_entries": (built, (2, self.H)),
            "from_entries p=0": (StructuredSystem.from_entries(3, 0, self.A), (0, [])),
            "with_sensor_rows": (direct.with_sensor_rows([2]), (3, self.H + [(3, 2)])),
            "without_row": (built.without_row(1), (1, [(1, 1)])),
        }

    def test_no_pattern_is_kept_and_each_read_builds_it(self, tmp_path):
        for route, (sys, (p, h)) in self.routes(tmp_path).items():
            self.assert_keys_only(sys, route)
            assert (sys.a_pattern, sys.h_pattern) == (frozenset(self.A), frozenset(h)), route
            assert type(sys.a_pattern) is type(sys.h_pattern) is frozenset, route
            twin = StructuredSystem(n=3, p=p, a_pattern=self.A, h_pattern=h)
            self.assert_keys_only(twin, route)
            assert sys == twin and twin == sys and hash(sys) == hash(twin), route
            assert repr(sys) == repr(twin), route
            with pytest.raises(TypeError, match="dataclass instances"):
                dataclasses.replace(sys)
            grown = StructuredSystem(n=3, p=p + 1, a_pattern=sys.a_pattern,
                                     h_pattern=set(h) | {(p + 1, 1)})
            assert grown == twin.with_sensor_rows([1]), route
            self.assert_keys_only(sys, route)

    @staticmethod
    def assert_keys_only(sys, route):
        """No pattern set is stored, and both keys are kept as plain,
        sorted, read-only int64 arrays."""
        assert not {"a_pattern", "h_pattern"} & set(vars(sys)), route
        for name, pattern in (("_a_keys", sys.a_pattern), ("_h_keys", sys.h_pattern)):
            keys = vars(sys)[name]
            assert keys.dtype == np.int64 and not keys.flags.writeable, route
            assert keys.tolist() == pattern_keys_reference(sys.n, pattern), route

    def test_copies_keep_only_the_keys_and_lock_them(self, tmp_path):
        for route, (sys, _) in self.routes(tmp_path).items():
            cached = (sys.rows, sys.matching, sys.reverse)  # kept with sys only
            for copied in (pickle.loads(pickle.dumps(sys)), copy.copy(sys),
                           copy.deepcopy(sys)):
                assert copied == sys and hash(copied) == hash(sys), route
                assert set(vars(copied)) == {"n", "p", "_a_keys", "_h_keys"}, route
                self.assert_keys_only(copied, route)
                assert (copied.rows, copied.matching, copied.reverse) == cached, route

    def test_identity_needs_n_and_p_as_well_as_the_keys(self):
        # Both systems keep A key 1 for entry (1, 2).
        two, three = S(2, 0, [(1, 2)]), S(3, 0, [(1, 2)])
        assert two._a_keys.tolist() == three._a_keys.tolist() == [1]
        assert two != three
        # The same H keys, with an empty trailing row.
        one_row, two_rows = S(2, 1, [], [(1, 1)]), S(2, 2, [], [(1, 1)])
        assert one_row._h_keys.tolist() == two_rows._h_keys.tolist()
        assert one_row != two_rows
        assert one_row != (2, 1) and one_row.__eq__((2, 1)) is NotImplemented

    def test_a_system_is_immutable(self):
        sys = S(2, 1, [(1, 2)], [(1, 1)])
        for name in ("n", "p", "_a_keys", "a_pattern"):
            with pytest.raises(AttributeError, match=f"^cannot set or delete {name!r}"):
                setattr(sys, name, 1)
            with pytest.raises(AttributeError, match=f"^cannot set or delete {name!r}"):
                delattr(sys, name)
        assert (sys.n, sys.p, sys.a_pattern) == (2, 1, frozenset({(1, 2)}))

    def test_repr_and_h_entries_list_the_entries_in_order(self):
        sys = StructuredSystem(n=3, p=2, a_pattern=self.A, h_pattern=self.H)
        assert list(sys.h_entries()) == [(1, 3), (2, 1)]
        assert repr(sys) == ("StructuredSystem(n=3, p=2, a_pattern=[(1, 1), (2, 1), "
                             "(2, 3), (3, 2)], h_pattern=[(1, 3), (2, 1)])")
        assert eval(repr(sys)) == sys

    def test_keys_are_no_cached_properties(self):
        assert not {"_a_keys", "_h_keys"} & set(vars(StructuredSystem))

    def test_derived_systems_share_the_bare_keys(self):
        for base in (StructuredSystem.from_entries(3, 2, self.A, self.H),
                     StructuredSystem(n=3, p=2, a_pattern=self.A, h_pattern=self.H)):
            keys = base._a_keys
            bare = base.without_measurements()
            assert bare._a_keys is keys
            for derived in (base.with_sensor_rows([1]), base.without_row(2),
                            base.without_row(1).without_row(1)):
                assert derived._a_keys is keys
                assert derived.a_pattern == frozenset(self.A)

    def test_other_missing_attributes_still_raise(self):
        for sys in (StructuredSystem.from_entries(3, 1, self.A, [(1, 2)]),
                    StructuredSystem.from_entries(3, 0, self.A),
                    StructuredSystem(n=3, p=0, a_pattern=self.A)):
            with pytest.raises(AttributeError,
                               match="^'StructuredSystem' object has no attribute 'missing'$"):
                sys.missing
            assert getattr(sys, "missing", None) is None


class TestKeyAlgebra:
    """``with_sensor_rows`` and ``without_row`` edit the sorted H keys; every
    chain of them must agree with the same edits on a set of pairs."""

    @given(patterns(), st.booleans(), st.data())
    def test_edit_chains_match_the_set_reference(self, pattern, direct, data):
        n, p, a, h = pattern
        if direct:
            sys = StructuredSystem(n=n, p=p, a_pattern=a, h_pattern=h)
        else:
            sys = StructuredSystem.from_entries(n, p, sorted(a), sorted(h))
        edits = []
        for _ in range(data.draw(st.integers(1, 5))):
            ref_p, _ = edited_h_reference(p, h, edits)
            if ref_p and data.draw(st.booleans()):
                edits.append(data.draw(st.integers(1, ref_p)))
                sys = sys.without_row(edits[-1])
            else:
                edits.append(tuple(data.draw(st.lists(st.integers(1, n), max_size=3))))
                sys = sys.with_sensor_rows(edits[-1])
            ref_p, ref_h = edited_h_reference(p, h, edits)
            assert (sys.p, sys.h_pattern, sys.a_pattern) == (ref_p, ref_h, a)
            keys = sys._h_keys
            assert keys.dtype == np.int64 and not keys.flags.writeable
            assert keys.tolist() == pattern_keys_reference(n, ref_h)
            assert sys.rows == pattern_rows_reference(n, a, ref_h)


class TestDigraph:
    def test_a_entry_direction(self):
        # entry (i, j) means state j drives state i
        dg = build_digraph(S(2, 0, [(2, 1)]))
        assert dg.edges == ((1, 2),)

    def test_h_entry_direction(self):
        # measurement k is end n + k
        dg = build_digraph(S(2, 1, [], [(1, 2)]))
        assert dg.edges == ((2, 3),)

    def test_self_loop(self):
        dg = build_digraph(S(1, 0, [(1, 1)]))
        assert dg.edges == ((1, 1),)

    def test_edge_count_matches_pattern(self, fix15):
        dg = build_digraph(fix15)
        assert len(dg.edges) == len(fix15.a_pattern) + len(fix15.h_pattern)

    def test_built_once_per_system(self, chain3):
        assert build_digraph(chain3) is chain3
        assert chain3.rows is chain3.rows and chain3.matching is chain3.matching
        bare = chain3.without_measurements()
        assert bare.rows is chain3.without_measurements().rows

    @given(systems())
    def test_round_trip_patterns(self, sys):
        dg = build_digraph(sys)
        a_back = set()
        h_back = set()
        for state, end in dg.edges:
            if end <= sys.n:
                a_back.add((end, state))
            else:
                h_back.add((end - sys.n, state))
        assert a_back == set(sys.a_pattern)
        assert h_back == set(sys.h_pattern)
        assert list(dg.edges) == sorted(dg.edges)

    @given(systems())
    def test_layers_take_the_system_itself(self, sys):
        def answers(system):
            try:
                classes = contractions(system)
            except DegenerateStructureError as exc:
                classes = exc.components
            return (decompose(system), accessibility_check(system),
                    s_rank(system, include_h=True), classes)

        assert answers(sys) == answers(build_digraph(sys))

    def test_accessibility_of_a_system_with_rows(self, chain3):
        assert chain3.p and accessibility_check(chain3) == ((1, 2, 3), ())

    @given(systems())
    def test_edge_count_invariant(self, sys):
        dg = build_digraph(sys)
        assert len(dg.edges) == len(sys.a_pattern) + len(sys.h_pattern)


def _scipy_rows(sys):
    """The rows of the system's (state, end) pairs, from scipy's sorted CSR."""
    begins = [j - 1 for (i, j) in sys.a_pattern] + [j - 1 for (i, j) in sys.h_pattern]
    ends = ([i - 1 for (i, j) in sys.a_pattern]
            + [sys.n + i - 1 for (i, j) in sys.h_pattern])
    ref = csr_matrix(
        (np.ones(len(begins)), (np.array(begins, int), np.array(ends, int))),
        shape=(sys.n, sys.n + sys.p))
    ref.sort_indices()
    return csr_to_rows(ref.indptr, ref.indices)


class TestCsr:
    """Derived systems extend the bare rows; each must equal its own build."""

    @given(systems(), st.lists(st.integers(1, 8), max_size=3))
    def test_matches_scipy(self, sys, sensors):
        grown = sys.with_sensor_rows([s for s in sensors if s <= sys.n])
        loaded, _ = system_from_dict(system_to_dict(grown))
        checked = [sys, sys.without_measurements(), grown, loaded]
        checked += [grown.without_row(row) for row in range(1, grown.p + 1)]
        for system in checked:
            g = build_digraph(system)
            assert g.rows == _scipy_rows(system)
            assert all(type(row) is tuple for row in g.rows)


class TestReverse:
    @given(systems())
    def test_reverse_transposes_the_state_arcs(self, sys):
        assert sys.reverse == tuple(
            tuple(sorted(j - 1 for (i, j) in sys.a_pattern if i == v + 1))
            for v in range(sys.n))


class TestBipartite:
    def test_self_loop_pair(self):
        bg = build_digraph(S(1, 0, [(1, 1)]))
        assert bg.edges == ((1, 1),)

    def test_chain_pairs(self):
        bg = build_digraph(S(3, 0, [(2, 1), (3, 2)]))
        assert bg.edges == ((1, 2), (2, 3))

    def test_empty_patterns(self):
        bg = build_digraph(S(2, 0, []))
        assert bg.edges == ()
        assert bg.n == 2 and bg.n_end == 2

    def test_measurement_ends_offset(self):
        bg = build_digraph(S(2, 1, [], [(1, 2)]))
        assert bg.edges == ((2, 3),)  # end 3 = n + 1 = y1
        assert bg.n_end == 3


class TestReverseReachable:
    """Accessibility is reachability backwards from the measurements."""

    def test_chain_to_sensor(self, chain3):
        assert accessibility_check(build_digraph(chain3)) == ((1, 2, 3), ())

    def test_isolated(self):
        dg = build_digraph(S(2, 1, [], [(1, 1)]))
        assert accessibility_check(dg) == ((1,), (2,))
