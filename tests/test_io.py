import json

import pytest
from hypothesis import given, settings

from obspart import (
    MalformedInputError,
    StructuredSystem,
    load_matrix_market,
    load_system,
    partition_report,
    rank_report,
    render_report,
    report_dict,
    system_from_dict,
    theorem_check,
    verify_dict,
)
from obspart import cli, structure
from obspart.structure import MAX_STATES
from conftest import S
from oracles import system_from_dict_reference, system_to_dict
from strategies import system_documents, systems

CHAIN_DOC = {"n": 3, "p": 1, "a": [[2, 1], [3, 2]], "h": [[1, 3]]}


class TestSystemFromDict:
    def test_chain(self, chain3):
        sys, names = system_from_dict(CHAIN_DOC)
        assert sys == chain3
        assert names is None

    def test_names_round_trip(self, chain3):
        doc = dict(CHAIN_DOC, names=["pos", "vel", "acc"])
        sys, names = system_from_dict(doc)
        assert names == ("pos", "vel", "acc")
        assert system_to_dict(sys, names) == doc

    def test_unknown_key(self):
        with pytest.raises(MalformedInputError, match='unknown key "b"'):
            system_from_dict(dict(CHAIN_DOC, b=[]))

    def test_missing_key(self):
        doc = {k: v for k, v in CHAIN_DOC.items() if k != "h"}
        with pytest.raises(MalformedInputError, match='missing key "h"'):
            system_from_dict(doc)

    def test_non_object(self):
        with pytest.raises(MalformedInputError, match="JSON object"):
            system_from_dict([1, 2])

    def test_bool_is_not_an_integer(self):
        with pytest.raises(MalformedInputError, match='"n" must be an integer'):
            system_from_dict(dict(CHAIN_DOC, n=True))

    def test_bad_entry_shape(self):
        with pytest.raises(MalformedInputError, match=r"not a \[row, column\]"):
            system_from_dict(dict(CHAIN_DOC, a=[[1, 2, 3]]))

    def test_entries_out_of_range(self):
        with pytest.raises(MalformedInputError):
            system_from_dict(dict(CHAIN_DOC, a=[[4, 1]]))

    def test_duplicate_entries(self):
        with pytest.raises(MalformedInputError, match="duplicate"):
            system_from_dict(dict(CHAIN_DOC, a=[[2, 1], [2, 1]]))

    def test_wrong_names_length(self):
        with pytest.raises(MalformedInputError, match="3 strings"):
            system_from_dict(dict(CHAIN_DOC, names=["only", "two"]))

    @given(systems(n_max=6))
    def test_round_trip(self, sys):
        loaded, names = system_from_dict(system_to_dict(sys))
        assert loaded == sys
        assert names is None


def _outcome(load, doc):
    try:
        sys, names = load(doc)
    except Exception as exc:
        return type(exc), str(exc)
    return sys.n, sys.p, sys.a_pattern, sys.h_pattern, names


class TestLoaderRoutes:
    """Plain documents skip the checked route; every other document takes
    it: the loader's shape checks, then the constructor's checks of n, p,
    each A entry and each H entry, in that order."""

    @settings(max_examples=500)
    @given(system_documents())
    def test_same_system_or_same_error_as_the_checked_route(self, doc):
        outcome = _outcome(system_from_dict, doc)
        assert outcome == _outcome(system_from_dict_reference, doc)

    @pytest.mark.parametrize("changes, message", [
        ({"a": [[2.0, 1], [2, 1]]}, "a_pattern entry (2.0, 1) is not a pair of integers"),
        ({"n": 0, "a": [[1, 1], [1, 1]]}, "n must be a positive integer, got 0"),
        ({"a": [[0, 1]], "h": [[1, 1], [1, 1]]},
         "a_pattern entry (0, 1) out of range for a 3x3 pattern"),
        ({"a": [[True, 1]]}, "a_pattern entry (True, 1) is not a pair of integers"),
        ({"a": [[1, 2, 3]]}, '"a" entry [1, 2, 3] is not a [row, column] pair'),
        # Past int64, so the fast check's array cannot hold the entry.
        ({"n": 2, "p": 0, "a": [[1, 2**63]], "h": []},
         "a_pattern entry (1, 9223372036854775808) out of range for a 2x2 pattern"),
        ({"n": 2, "a": [], "h": [[1, -2**64]]},
         "h_pattern entry (1, -18446744073709551616) out of range for a 1x2 pattern"),
    ])
    def test_precedence(self, changes, message):
        doc = dict(CHAIN_DOC, **changes)
        assert _outcome(system_from_dict, doc) == (MalformedInputError, message)
        assert _outcome(system_from_dict_reference, doc) == (MalformedInputError, message)

    @pytest.mark.parametrize("changes, fast_checks", [
        ({"a": [[2, 1], [3, 2], [True, 2]]}, 1),  # "a" fails, "h" is never reached
        ({"h": [[1, 3], [1, 2**63]]}, 2),         # "a" passes, "h" fails
    ])
    def test_a_failed_fast_check_is_not_run_again(self, changes, fast_checks, count_calls):
        doc = dict(CHAIN_DOC, **changes)
        calls = count_calls(structure._plain_pairs)
        with pytest.raises(MalformedInputError):
            system_from_dict(doc)
        assert len(calls) == fast_checks

    def test_a_valid_file_is_checked_once_and_never_flattened(self, tmp_path, count_calls):
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(dict(CHAIN_DOC, a=[[3, 2], [2, 1], [1, 1]])))
        checks = count_calls(structure._check_pattern)
        flattens = count_calls(structure._flat_entries)
        sys, _ = load_system(path)
        assert (sys.without_measurements().rows, sys.reverse) == (
            ((0, 1), (2,), ()), ((0,), (0,), (1,)))
        offsets = (sys._a_keys, sys._h_keys)
        assert [o.tolist() for o in offsets] == [[0, 3, 7], [2]]
        assert (len(checks), len(flattens)) == (0, 0)
        # A system built by ``from_entries`` takes the same fast check and
        # keeps its keys; a derived one computes its H keys from its
        # parent's and flattens nothing.
        built = S(3, 1, [(3, 2), (2, 1), (1, 1)], [(1, 3)])
        assert built.reverse == sys.reverse
        assert [o.tolist() for o in (built._a_keys, built._h_keys)] == [[0, 3, 7], [2]]
        assert len(checks) == 0 and len(flattens) == 0
        grown = built.with_sensor_rows([1])
        assert [o.tolist() for o in (grown._a_keys, grown._h_keys)] == [[0, 3, 7], [2, 3]]
        assert len(flattens) == 0
        # A system built directly checks each pattern entry by entry and
        # flattens each once, at construction.
        direct = StructuredSystem(n=3, p=1, a_pattern={(3, 2), (2, 1), (1, 1)},
                                  h_pattern=[(1, 3)])
        assert len(checks) == 2 and len(flattens) == 2
        assert direct.reverse == sys.reverse
        for _ in range(2):
            assert [o.tolist() for o in (direct._a_keys, direct._h_keys)] == [[0, 3, 7], [2]]
        assert len(checks) == 2 and len(flattens) == 2


class TestHugeN:
    """Keys (i - 1) * n + j - 1 must fit in int64.  Nothing here builds a
    graph: its rows alone would allocate n + 1 bounds."""

    DOC = {"n": 10**30, "p": 1, "a": [[10**29, 1]], "h": [[1, 1]]}

    def test_largest_n_loads(self):
        doc = {"n": MAX_STATES, "p": 1, "a": [[MAX_STATES, 1]], "h": [[1, MAX_STATES]]}
        sys, _ = system_from_dict(doc)
        assert sys.n == MAX_STATES
        assert sys._a_keys.tolist() == [(MAX_STATES - 1) * MAX_STATES]
        assert StructuredSystem(n=MAX_STATES, p=0).n == MAX_STATES

    @pytest.mark.parametrize("n", [MAX_STATES + 1, 10**30])
    def test_past_the_limit_is_one_error(self, n):
        message = f"n must be at most {MAX_STATES}, got {n}"
        with pytest.raises(MalformedInputError, match=f"^{message}$"):
            StructuredSystem(n=n, p=0)
        doc = dict(self.DOC, n=n)
        assert _outcome(system_from_dict, doc) == (MalformedInputError, message)

    @pytest.mark.parametrize("command", ["export-dot", "analyze", "place", "verify"])
    def test_cli_exits_2(self, tmp_path, capsys, command):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(self.DOC))
        assert cli.main([command, str(path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"n must be at most {MAX_STATES}" in err


class TestHugeP:
    """p is bounded like n, so that the H keys fit in int64 too."""

    DOC = {"n": 1, "p": 10**30, "a": [], "h": [[10**29, 1]]}

    def test_largest_p_loads(self):
        doc = {"n": 2, "p": MAX_STATES, "a": [], "h": [[MAX_STATES, 2]]}
        sys, _ = system_from_dict(doc)
        assert sys.p == MAX_STATES
        assert sys._h_keys.tolist() == [(MAX_STATES - 1) * 2 + 1]
        direct = StructuredSystem(n=2, p=MAX_STATES, h_pattern={(MAX_STATES, 2)})
        assert direct._h_keys.tolist() == sys._h_keys.tolist()

    @pytest.mark.parametrize("p", [MAX_STATES + 1, 10**18, 10**30])
    def test_past_the_limit_is_one_error(self, p):
        message = f"p must be at most {MAX_STATES}, got {p}"
        with pytest.raises(MalformedInputError, match=f"^{message}$"):
            StructuredSystem(n=10, p=p, h_pattern={(p, 3)})
        assert _outcome(system_from_dict, dict(self.DOC, p=p)) == (
            MalformedInputError, message)

    @pytest.mark.parametrize("command", ["export-dot", "analyze"])
    def test_cli_exits_2(self, tmp_path, capsys, command):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(self.DOC))
        assert cli.main([command, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"obspart: error: p must be at most {MAX_STATES}, got {10**30}\n"


class TestLoadSystem:
    def test_load(self, tmp_path, chain3):
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(CHAIN_DOC))
        sys, names = load_system(path)
        assert sys == chain3

    def test_json_error_carries_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"n": 3,\n  "p": }')
        with pytest.raises(MalformedInputError, match=r"line 2 column \d+"):
            load_system(path)


class TestMatrixMarket:
    GOOD = (
        "%%MatrixMarket matrix coordinate pattern general\n"
        "% a comment line\n"
        "3 3 2\n"
        "2 1\n"
        "3 2\n"
    )

    def test_good_file(self, tmp_path):
        path = tmp_path / "chain.mtx"
        path.write_text(self.GOOD)
        sys = load_matrix_market(path)
        assert sys == S(3, 0, [(2, 1), (3, 2)])

    def test_non_square(self, tmp_path):
        path = tmp_path / "rect.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate pattern general\n3 2 1\n2 1\n"
        )
        with pytest.raises(MalformedInputError, match="square"):
            load_matrix_market(path)

    def test_value_banner_rejected(self, tmp_path):
        path = tmp_path / "real.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 3.5\n"
        )
        with pytest.raises(MalformedInputError, match="coordinate pattern"):
            load_matrix_market(path)

    def test_missing_banner(self, tmp_path):
        path = tmp_path / "plain.mtx"
        path.write_text("3 3 0\n")
        with pytest.raises(MalformedInputError, match="banner"):
            load_matrix_market(path)

    def test_entry_count_mismatch(self, tmp_path):
        path = tmp_path / "short.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate pattern general\n3 3 2\n2 1\n"
        )
        with pytest.raises(MalformedInputError, match="promises 2 entries"):
            load_matrix_market(path)

    @pytest.mark.parametrize("size", ["3 3", "3 3 2 1", "3 x 2"])
    def test_bad_size_line(self, tmp_path, size):
        path = tmp_path / "size.mtx"
        path.write_text(
            f"%%MatrixMarket matrix coordinate pattern general\n{size}\n2 1\n3 2\n"
        )
        with pytest.raises(MalformedInputError) as exc:
            load_matrix_market(path)
        assert str(exc.value) == f"bad Matrix Market size line {size!r}"


class TestReports:
    def _docs(self, sys):
        check = theorem_check(sys)
        part = partition_report(sys)
        rank = rank_report(sys, trials=3)
        return check, part, rank

    def test_report_key_order(self, chain3):
        check, part, rank = self._docs(chain3)
        doc = report_dict(chain3, check, part, rank, seed=42)
        assert list(doc) == [
            "version", "n", "p", "observable", "failed_condition", "s_rank",
            "inaccessible", "alpha_classes", "beta_classes", "labels",
            "minimal_sets", "sensor_count", "forbidden", "rank", "seed",
        ]
        assert doc["version"] == "obspart/1"
        assert doc["observable"] is True
        assert doc["labels"] == ["alpha"]
        assert list(doc["rank"]) == [
            "trials", "tol", "gramian_rank", "agreement", "gramian_ranks",
            "pbh_rank_deficient_eigenvalues", "pbh_observable",
        ]

    def test_render_is_byte_stable(self, fix15):
        check, part, rank = self._docs(fix15)
        first = render_report(report_dict(fix15, check, part, rank, seed=42))
        check2, part2, rank2 = self._docs(fix15)
        second = render_report(report_dict(fix15, check2, part2, rank2, seed=42))
        assert first == second
        assert first.endswith("\n")
        json.loads(first)  # stays valid JSON

    def test_eigenvalues_serialize_as_pairs(self):
        sys = S(2, 1, [(1, 1), (2, 2)], [(1, 1)])
        check, part, rank = self._docs(sys)
        doc = report_dict(sys, check, part, rank, seed=42)
        pairs = doc["rank"]["pbh_rank_deficient_eigenvalues"]
        assert len(pairs) == 1
        assert len(pairs[0]) == 2
        assert all(isinstance(v, float) for v in pairs[0])

    def test_verify_doc(self, chain3):
        check, _, rank = self._docs(chain3)
        doc = verify_dict(chain3, check, rank, seed=42)
        assert doc["structural_observable"] is True
        assert doc["numeric_observable"] is True
        assert doc["verdicts_agree"] is True
        assert list(doc)[:4] == ["version", "n", "p", "structural_observable"]

    def test_names_are_appended_when_given(self, chain3):
        check, part, rank = self._docs(chain3)
        doc = report_dict(
            chain3, check, part, rank, seed=42, names=("a", "b", "c")
        )
        assert list(doc)[-1] == "names"
        assert doc["names"] == ["a", "b", "c"]
