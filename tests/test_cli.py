import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

if sys.version_info >= (3, 11):
    import tomllib
else:  # pytest itself depends on tomli before 3.11
    import tomli as tomllib

import obspart
from obspart import cli
from obspart.numeric import NUMERIC_STATE_LIMIT
from conftest import FIX15_A

GOLDEN = Path(__file__).resolve().parent / "golden"

CHAIN_DOC = {"n": 3, "p": 1, "a": [[2, 1], [3, 2]], "h": [[1, 3]]}
FIX15_DOC = {"n": 15, "p": 0, "a": [list(e) for e in sorted(FIX15_A)], "h": []}


@pytest.fixture()
def chain_path(tmp_path):
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(CHAIN_DOC))
    return str(path)


@pytest.fixture()
def fix15_path(tmp_path):
    path = tmp_path / "fix15.json"
    path.write_text(json.dumps(FIX15_DOC))
    return str(path)


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyze:
    def test_observable_chain(self, chain_path, capsys):
        code, out, err = run_cli(["analyze", chain_path], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["observable"] is True
        assert doc["labels"] == ["alpha"]
        assert doc["rank"]["gramian_rank"] == 3

    def test_check_flag_fails_unobservable(self, tmp_path, capsys):
        path = tmp_path / "fan.json"
        path.write_text(json.dumps({"n": 3, "p": 0,
                                    "a": [[3, 1], [3, 2]], "h": []}))
        code, out, _ = run_cli(["analyze", str(path), "--check"], capsys)
        assert code == 1
        doc = json.loads(out)  # the report is still produced
        assert doc["observable"] is False

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"n": 3,\n "p": }')
        code, out, err = run_cli(["analyze", str(path)], capsys)
        assert code == 2
        assert out == ""
        assert "line 2 column" in err

    def test_missing_file(self, capsys):
        code, _, err = run_cli(["analyze", "/nonexistent/sys.json"], capsys)
        assert code == 2
        assert "error" in err

    def test_bad_tol(self, chain_path, capsys):
        code, _, err = run_cli(["analyze", chain_path, "--tol", "0"], capsys)
        assert code == 2
        assert "--tol must be positive" in err

    @pytest.mark.parametrize("suffix", [".json", ".mtx"])
    def test_directory_path(self, tmp_path, capsys, suffix):
        path = tmp_path / f"dir{suffix}"
        path.mkdir()
        code, out, err = run_cli(["analyze", str(path)], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("obspart: error:") and err.count("\n") == 1

    @pytest.mark.parametrize("suffix", [".json", ".mtx"])
    def test_non_utf8_file(self, tmp_path, capsys, suffix):
        path = tmp_path / f"bytes{suffix}"
        path.write_bytes(b"\xff\xfe\x00{}")
        code, out, err = run_cli(["analyze", str(path)], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("obspart: error:") and err.count("\n") == 1
        assert "not UTF-8" in err

    @pytest.mark.parametrize("doc, message", [
        ({"n": 2, "p": 0, "a": [[1, [2]]], "h": []},
         "a_pattern entry (1, [2]) is not a pair of integers"),
        ({"n": 2, "p": 1, "a": [], "h": [[1, {"x": 1}]]},
         "h_pattern entry (1, {'x': 1}) is not a pair of integers"),
    ])
    def test_unhashable_entry_one_line(self, tmp_path, capsys, doc, message):
        path = tmp_path / "unhashable.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(["analyze", str(path)], capsys)
        assert (code, out) == (2, "")
        assert err == f"obspart: error: {message}\n"

    def test_degenerate_star_one_short_line(self, tmp_path, capsys):
        # 200 states all feed state 201: 199 unmatched seeds clash.
        doc = {"n": 201, "p": 0, "a": [[201, i] for i in range(1, 201)], "h": []}
        path = tmp_path / "star.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(["analyze", str(path)], capsys)
        assert code == 3
        assert out == ""
        assert "overlap partially" in err
        assert err.count("\n") == 1 and len(err) < 500

    @pytest.mark.parametrize("color_by", ["alpha", "beta", "scc"])
    def test_export_dot_of_a_degenerate_system(self, tmp_path, capsys, color_by):
        # Rank and access coloring need the rank classes, which do not
        # exist here; plain components do.
        doc = {"n": 4, "p": 1, "a": [[4, 1], [4, 2], [4, 3]], "h": [[1, 4]]}
        path = tmp_path / "fan.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(["export-dot", str(path), "--color-by", color_by],
                                 capsys)
        if color_by == "scc":
            assert (code, err) == (0, "")
            assert out.startswith("digraph system {")
        else:
            assert (code, out) == (3, "")
            assert err == (
                "obspart: infeasible: contraction member sets overlap "
                "partially: some deficient component is short by two or "
                "more nodes (lowest state 1: short by 2)\n")

    def test_byte_identical_reruns(self, fix15_path, capsys):
        _, first, _ = run_cli(["analyze", fix15_path], capsys)
        _, second, _ = run_cli(["analyze", fix15_path], capsys)
        assert first == second

    def test_out_file(self, chain_path, tmp_path, capsys):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(
            ["analyze", chain_path, "--out", str(target)], capsys
        )
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["observable"] is True


class TestSeedSelection:
    def test_env_seed(self, chain_path, capsys, monkeypatch):
        monkeypatch.setenv("OBSPART_SEED", "7")
        _, out, _ = run_cli(["analyze", chain_path], capsys)
        assert json.loads(out)["seed"] == 7

    def test_flag_beats_env(self, chain_path, capsys, monkeypatch):
        monkeypatch.setenv("OBSPART_SEED", "7")
        _, out, _ = run_cli(["analyze", chain_path, "--seed", "11"], capsys)
        assert json.loads(out)["seed"] == 11

    def test_default_seed(self, chain_path, capsys, monkeypatch):
        monkeypatch.delenv("OBSPART_SEED", raising=False)
        _, out, _ = run_cli(["analyze", chain_path], capsys)
        assert json.loads(out)["seed"] == 42

    def test_invalid_env_seed(self, chain_path, capsys, monkeypatch):
        monkeypatch.setenv("OBSPART_SEED", "many")
        code, _, err = run_cli(["analyze", chain_path], capsys)
        assert code == 2
        assert "OBSPART_SEED" in err


class TestPlace:
    def test_fixture_placement(self, fix15_path, capsys):
        code, out, _ = run_cli(["place", fix15_path], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["sensor_count"] == 3
        assert doc["minimal_sets"] == [[4, 9, 12]]
        assert doc["forbidden"] == []

    def test_forbid(self, fix15_path, capsys):
        code, out, _ = run_cli(["place", fix15_path, "--forbid", "12"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["sensor_count"] == 4
        assert doc["minimal_sets"] == [[4, 9, 10, 11]]
        assert doc["forbidden"] == [12]

    def test_forbid_comma_list_accumulates(self, fix15_path, capsys):
        code, out, _ = run_cli(
            ["place", fix15_path, "--forbid", "12, 15", "--forbid", "7"],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["forbidden"] == [7, 12, 15]

    def test_forbid_whole_class_is_infeasible(self, fix15_path, capsys):
        code, _, err = run_cli(
            ["place", fix15_path, "--forbid", "4,15"], capsys
        )
        assert code == 3
        assert "infeasible" in err

    def test_forbid_rejects_garbage(self, fix15_path, capsys):
        code, _, err = run_cli(["place", fix15_path, "--forbid", "x2"], capsys)
        assert code == 2
        assert "--forbid takes state numbers" in err

    def test_forbid_rejects_out_of_range(self, chain_path, capsys):
        code, out, err = run_cli(["place", chain_path, "--forbid", "99"], capsys)
        assert code == 2
        assert out == ""
        assert err == "obspart: error: --forbid state 99 out of range for n=3\n"

    def test_all_witnesses(self, fix15_path, capsys):
        code, out, _ = run_cli(["place", fix15_path, "--all-witnesses"], capsys)
        assert code == 0
        assert json.loads(out)["minimal_sets"] == [[4, 9, 12], [9, 12, 15]]

    def test_all_witnesses_one_subset_accepted(self, tmp_path, capsys):
        # 16 self-loops: 16 singleton access classes, C(16, 16) = 1 subset.
        doc = {"n": 16, "p": 0, "a": [[i, i] for i in range(1, 17)], "h": []}
        path = tmp_path / "loops16.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(["place", str(path), "--all-witnesses"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["minimal_sets"] == [list(range(1, 17))]
        assert report["sensor_count"] == 16

    def test_all_witnesses_refused_above_the_subset_bound(self, tmp_path, capsys):
        # Nine 2-cycles: nine two-state access classes, C(18, 9) = 48620 subsets.
        a = [entry for k in range(1, 10) for entry in ([2 * k, 2 * k - 1], [2 * k - 1, 2 * k])]
        path = tmp_path / "cycles9.json"
        path.write_text(json.dumps({"n": 18, "p": 0, "a": a, "h": []}))
        code, out, err = run_cli(["place", str(path), "--all-witnesses"], capsys)
        assert code == 2
        assert out == ""
        assert err == ("obspart: error: witness enumeration tests at most 6435 "
                       "subsets, got C(18, 9) = 48620\n")

    def test_all_witnesses_counts_candidates_not_states(self, tmp_path, capsys):
        # A 16-state chain has one candidate state, its sink.
        doc = {"n": 16, "p": 0, "a": [[i + 1, i] for i in range(1, 16)], "h": []}
        path = tmp_path / "chain16.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(["place", str(path), "--all-witnesses"], capsys)
        assert code == 0
        assert json.loads(out)["minimal_sets"] == [[16]]


class TestVerify:
    def test_agreement(self, chain_path, capsys):
        code, out, _ = run_cli(["verify", chain_path], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["verdicts_agree"] is True
        assert doc["structural_observable"] is True

    def test_unobservable_agreement(self, tmp_path, capsys):
        path = tmp_path / "fan.json"
        path.write_text(json.dumps({"n": 3, "p": 0,
                                    "a": [[3, 1], [3, 2]], "h": []}))
        code, out, _ = run_cli(["verify", str(path)], capsys)
        assert code == 0
        assert json.loads(out)["verdicts_agree"] is True

    def test_absurd_tolerance_forces_disagreement(self, chain_path, capsys):
        # tol close to 1 collapses the numeric rank while the structural
        # verdict stands; the disagreement exit code fires
        code, out, _ = run_cli(
            ["verify", chain_path, "--tol", "0.9999999"], capsys
        )
        assert code == 4
        assert json.loads(out)["verdicts_agree"] is False

    def test_tiny_tolerance_never_grows_past_n(self, tmp_path, capsys):
        # at tol 1e-17 rounding noise cleared the threshold, the basis
        # grew to 4 rows for 3 states and the PBH step crashed
        path = tmp_path / "sensed.json"
        path.write_text(json.dumps({"n": 3, "p": 3,
                                    "a": [[1, 2], [1, 3], [2, 2], [2, 3]],
                                    "h": [[1, 1], [2, 2], [3, 1]]}))
        code, out, err = run_cli(["verify", str(path), "--tol", "1e-17"], capsys)
        assert code == 0, err
        ranks = json.loads(out)["rank"]["gramian_ranks"]
        assert len(ranks) == 5 and all(r <= 3 for r in ranks)

    def test_the_oracle_reads_the_kept_theorem_check(self, tmp_path, capsys, count_calls):
        # measured at its source, the chain's states 2 and 3 are
        # inaccessible: the oracle slices them off with the split the
        # CLI has already computed
        path = tmp_path / "source.json"
        path.write_text(json.dumps(dict(CHAIN_DOC, h=[[1, 1]])))
        checks = count_calls(obspart.partition.theorem_check)
        code, out, _ = run_cli(["verify", str(path)], capsys)
        assert code == 0
        assert json.loads(out)["rank"]["gramian_ranks"] == [1] * 5
        assert len(checks) == 1

    @pytest.mark.parametrize("tol", ["inf", "nan"])
    def test_non_finite_tol(self, chain_path, capsys, tol):
        code, out, err = run_cli(["verify", chain_path, "--tol", tol], capsys)
        assert code == 2
        assert out == ""
        assert err == f"obspart: error: --tol must be positive, got {tol}\n"


class TestExportDot:
    def test_stdout(self, chain_path, capsys):
        code, out, _ = run_cli(["export-dot", chain_path], capsys)
        assert code == 0
        assert out.startswith("digraph system {")
        assert '"x3" -> "y1";' in out

    def test_color_by(self, fix15_path, capsys):
        code, out, _ = run_cli(
            ["export-dot", fix15_path, "--color-by", "beta"], capsys
        )
        assert code == 0
        assert "fillcolor=orange" in out


class TestMatrixMarketInput:
    def test_mtx_path(self, tmp_path, capsys):
        path = tmp_path / "chain.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate pattern general\n"
            "3 3 2\n2 1\n3 2\n"
        )
        code, out, _ = run_cli(["analyze", str(path)], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["n"] == 3 and doc["p"] == 0
        assert doc["observable"] is False  # no measurements yet
        assert doc["alpha_classes"] == [[3]]


class TestRejectedInput:
    """Each bad flag, environment value or input file exits 2 with one line."""

    @pytest.mark.parametrize("argv, env_seed, message", [
        (["analyze", "--seed", "-1"], None, "--seed must be non-negative, got -1"),
        (["verify", "--trials", "0"], None, "--trials must be at least 1, got 0"),
        (["analyze"], "-1", "OBSPART_SEED must be non-negative, got -1"),
        (["place", "--forbid", "0"], None, "--forbid takes positive states, got 0"),
    ])
    def test_bad_argument(self, chain_path, capsys, monkeypatch, argv, env_seed, message):
        if env_seed is None:
            monkeypatch.delenv("OBSPART_SEED", raising=False)
        else:
            monkeypatch.setenv("OBSPART_SEED", env_seed)
        argv.insert(1, chain_path)
        assert run_cli(argv, capsys) == (2, "", f"obspart: error: {message}\n")

    @pytest.mark.parametrize("body, message", [
        ("% only a comment\n", "Matrix Market file has no size line"),
        ("3 3 1\n2\n", "bad Matrix Market entry line '2'"),
        ("3 3 1\n2 x\n", "bad Matrix Market entry line '2 x'"),
    ])
    def test_bad_matrix_market_file(self, tmp_path, capsys, body, message):
        path = tmp_path / "bad.mtx"
        path.write_text("%%MatrixMarket matrix coordinate pattern general\n" + body)
        assert run_cli(["analyze", str(path)], capsys) == (
            2, "", f"obspart: error: {message}\n")

    def test_first_bad_entry_is_named_in_every_process(self, tmp_path):
        # Entries are checked in file order, not in a set's hash order, so
        # the line does not change with PYTHONHASHSEED.
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": 2, "p": 0, "h": [],
                                    "a": [["a", 1], ["b", 1], ["c", 2], ["d", 2]]}))
        lines = set()
        for hash_seed in "1234":
            proc = subprocess.run(
                [sys.executable, "-m", "obspart.cli", "analyze", str(path)],
                capture_output=True, text=True,
                env=dict(os.environ, PYTHONHASHSEED=hash_seed),
            )
            assert (proc.returncode, proc.stdout) == (2, "")
            lines.add(proc.stderr)
        assert lines == {
            "obspart: error: a_pattern entry ('a', 1) is not a pair of integers\n"}

    def test_internal_error_exits_2_with_one_line(self, chain_path, capsys, monkeypatch):
        def inconsistent(*args, **kwargs):
            raise obspart.InconsistencyError("classes do not describe this system")

        monkeypatch.setattr(cli, "partition_report", inconsistent)
        assert run_cli(["analyze", chain_path], capsys) == (
            2, "", "obspart: internal error: classes do not describe this system\n")


class TestStateLimit:
    """The numeric oracle refuses a system above its state limit; the
    structural commands do not."""

    @pytest.fixture()
    def long_chain_path(self, tmp_path):
        n = NUMERIC_STATE_LIMIT + 1
        path = tmp_path / "long_chain.json"
        path.write_text(json.dumps({"n": n, "p": 1, "h": [[1, n]],
                                    "a": [[i + 1, i] for i in range(1, n)]}))
        return str(path)

    @pytest.fixture()
    def fan_in_path(self, tmp_path):
        # Out of domain: the structural analysis of ``analyze`` and
        # ``place`` would exit 3.
        n = NUMERIC_STATE_LIMIT + 1
        path = tmp_path / "fan_in.json"
        path.write_text(json.dumps({"n": n, "p": 1, "h": [[1, 1]],
                                    "a": [[1, j] for j in range(1, n + 1)]}))
        return str(path)

    @pytest.mark.parametrize("command, system", [
        (command, system) for system in ("long_chain_path", "fan_in_path")
        for command in ("analyze", "place", "verify")
    ], ids=["analyze", "place", "verify", "analyze-fan_in", "place-fan_in", "verify-fan_in"])
    def test_numeric_commands_exit_2_with_one_line(self, request, capsys, count_calls,
                                                   command, system):
        # The limit is checked before any theorem check or matching, so its
        # exit 2 also wins over the fan-in's out-of-domain exit 3.
        checks = count_calls(obspart.partition.theorem_check)
        matchings = count_calls(obspart._kernels.hopcroft_karp)
        assert run_cli([command, request.getfixturevalue(system)], capsys) == (
            2, "", f"obspart: error: the numeric oracle realizes at most "
                   f"{NUMERIC_STATE_LIMIT} states, got n={NUMERIC_STATE_LIMIT + 1}\n")
        assert (len(checks), len(matchings)) == (0, 0)

    def test_export_dot_is_not_limited(self, long_chain_path, capsys):
        code, out, err = run_cli(["export-dot", long_chain_path], capsys)
        assert (code, err) == (0, "")
        assert out.startswith("digraph")

    @pytest.mark.parametrize("command", ["analyze", "place", "verify"])
    def test_help_states_the_limit(self, capsys, command):
        with pytest.raises(SystemExit):
            cli.main([command, "--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        assert (f"The numeric oracle takes at most {NUMERIC_STATE_LIMIT} states; "
                f"a larger system exits 2.") in help_text


class TestParserReuse:
    """One parser serves every ``main`` call in a process."""

    def test_forbid_does_not_leak_into_the_next_call(self, capsys):
        path = str(GOLDEN / "fix15_sensors.json")
        expected = {command: (GOLDEN / "fix15_sensors" / f"{command}.txt")
                    .read_text(encoding="utf-8")
                    for command in ("place", "place_forbid")}
        argv = ["place", path, "--seed", "42"]
        for _ in range(2):
            code, out, _ = run_cli(argv + ["--forbid", "12"], capsys)
            assert (code, out) == (0, expected["place_forbid"])
            code, out, _ = run_cli(argv, capsys)
            assert (code, out) == (0, expected["place"])
            assert json.loads(out)["forbidden"] == []

    def test_good_call_after_an_argparse_rejection(self, chain_path, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["analyze"])
        assert exc.value.code == 2
        assert "the following arguments are required: path" in capsys.readouterr().err
        code, out, err = run_cli(["analyze", chain_path], capsys)
        assert (code, err) == (0, "")
        assert json.loads(out)["observable"] is True

    def test_version_keeps_exiting_zero(self, chain_path, capsys):
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                cli.main(["--version"])
            assert exc.value.code == 0
            assert capsys.readouterr().out == f"obspart {obspart.__version__}\n"
            assert run_cli(["verify", chain_path], capsys)[0] == 0

    def test_parser_built_once_per_process(self, chain_path, fix15_path,
                                           capsys, monkeypatch):
        assert run_cli(["verify", chain_path], capsys)[0] == 0
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        for argv in (["analyze", fix15_path], ["place", fix15_path, "--forbid", "4"],
                     ["verify", chain_path], ["export-dot", chain_path]):
            assert run_cli(argv, capsys)[0] == 0
        with pytest.raises(SystemExit):
            cli.main(["place"])
        assert built == []
        assert cli.build_parser() is cli.build_parser()

    def test_parser_not_built_at_import(self):
        script = ("import obspart.cli\n"
                  "print(obspart.cli.build_parser.cache_info().currsize)\n")
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "0"


class TestConsoleScript:
    def test_installed_entry_point(self, chain_path):
        proc = subprocess.run(
            [sys.executable, "-m", "obspart.cli"],
            capture_output=True, text=True,
        )
        # module execution without arguments prints usage and exits 2
        assert proc.returncode == 2
        assert "usage:" in proc.stderr

    def test_subprocess_analyze(self, chain_path):
        # Run the declared `obspart` entry point the way the script that
        # setuptools generates for it does, so no install step is needed.
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with pyproject.open("rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["obspart"]
        module, _, func = target.partition(":")
        script = f"import sys; from {module} import {func}; sys.exit({func}())"
        proc = subprocess.run(
            [sys.executable, "-c", script, "analyze", chain_path],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["observable"] is True

    @pytest.mark.skipif(shutil.which("obspart") is None,
                        reason="obspart console script not installed")
    def test_installed_script_analyze(self, chain_path):
        proc = subprocess.run(
            ["obspart", "analyze", chain_path],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["observable"] is True


class TestImportFootprint:
    def test_analyze_imports_neither_scipy_nor_numba(self, chain_path):
        # Start-up time and peak memory are part of every CLI call; an eager
        # import of scipy or numba would at least double both.
        script = (
            "import contextlib, io, sys\n"
            "import obspart.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = obspart.cli.main(['analyze', sys.argv[1]])\n"
            "heavy = sorted(m for m in sys.modules\n"
            "               if m.split('.')[0] in ('scipy', 'numba'))\n"
            "print(code, heavy)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, chain_path],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "0 []"

    def test_place_and_export_dot_import_neither_scipy_nor_numba(self, chain_path):
        script = (
            "import contextlib, io, sys\n"
            "import obspart.cli\n"
            "codes = []\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    codes.append(obspart.cli.main(['place', sys.argv[1]]))\n"
            "    for mode in ('alpha', 'beta', 'scc'):\n"
            "        codes.append(obspart.cli.main(\n"
            "            ['export-dot', sys.argv[1], '--color-by', mode]))\n"
            "heavy = sorted(m for m in sys.modules\n"
            "               if m.split('.')[0] in ('scipy', 'numba'))\n"
            "print(codes, heavy)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, chain_path],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[0, 0, 0, 0] []"


class TestPublicNames:
    def test_every_exported_name_resolves(self):
        missing = [name for name in obspart.__all__ if not hasattr(obspart, name)]
        assert missing == []
