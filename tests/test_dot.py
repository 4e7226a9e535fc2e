import re

import numpy as np
import pytest

from obspart import ParameterError, export_dot, partition_report, rank_report
from obspart import _kernels, matching, numeric, scc
from conftest import FIX15_A, S

_LINE = re.compile(
    r"""^(
        digraph\ system\ \{ |
        \} |
        \ \ rankdir=LR; |
        \ \ node\ \[style=filled,\ fillcolor=white\]; |
        \ \ "[xy]\d+"(\ \[[^\]]*\])?; |
        \ \ "[xy]\d+"\ ->\ "[xy]\d+";
    )$""",
    re.VERBOSE,
)


def _check_grammar(text):
    assert text.endswith("\n")
    for line in text.rstrip("\n").split("\n"):
        assert _LINE.match(line), f"unexpected DOT line: {line!r}"


def _fill_of(text, node):
    m = re.search(rf'"{node}" \[fillcolor=(\w+)', text)
    return m.group(1) if m else None


class TestExportDot:
    def test_chain_shape(self, chain3):
        text = export_dot(chain3)
        _check_grammar(text)
        assert text.count('"x') >= 3
        assert '"y1" [shape=box];' in text
        assert '"x1" -> "x2";' in text
        assert '"x2" -> "x3";' in text
        assert '"x3" -> "y1";' in text
        assert text.count("->") == 3

    def test_alpha_coloring_uses_one_color_per_class(self, fix15):
        text = export_dot(fix15, color_by="alpha")
        _check_grammar(text)
        # classes (2,7,9), (4,15), (10,12) in order get the first three
        # palette colors; states in no class stay unpainted
        assert _fill_of(text, "x2") == _fill_of(text, "x7") == _fill_of(text, "x9") == "orange"
        assert _fill_of(text, "x4") == _fill_of(text, "x15") == "purple"
        assert _fill_of(text, "x10") == _fill_of(text, "x12") == "green"
        assert _fill_of(text, "x1") is None

    def test_beta_coloring(self, fix15):
        text = export_dot(fix15, color_by="beta")
        assert _fill_of(text, "x9") == "orange"
        assert (
            _fill_of(text, "x11") == _fill_of(text, "x13") == "purple"
        )
        assert _fill_of(text, "x4") is None

    def test_scc_coloring_paints_every_state(self, cycle3):
        text = export_dot(cycle3, color_by="scc")
        _check_grammar(text)
        fills = {_fill_of(text, f"x{i}") for i in (1, 2, 3)}
        assert fills == {"orange"}  # one component, one color

    def test_empty_pattern_is_valid(self):
        text = export_dot(S(2, 0, []), color_by="scc")
        _check_grammar(text)
        assert "->" not in text

    def test_bad_mode(self, chain3):
        with pytest.raises(ParameterError, match="color_by must be one of"):
            export_dot(chain3, color_by="rainbow")

    def test_names_label_states(self, chain3):
        text = export_dot(chain3, names=["in", 'say "hi"', "out\\path"])
        assert 'label="in"' in text
        assert 'label="say \\"hi\\""' in text
        assert 'label="out\\\\path"' in text

    def test_names_length_checked(self, chain3):
        with pytest.raises(ParameterError, match="names must list all 3"):
            export_dot(chain3, names=["a", "b"])

    def test_names_must_be_iterable(self, chain3):
        with pytest.raises(ParameterError) as exc:
            export_dot(chain3, names=5)
        assert str(exc.value) == "names must be a sequence of strings, got 5"

    @pytest.mark.parametrize("names, bad", [
        ([1, 2, 3], "state 1 must be a string, got 1"),
        (["a", None, "c"], "state 2 must be a string, got None"),
        (["a", "b", b"c"], "state 3 must be a string, got b'c'"),
    ])
    def test_names_must_be_strings(self, chain3, names, bad):
        with pytest.raises(ParameterError, match=rf"^name of {re.escape(bad)}$"):
            export_dot(chain3, names=names)

    def test_deterministic(self, fix15):
        assert export_dot(fix15) == export_dot(fix15)

    def test_arcs_in_label_pair_order(self):
        # Arcs sorted as (source, target) label pairs, as in the reference
        # below; with 12 states and 11 rows, "x10" sorts before "x2" and
        # "y10" before "y2", and every "x1" arc before every "x10" arc.
        rng = np.random.default_rng(3)
        n, p = 12, 11
        a = {(int(i), int(j)) for i, j in rng.integers(1, n + 1, (60, 2))}
        a |= {(10, 1), (2, 1), (1, 10), (1, 2)}
        h = {(int(i), int(j)) for i, j in zip(rng.integers(1, p + 1, 30),
                                              rng.integers(1, n + 1, 30))}
        h |= {(k, 1) for k in range(1, p + 1)}
        sys = S(n, p, sorted(a), sorted(h))
        reference = [
            f'  "{src}" -> "{dst}";'
            for src, dst in sorted(
                [(f"x{j}", f"x{i}") for i, j in a]
                + [(f"x{j}", f"y{i}") for i, j in h]
            )
        ]
        arcs = [line for line in export_dot(sys, color_by="scc").split("\n")
                if "->" in line]
        assert arcs == reference
        for first, second in [('"x1" -> "x10"', '"x1" -> "x2"'),
                              ('"x1" -> "y10"', '"x1" -> "y2"'),
                              ('"x1" -> "y2"', '"x10" -> "x1"')]:
            assert arcs.index(f"  {first};") < arcs.index(f"  {second};")


class TestClassBudget:
    def test_one_tarjan_pass_per_bare_system(self, count_calls):
        # 33 two-cycles in a chain, seen at x1: unobservable, and large
        # enough for the PBH spectrum to split along the components.
        a = [(2 * k - 1, 2 * k) for k in range(1, 34)] + [
            (2 * k, 2 * k - 1) for k in range(1, 34)] + [
            (2 * k + 1, 2 * k) for k in range(1, 33)]
        sys = S(66, 1, a, [(1, 1)])
        passes = count_calls(_kernels.tarjan_scc)
        partition_report(sys)
        report = rank_report(sys)
        export_dot(sys, color_by="scc")
        export_dot(sys.with_sensor_rows([5]), color_by="beta")
        assert sys.n >= numeric._COMPONENT_SPECTRUM_STATES
        assert report.gramian_rank == 2
        assert len(report.pbh_rank_deficient_eigenvalues) == 64
        assert len(passes) == 1

    def test_alpha_coloring_computes_only_the_rank_classes(self, count_calls):
        sys = S(15, 2, FIX15_A, [(1, 9), (2, 12)])
        n_contractions = count_calls(matching.contractions)
        n_decompose = count_calls(scc.decompose)
        export_dot(sys, color_by="alpha")
        assert (len(n_contractions), len(n_decompose)) == (1, 0)
        partition_report(sys)
        assert (len(n_contractions), len(n_decompose)) == (1, 1)
