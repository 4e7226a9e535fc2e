"""Graphviz export of the system digraph with class coloring.

States are ellipses, measurements are boxes.  ``color_by`` picks which
family paints the state fills: rank classes ("alpha"), access classes
("beta"), or plain strongly connected components ("scc").  Colors come
from a fixed palette in class order, so the same system always renders
to the same bytes.
"""

from .errors import ParameterError
from .partition import equivalence_classes, rank_classes
from .scc import decompose
from .structure import build_digraph

PALETTE = (
    "orange",
    "purple",
    "green",
    "cyan",
    "gold",
    "pink",
    "steelblue",
    "salmon",
    "yellowgreen",
    "orchid",
)

COLOR_MODES = ("alpha", "beta", "scc")


def _fills(sys, color_by):
    if color_by == "scc":
        groups = decompose(build_digraph(sys)).components
    elif color_by == "alpha":
        groups = rank_classes(sys)
    else:
        groups = equivalence_classes(sys)[1]
    fills = {}
    for idx, members in enumerate(groups):
        color = PALETTE[idx % len(PALETTE)]
        for state in members:
            fills[state] = color
    return fills


def export_dot(sys, color_by="alpha", names=None):
    """DOT text for the system digraph; deterministic for fixed inputs."""
    if color_by not in COLOR_MODES:
        raise ParameterError(
            f"color_by must be one of {', '.join(COLOR_MODES)}, got {color_by!r}"
        )
    if names is not None:
        if len(names) != sys.n:
            raise ParameterError(f"names must list all {sys.n} states")
        for state, name in enumerate(names, start=1):
            if not isinstance(name, str):
                raise ParameterError(
                    f"name of state {state} must be a string, got {name!r}")
    fills = _fills(sys, color_by)

    lines = ["digraph system {"]
    lines.append("  rankdir=LR;")
    lines.append('  node [style=filled, fillcolor=white];')
    for i in range(1, sys.n + 1):
        attrs = [f'fillcolor={fills[i]}'] if i in fills else []
        if names is not None:
            label = names[i - 1].replace("\\", "\\\\").replace('"', '\\"')
            attrs.append(f'label="{label}"')
        suffix = f" [{', '.join(attrs)}]" if attrs else ""
        lines.append(f'  "x{i}"{suffix};')
    for i in range(1, sys.p + 1):
        lines.append(f'  "y{i}" [shape=box];')
    # Sorting the lines sorts the arcs by (source, target) label: each
    # label ends in a quote, which sorts before any label character.
    lines.extend(sorted(
        f'  "x{b}" -> "x{e + 1}";' if e < sys.n else f'  "x{b}" -> "y{e - sys.n + 1}";'
        for b, row in enumerate(build_digraph(sys).rows, start=1) for e in row
    ))
    lines.append("}")
    return "\n".join(lines) + "\n"
