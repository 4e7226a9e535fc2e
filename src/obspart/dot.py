"""Graphviz export of the system digraph with class coloring.

States are ellipses, measurements are boxes.  Fills come from a fixed
palette in class order, so the same system always renders to the same
bytes.
"""

from .errors import ParameterError
from .partition import equivalence_classes, rank_classes
from .scc import decompose

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
        groups = sys.without_measurements().memo(decompose).components
    elif color_by == "alpha":
        groups = rank_classes(sys)
    else:
        groups = equivalence_classes(sys)[1]
    return {state: PALETTE[idx % len(PALETTE)]
            for idx, members in enumerate(groups) for state in members}


def export_dot(sys, color_by="alpha", names=None):
    """DOT text for the system digraph, states filled by rank class
    ("alpha"), access class ("beta") or strongly connected component ("scc")."""
    if color_by not in COLOR_MODES:
        raise ParameterError(
            f"color_by must be one of {', '.join(COLOR_MODES)}, got {color_by!r}"
        )
    if names is not None:
        try:
            names = tuple(names)
        except TypeError:
            raise ParameterError(
                f"names must be a sequence of strings, got {names!r}") from None
        if len(names) != sys.n:
            raise ParameterError(f"names must list all {sys.n} states")
        for state, name in enumerate(names, start=1):
            if not isinstance(name, str):
                raise ParameterError(
                    f"name of state {state} must be a string, got {name!r}")
    fills = _fills(sys, color_by)

    n = sys.n
    quoted = ([f'"x{i}"' for i in range(1, n + 1)]
              + [f'"y{k}"' for k in range(1, sys.p + 1)])
    lines = ["digraph system {"]
    lines.append("  rankdir=LR;")
    lines.append('  node [style=filled, fillcolor=white];')
    for i, node in enumerate(quoted[:n], start=1):
        attrs = [f'fillcolor={fills[i]}'] if i in fills else []
        if names is not None:
            label = names[i - 1].replace("\\", "\\\\").replace('"', '\\"')
            attrs.append(f'label="{label}"')
        lines.append(f'  {node} [{", ".join(attrs)}];' if attrs else f'  {node};')
    lines.extend(f'  {node} [shape=box];' for node in quoted[n:])
    # Sorting the lines sorts the arcs by (source, target) label: each
    # label ends in a quote, which sorts before any label character.
    lines.extend(sorted(
        f'  {quoted[b]} -> {quoted[e]};'
        for b, row in enumerate(sys.rows) for e in row
    ))
    lines.append("}\n")
    return "\n".join(lines)
