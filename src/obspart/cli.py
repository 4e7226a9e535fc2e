"""Command-line front end: ``obspart {analyze,place,verify,export-dot}``.

Reports are byte-stable for a fixed (input, seed, flags) triple.  The
README's "Command line" section lists the commands and exit codes.
"""

import argparse
import functools
import math
import os
import sys as _sys

from . import __version__
from .dot import COLOR_MODES, export_dot
from .errors import (
    DegenerateStructureError,
    InfeasiblePlacementError,
    MalformedInputError,
    ObspartError,
    ParameterError,
    PreconditionError,
)
from .io import (
    load_matrix_market,
    load_system,
    render_report,
    report_dict,
    verify_dict,
)
from .numeric import (
    DEFAULT_SEED,
    DEFAULT_TOL,
    DEFAULT_TRIALS,
    NUMERIC_STATE_LIMIT,
    check_state_limit,
    rank_report,
)
from .partition import partition_report, theorem_check

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT = 2
EXIT_INFEASIBLE = 3
EXIT_DISAGREEMENT = 4


def _seed_of(args):
    """``--seed``, else ``OBSPART_SEED``, else the default seed."""
    if args.seed is not None:
        return args.seed
    raw = os.environ.get("OBSPART_SEED")
    if raw is None:
        return DEFAULT_SEED
    try:
        seed = int(raw)
    except ValueError:
        raise ParameterError(f"OBSPART_SEED must be an integer, got {raw!r}") from None
    if seed < 0:
        raise ParameterError(f"OBSPART_SEED must be non-negative, got {seed}")
    return seed


def _load(path):
    if path.endswith((".mtx", ".mm")):
        return load_matrix_market(path), None
    return load_system(path)


def _parse_forbid(values, n):
    states = set()
    for chunk in values:
        for piece in chunk.replace(",", " ").split():
            try:
                state = int(piece)
            except ValueError:
                raise ParameterError(
                    f"--forbid takes state numbers, got {piece!r}"
                ) from None
            if state < 1:
                raise ParameterError(f"--forbid takes positive states, got {state}")
            if state > n:
                raise ParameterError(f"--forbid state {state} out of range for n={n}")
            states.add(state)
    return states


def _write(text, out_path):
    if out_path is None:
        _sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _add_common(parser):
    parser.add_argument("path", help="system file (JSON; .mtx/.mm for Matrix Market)")
    parser.add_argument("--out", default=None, help="write output here instead of stdout")
    parser.add_argument("--seed", type=int, default=None,
                        help=f"numeric-oracle seed (default {DEFAULT_SEED}, "
                             f"or OBSPART_SEED)")
    parser.add_argument("--trials", type=int, default=DEFAULT_TRIALS,
                        help=f"realizations per numeric vote (default {DEFAULT_TRIALS})")
    parser.add_argument("--tol", type=float, default=DEFAULT_TOL,
                        help=f"relative singular-value threshold (default {DEFAULT_TOL})")
    parser.epilog = (f"The numeric oracle takes at most {NUMERIC_STATE_LIMIT} states; "
                     "a larger system exits 2.")


@functools.cache
def build_parser():
    """The CLI's argument parser, built on the first call and then kept.

    The parser is shared and must not be modified.  Reuse is safe because
    each ``parse_args`` fills a fresh namespace, ``--forbid``'s ``append``
    copies its default list, and ``analyze``'s ``forbid`` is a tuple.
    """
    parser = argparse.ArgumentParser(
        prog="obspart",
        description="Structural observability analysis of sparse LTI systems.",
    )
    parser.add_argument("--version", action="version", version=f"obspart {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser("analyze", help="classes, labels, placement, numeric rank")
    _add_common(p_an)
    p_an.add_argument("--check", action="store_true",
                      help="exit 1 when the system is not generically observable")
    p_an.set_defaults(handler=cmd_report, forbid=(), all_witnesses=False)

    p_pl = sub.add_parser("place", help="minimal sensor placement, with what-ifs")
    _add_common(p_pl)
    p_pl.add_argument("--forbid", action="append", default=[],
                      help="states that may not carry a sensor (repeatable, "
                           "comma separated)")
    p_pl.add_argument("--all-witnesses", action="store_true",
                      help="enumerate every minimal placement (exit 2 when "
                           "too many state subsets would need testing)")
    p_pl.set_defaults(handler=cmd_report, check=False)

    p_ve = sub.add_parser("verify", help="compare structural and numeric verdicts")
    _add_common(p_ve)
    p_ve.set_defaults(handler=cmd_verify)

    p_dot = sub.add_parser("export-dot", help="Graphviz digraph of the system")
    p_dot.add_argument("path", help="system file (JSON; .mtx/.mm for Matrix Market)")
    p_dot.add_argument("--out", default=None, help="write output here instead of stdout")
    p_dot.add_argument("--color-by", choices=COLOR_MODES, default="alpha",
                       help="which class family colors the states (default alpha)")
    p_dot.set_defaults(handler=cmd_export_dot)
    return parser


def _check_numeric_args(args):
    if args.seed is not None and args.seed < 0:
        raise ParameterError(f"--seed must be non-negative, got {args.seed}")
    if args.trials < 1:
        raise ParameterError(f"--trials must be at least 1, got {args.trials}")
    if not (math.isfinite(args.tol) and args.tol > 0):
        raise ParameterError(f"--tol must be positive, got {args.tol}")


def cmd_report(args):
    """The report of ``analyze`` and ``place``; ``analyze`` forbids no
    state and lists one witness, and ``place`` has no ``--check``."""
    _check_numeric_args(args)
    seed = _seed_of(args)
    system, names = _load(args.path)
    forbidden = _parse_forbid(args.forbid, system.n)
    check_state_limit(system)
    check = system.memo(theorem_check)
    part = partition_report(system, forbid=forbidden,
                            all_witnesses=args.all_witnesses)
    rank = rank_report(system, seed=seed, trials=args.trials, tol=args.tol)
    doc = report_dict(system, check, part, rank, seed,
                      forbidden=forbidden, names=names)
    _write(render_report(doc), args.out)
    if args.check and not check.observable:
        return EXIT_CHECK_FAILED
    return EXIT_OK


def cmd_verify(args):
    _check_numeric_args(args)
    seed = _seed_of(args)
    system, _ = _load(args.path)
    check_state_limit(system)
    check = system.memo(theorem_check)
    rank = rank_report(system, seed=seed, trials=args.trials, tol=args.tol)
    doc = verify_dict(system, check, rank, seed)
    _write(render_report(doc), args.out)
    if not doc["verdicts_agree"]:
        return EXIT_DISAGREEMENT
    return EXIT_OK


def cmd_export_dot(args):
    system, names = _load(args.path)
    _write(export_dot(system, color_by=args.color_by, names=names), args.out)
    return EXIT_OK


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (MalformedInputError, ParameterError, PreconditionError, OSError) as exc:
        print(f"obspart: error: {exc}", file=_sys.stderr)
        return EXIT_INPUT
    except (InfeasiblePlacementError, DegenerateStructureError) as exc:
        print(f"obspart: infeasible: {exc}", file=_sys.stderr)
        return EXIT_INFEASIBLE
    except UnicodeDecodeError as exc:
        print(f"obspart: error: {args.path} is not UTF-8 text: {exc}",
              file=_sys.stderr)
        return EXIT_INPUT
    except ObspartError as exc:
        # Inconsistency/numeric failures: report and use the input code —
        # these indicate something unrecoverable about this invocation.
        print(f"obspart: internal error: {exc}", file=_sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
