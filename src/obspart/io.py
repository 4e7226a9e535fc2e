"""File formats: system descriptions in and reports out.

The README's "Input formats" section describes the JSON system file and
the Matrix Market import.  Unknown keys and duplicate entries are
rejected: both usually mean a file was written by hand and went wrong.
Reports are JSON with a fixed key order and a schema version.
"""

import json

from .errors import MalformedInputError
from .structure import StructuredSystem, _plain_system

SCHEMA_VERSION = "obspart/1"

_REQUIRED_KEYS = ("n", "p", "a", "h")
_OPTIONAL_KEYS = ("names",)


def _entry_list(raw, key):
    if not isinstance(raw, list):
        raise MalformedInputError(f'"{key}" must be a list of [row, column] pairs')
    entries = []
    for item in raw:
        if not (isinstance(item, list) and len(item) == 2):
            raise MalformedInputError(
                f'"{key}" entry {item!r} is not a [row, column] pair'
            )
        entries.append((item[0], item[1]))
    return entries


def system_from_dict(doc):
    """Validate a parsed SystemFile document; returns (system, names)."""
    if not isinstance(doc, dict):
        raise MalformedInputError("system file must contain a JSON object")
    for key in doc:
        if key not in _REQUIRED_KEYS + _OPTIONAL_KEYS:
            raise MalformedInputError(f'unknown key "{key}" in system file')
    for key in _REQUIRED_KEYS:
        if key not in doc:
            raise MalformedInputError(f'system file is missing key "{key}"')
    for key in ("n", "p"):
        if not isinstance(doc[key], int) or isinstance(doc[key], bool):
            raise MalformedInputError(f'"{key}" must be an integer')
    sys = _plain_system(doc["n"], doc["p"], doc["a"], doc["h"], {list})
    if sys is None:
        sys = StructuredSystem(n=doc["n"], p=doc["p"],
                               a_pattern=_entry_list(doc["a"], "a"),
                               h_pattern=_entry_list(doc["h"], "h"))
    names = None
    if "names" in doc:
        names = doc["names"]
        if (
            not isinstance(names, list)
            or len(names) != sys.n
            or not all(isinstance(s, str) for s in names)
        ):
            raise MalformedInputError(
                f'"names" must be a list of {sys.n} strings, one per state'
            )
        names = tuple(names)
    return sys, names


def load_system(path):
    """Read a JSON SystemFile; returns (system, names-or-None)."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedInputError(
            f"invalid JSON: {exc.msg} (line {exc.lineno} column {exc.colno})"
        ) from exc
    return system_from_dict(doc)


def load_matrix_market(path):
    """Import a square coordinate-pattern Matrix Market file as a state
    pattern (no measurements)."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.readlines()
    if not lines or not lines[0].startswith("%%MatrixMarket"):
        raise MalformedInputError("not a Matrix Market file (missing banner)")
    banner = lines[0].split()
    if [w.lower() for w in banner[1:5]] != ["matrix", "coordinate", "pattern", "general"]:
        raise MalformedInputError(
            "only 'matrix coordinate pattern general' Matrix Market files "
            f"are supported, got banner {lines[0].strip()!r}"
        )
    body = [ln.strip() for ln in lines[1:] if ln.strip() and not ln.startswith("%")]
    if not body:
        raise MalformedInputError("Matrix Market file has no size line")
    try:  # a wrong field count is a ValueError too
        rows, cols, nnz = (int(v) for v in body[0].split())
    except ValueError:
        raise MalformedInputError(f"bad Matrix Market size line {body[0]!r}") from None
    if rows != cols:
        raise MalformedInputError(
            f"state pattern must be square, got {rows}x{cols}"
        )
    if len(body) - 1 != nnz:
        raise MalformedInputError(
            f"Matrix Market file promises {nnz} entries but has {len(body) - 1}"
        )
    entries = []
    for ln in body[1:]:
        parts = ln.split()
        if len(parts) < 2:
            raise MalformedInputError(f"bad Matrix Market entry line {ln!r}")
        try:
            entries.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise MalformedInputError(f"bad Matrix Market entry line {ln!r}") from None
    return StructuredSystem.from_entries(rows, 0, entries)


def _rank_dict(rank):
    """The "rank" block shared by analysis and verify reports."""
    return {
        "trials": rank.trials,
        "tol": rank.tol,
        "gramian_rank": rank.gramian_rank,
        "agreement": rank.agreement,
        "gramian_ranks": list(rank.gramian_ranks),
        "pbh_rank_deficient_eigenvalues": [
            [z.real, z.imag] for z in rank.pbh_rank_deficient_eigenvalues],
        "pbh_observable": list(rank.pbh_observable),
    }


def report_dict(sys, check, part, rank, seed, forbidden=(), names=None):
    """Assemble the versioned report document.  Key order is part of the
    format: insertion order below is what gets serialized."""
    doc = {
        "version": SCHEMA_VERSION,
        "n": sys.n,
        "p": sys.p,
        "observable": check.observable,
        "failed_condition": check.failed_condition,
        "s_rank": check.s_rank,
        "inaccessible": list(check.inaccessible),
        "alpha_classes": [list(c) for c in part.alpha_classes],
        "beta_classes": [list(c) for c in part.beta_classes],
        "labels": list(part.labels),
        "minimal_sets": [list(s) for s in part.minimal_sets],
        "sensor_count": part.sensor_count,
        "forbidden": sorted(forbidden),
        "rank": _rank_dict(rank),
        "seed": seed,
    }
    if names is not None:
        doc["names"] = list(names)
    return doc


def verify_dict(sys, check, rank, seed):
    """Report document for the structural-vs-numeric comparison."""
    numeric_observable = rank.gramian_rank == sys.n
    return {
        "version": SCHEMA_VERSION,
        "n": sys.n,
        "p": sys.p,
        "structural_observable": check.observable,
        "failed_condition": check.failed_condition,
        "s_rank": check.s_rank,
        "numeric_observable": numeric_observable,
        "verdicts_agree": check.observable == numeric_observable,
        "rank": _rank_dict(rank),
        "seed": seed,
    }


def render_report(doc):
    """Serialize a report document; fixed formatting, trailing newline."""
    return json.dumps(doc, indent=2, sort_keys=False) + "\n"
