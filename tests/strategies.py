"""Hypothesis strategies shared by the property tests."""

from hypothesis import strategies as st

from obspart import (
    DegenerateStructureError,
    ParameterError,
    StructuredSystem,
    contractions,
    random_system,
)


@st.composite
def systems(draw, n_min=1, n_max=8, p_max=3, allow_h=True):
    n, p, a, h = draw(patterns(n_min, n_max, p_max, allow_h))
    return StructuredSystem(n=n, p=p, a_pattern=a, h_pattern=h)


@st.composite
def patterns(draw, n_min=1, n_max=8, p_max=3, allow_h=True):
    """(n, p, A, H), with A and H frozensets of 1-based pairs."""
    n = draw(st.integers(n_min, n_max))
    a = draw(
        st.frozensets(
            st.tuples(st.integers(1, n), st.integers(1, n)),
            max_size=min(3 * n, n * n),
        )
    )
    p = draw(st.integers(0, p_max)) if allow_h else 0
    h = frozenset()
    if p:
        h = draw(
            st.frozensets(
                st.tuples(st.integers(1, p), st.integers(1, n)),
                max_size=2 * p,
            )
        )
    return n, p, a, h


def random_partitionable_system(rng, n_lo=3, n_hi=10, density_lo=1.5,
                                density_hi=3.0, p_lo=0, p_hi=0, attempts=1000):
    """Like random_system, but resampled until every connected part of
    the Dulmage-Mendelsohn horizontal block is short by one node, i.e.
    every rank deficit is repairable one sensor at a time and the class
    machinery applies."""
    for _ in range(attempts):
        sys = random_system(rng, n_lo, n_hi, density_lo, density_hi, p_lo, p_hi)
        try:
            contractions(sys.without_measurements())
        except DegenerateStructureError:
            continue
        return sys
    raise ParameterError(
        f"no partitionable system found in {attempts} draws; "
        f"widen the parameter ranges"
    )


# Values that are no row or column index, each as the loader must name it.
BAD_VALUES = (True, False, 2.0, 1.0, "1", None, [1], -1, 0, 2**70)
BAD_ITEMS = ([1], [1, 1, 1], [], (1, 1), "ab", None, 3, [[1], [1]], {"1": 1})
BAD_PATTERNS = (None, 5, "a", {"1": 2}, ((1, 1),))
MALFORMATIONS = ("value", "past", "item", "repeat", "pattern", "n", "p", "names")


def _pairs(rows, n):
    return st.lists(st.tuples(st.integers(1, rows), st.integers(1, n)),
                    unique=True, max_size=6).map(lambda ps: [list(e) for e in ps])


def _malform(draw, doc, kind):
    """Make one thing in ``doc`` wrong: a value, an index one past its
    bound, an item, a repeat, a whole pattern, a size or the names."""
    if kind in ("n", "p"):
        doc[kind] = draw(st.sampled_from(
            [0, -1, True, 2.0, 2**70] if kind == "n" else [-1, False, "1"]))
        return
    if kind == "names":
        doc["names"] = [f"s{k}" for k in range(draw(st.integers(0, 9)))]
        return
    key = draw(st.sampled_from(["a", "h"]))
    items = doc[key]
    if kind == "pattern" or type(items) is not list:
        doc[key] = draw(st.sampled_from(BAD_PATTERNS))
        return
    at = draw(st.integers(0, len(items)))
    pairs = [e for e in items if type(e) is list and len(e) == 2]
    if kind == "item" or not pairs:
        items.insert(at, draw(st.sampled_from(BAD_ITEMS)))
    elif kind == "repeat":
        items.insert(at, list(draw(st.sampled_from(pairs))))
    else:
        pair, k = draw(st.sampled_from(pairs)), draw(st.integers(0, 1))
        if kind == "value":
            pair[k] = draw(st.sampled_from(BAD_VALUES))
        else:  # one past the last row or column, or zero
            bound = (doc["n"] if key == "a" else doc["p"], doc["n"])[k]
            pair[k] = draw(st.sampled_from([0, bound + 1 if type(bound) is int else 3]))


@st.composite
def system_documents(draw):
    """Parsed SystemFile documents: a valid one, then none, one or two
    malformations, so that precedence between them is exercised too."""
    n, p = draw(st.integers(1, 8)), draw(st.integers(0, 3))
    doc = {"n": n, "p": p, "a": draw(_pairs(n, n)), "h": draw(_pairs(p, n)) if p else []}
    for kind in draw(st.lists(st.sampled_from(MALFORMATIONS), max_size=2)):
        _malform(draw, doc, kind)
    return doc
