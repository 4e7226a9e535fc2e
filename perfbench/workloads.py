"""The three workloads: inputs, the calls made on them, and output checks.

Each builder draws its systems from the run's seed, writes them as
obspart system files, computes every reference verdict (all before any
call is timed) and returns the call list with one checker per call.  A
checker maps the call's recorded output to a Counter of error names.
"""

import hashlib
import json
import re
from collections import Counter

import gen
import ref

# Errors from the numeric oracle.  Its verdicts hold per random
# realization, not exactly, and at n of about 130 it already reports ranks
# above the generic rank, so these count as failed calls without marking
# the run incorrect.  Every other error does both.
NUMERIC_ERRORS = ("numeric.rank_errors", "numeric.pbh_errors")

ERRORS = (
    "io.load_errors",
    "matching.s_rank_errors",
    "matching.class_errors",
    "scc.access_errors",
    "scc.class_errors",
    "partition.placement_errors",
    "partition.label_errors",
    *NUMERIC_ERRORS,
    "dot.edge_errors",
    "cli.unexpected_exit",
)


class Workload:
    """Calls for the child process plus what to check each output against."""

    def __init__(self, work_dir, min_passes):
        self.work_dir = work_dir
        # Passes per run at least: the best of several is steadier.
        self.min_passes = min_passes
        self.calls = []
        self.checks = []
        self._inputs = hashlib.sha256()
        self._files = 0

    def write_system(self, n, a, h):
        doc = {"n": n, "p": len(h), "a": [list(e) for e in a],
               "h": [list(e) for e in h]}
        data = json.dumps(doc).encode()
        self._inputs.update(data)
        path = self.work_dir / f"sys{self._files:04d}.json"
        self._files += 1
        path.write_bytes(data)
        return str(path)

    def add(self, call, check):
        self.calls.append(call)
        self.checks.append(check)

    def input_digest(self):
        return self._inputs.hexdigest()


# --------------------------------------------------------------------------
# checks shared by the workloads

def _verdict(errs, r, observable, failed_condition, s_rank, inaccessible=None):
    """The theorem check; ``inaccessible`` is None where a report omits it."""
    if s_rank != r.s_rank:
        errs["matching.s_rank_errors"] += 1
    if inaccessible is not None and tuple(inaccessible) != r.inaccessible:
        errs["scc.access_errors"] += 1
    expected = ("accessibility" if r.inaccessible
                else "matching" if r.s_rank < r.n else "")
    if observable != r.observable or failed_condition != expected:
        errs["scc.access_errors" if r.inaccessible else "matching.s_rank_errors"] += 1


def _partition(errs, doc, r, a, h, forbidden=(), all_witnesses=False):
    """Classes, placement and row labels of a partition report."""
    forbidden = set(forbidden)
    alpha = ref.without(r.alpha, forbidden)
    beta = ref.without(r.beta, forbidden)
    if tuple(map(tuple, doc["alpha_classes"])) != alpha:
        errs["matching.class_errors"] += 1
    if tuple(map(tuple, doc["beta_classes"])) != beta:
        errs["scc.class_errors"] += 1
    count = ref.placement_count(alpha, beta)
    sets = [tuple(s) for s in doc["minimal_sets"]]
    bad = doc["sensor_count"] != count
    if all_witnesses:
        bad |= sorted(sets) != ref.all_hitting_sets(alpha, beta, count)
    else:
        bad |= len(sets) != 1
    for s in sets:
        bad |= (len(s) != count or bool(forbidden.intersection(s))
                or not ref.sensors_observe(r.n, a, s))
    if bad:
        errs["partition.placement_errors"] += 1
    if list(doc["labels"]) != ref.row_labels(len(h), h, r.alpha, r.beta):
        errs["partition.label_errors"] += 1


def _numeric(errs, rank, r):
    """Each trial's rank against the exact generic rank; PBH per trial."""
    accessible = r.n - len(r.inaccessible)
    errs["numeric.rank_errors"] += sum(
        k != r.obs_rank or k > accessible for k in rank["gramian_ranks"])
    errs["numeric.pbh_errors"] += sum(
        v != r.observable for v in rank["pbh_observable"])


def _dot(errs, text, a, h):
    edges = sorted(re.findall(r'^  "(\w+)" -> "(\w+)";$', text, re.M))
    want = sorted([(f"x{j}", f"x{i}") for i, j in a]
                  + [(f"x{j}", f"y{k}") for k, j in h])
    if edges != want:
        errs["dot.edge_errors"] += 1


def _cli(expect, inspect):
    """Checker for a CLI call: exit code first, then the report."""
    def check(record):
        errs = Counter()
        code = record["code"]
        if code == 4 and expect == 0:
            # verify's exit 4 is a numeric verdict that disagrees with the
            # structural one; the rank checks below account for it.
            inspect(errs, record["stdout"])
            if not any(errs[k] for k in NUMERIC_ERRORS):
                errs["cli.unexpected_exit"] += 1
        elif code != expect:
            errs["cli.unexpected_exit"] += 1
        elif code == 0:
            inspect(errs, record["stdout"])
        return errs
    return check


def _api(inspect):
    def check(record):
        errs = Counter()
        if record["code"] != 0:
            errs["cli.unexpected_exit"] += 1
        else:
            inspect(errs, json.loads(record["stdout"]))
        return errs
    return check


def _report_check(r, a, h, forbidden=(), all_witnesses=False):
    def inspect(errs, text):
        doc = json.loads(text)
        _verdict(errs, r, doc["observable"], doc["failed_condition"],
                 doc["s_rank"], doc["inaccessible"])
        _partition(errs, doc, r, a, h, forbidden, all_witnesses)
        if doc["forbidden"] != sorted(forbidden):
            errs["partition.placement_errors"] += 1
        _numeric(errs, doc["rank"], r)
    return inspect


def _verify_check(r):
    def inspect(errs, text):
        doc = json.loads(text)
        _verdict(errs, r, doc["structural_observable"], doc["failed_condition"],
                 doc["s_rank"])
        _numeric(errs, doc["rank"], r)
    return inspect


def _dot_check(a, h):
    return lambda errs, text: _dot(errs, text, a, h)


# --------------------------------------------------------------------------
# workloads

def structural_large(rng, work_dir, systems=2, size=3000, forbid=20):
    """Chains of n states: load, theorem check, partition report plain and
    with forbidden states, and DOT export.  No numerics.

    Three passes of 2 chains of 3000 states fit the time that two passes
    of 4000 would take, and the best of three is the steadier figure.
    """
    wl = Workload(work_dir, min_passes=3)
    for idx in range(systems):
        n, a, h = gen.chain_system(rng, size)
        path = wl.write_system(n, a, h)
        r = ref.reference(n, a, h)
        # Forbid states whose every class keeps another member, so the
        # report stays feasible.
        forbidden = set()
        for s in rng.permutation(sorted({s for c in r.alpha + r.beta for s in c})):
            trial = forbidden | {int(s)}
            if (ref.without(r.alpha, trial) is not None
                    and ref.without(r.beta, trial) is not None):
                forbidden = trial
            if len(forbidden) == forbid:
                break

        def load_check(errs, doc, n=n, a=a, h=h):
            got = (doc["n"], doc["p"], sorted(map(tuple, doc["a"])),
                   sorted(map(tuple, doc["h"])))
            if got != (n, len(h), sorted(a), sorted(h)):
                errs["io.load_errors"] += 1

        def check_check(errs, doc, r=r):
            _verdict(errs, r, doc["observable"], doc["failed_condition"],
                     doc["s_rank"], doc["inaccessible"])

        def report_check(forbidden, r=r, a=a, h=h):
            return lambda errs, doc: _partition(errs, doc, r, a, h, forbidden)

        wl.add({"kind": "load", "path": path, "system": idx}, _api(load_check))
        wl.add({"kind": "theorem_check", "system": idx}, _api(check_check))
        wl.add({"kind": "partition_report", "system": idx, "forbid": []},
               _api(report_check(())))
        wl.add({"kind": "partition_report", "system": idx,
                "forbid": sorted(forbidden)}, _api(report_check(forbidden)))
        wl.add({"kind": "cli", "argv": ["export-dot", path]},
               _cli(0, _dot_check(a, h)))
    return wl


def oracle_mid(rng, work_dir, systems=3, size=130, rank_band=(90, 110)):
    """Unobservable chains through ``analyze``, then the same pattern with
    a minimal placement added as sensors through ``verify``.

    The time of ``analyze`` grows with the observable rank, where its
    Krylov loop stops, so chains are drawn until that rank lies in
    ``rank_band``: otherwise the rank alone moves a run's time by 15%.
    """
    wl = Workload(work_dir, min_passes=3)
    for _ in range(systems):
        while True:
            n, a, h = gen.chain_system(rng, size)
            r = ref.reference(n, a, h, numeric_seed=int(rng.integers(2**32)))
            if rank_band[0] <= r.obs_rank <= rank_band[1]:
                break
        witness = ref.placement_witness(r.alpha, r.beta)
        placed = h + [(len(h) + k + 1, s) for k, s in enumerate(witness)]
        r_placed = ref.reference(n, a, placed, numeric_seed=int(rng.integers(2**32)))
        wl.add({"kind": "cli", "argv": ["analyze", wl.write_system(n, a, h)]},
               _cli(0, _report_check(r, a, h)))
        wl.add({"kind": "cli", "argv": ["verify", wl.write_system(n, a, placed)]},
               _cli(0, _verify_check(r_placed)))
    return wl


def small_batch(rng, work_dir, systems=200):
    """Small in-domain systems through every CLI command.

    Sizes cycle through n = 3..12, 0..3 sensors and densities 1.5..3
    rather than being drawn, and every fourth ``place --forbid`` empties a
    one-state class (exit 3, no numerics), so the mix of cheap and dear
    calls is the same for every seed and only the patterns vary.
    """
    wl = Workload(work_dir, min_passes=2)
    for idx in range(systems):
        density = 1.5 + 0.5 * (idx // 10 % 4)
        n, a, h = gen.small_system(rng, 3 + idx % 10, idx % 4, density)
        path = wl.write_system(n, a, h)
        r = ref.reference(n, a, h, numeric_seed=int(rng.integers(2**32)))
        lone = sorted({c[0] for c in r.alpha + r.beta if len(c) == 1})
        shared = [s for s in range(1, n + 1) if s not in lone]
        pool = lone if (idx % 4 == 0 and lone) or not shared else shared
        k = int(rng.choice(pool))
        feasible = k not in lone
        wl.add({"kind": "cli", "argv": ["analyze", path]},
               _cli(0, _report_check(r, a, h)))
        wl.add({"kind": "cli", "argv": ["place", path, "--all-witnesses"]},
               _cli(0, _report_check(r, a, h, all_witnesses=True)))
        wl.add({"kind": "cli", "argv": ["place", path, "--forbid", str(k)]},
               _cli(0 if feasible else 3, _report_check(r, a, h, forbidden={k})))
        wl.add({"kind": "cli", "argv": ["verify", path]}, _cli(0, _verify_check(r)))
        wl.add({"kind": "cli", "argv": ["export-dot", path]},
               _cli(0, _dot_check(a, h)))
    return wl


BUILDERS = {
    "structural_large": structural_large,
    "oracle_mid": oracle_mid,
    "small_batch": small_batch,
}
