"""Layer sweep of obspart's public API, written as one JSON file.

Structural rows: for each n in ``--sizes``, the chain system
``perfbench/gen.chain_system(default_rng(n), n)`` is generated in
process, then each repetition times, on a system built afresh:

- ``StructuredSystem.from_entries``;
- ``theorem_check``;
- the first and the second ``partition_report`` (the second reads the
  classes the first one kept);
- ``export_dot``;
- the graph kernels ``hopcroft_karp``, ``tarjan_scc`` and ``search``
  over the whole repetition, wrapped where the modules import them, with
  their call counts.

Each structural row also records, from an untimed build of its own
under ``tracemalloc``, the bytes a freshly built ``from_entries`` system
still holds and the peak bytes of that build.

Oracle rows: for each n in ``--oracle-sizes``, ``rank_report`` on the
same kind of chain, with every trial's rank next to the exact generic
rank in ``EXACT_RANKS``.

Each value is the median, min and max over ``REPEATS`` repetitions,
in seconds and in units of ``perfbench/child.speed_probe`` (the seconds
divided by the median of the probes taken just before and just after
the repetition).  BLAS runs on one thread, as in the benchmark's child
process.  The file also records nproc, the Python and numpy versions and
the git hash of the checkout.  ``perfbench/`` is imported,
never written.  Run from the repository root:

    python tools/layer_sweep.py --out BENCH_<k>.json
    python tools/layer_sweep.py --sizes 1000 --oracle-sizes --out sweep.json
"""

import argparse
import gc
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # read when numpy loads its BLAS

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import gen  # noqa: E402
from child import install_tracing, speed_probe  # noqa: E402

from obspart import (  # noqa: E402
    StructuredSystem,
    export_dot,
    partition_report,
    rank_report,
    theorem_check,
)

KERNELS = ("_kernels.hopcroft_karp", "_kernels.tarjan_scc", "_kernels.search")
REPEATS = 5

# Exact generic ranks of the oracle chains, from
# tests/oracles.exact_krylov_rank (exact arithmetic over GF(p)).
EXACT_RANKS = {400: 177, 700: 440, 1000: 615}


def _chain(n):
    """(n, p, A entries, H entries) of the seed-n chain system."""
    n, a, h = gen.chain_system(np.random.default_rng(n), n)
    return n, len(h), a, h


def _probe():
    return statistics.median(speed_probe() for _ in range(3))


def _spread(values):
    return {"median": statistics.median(values), "min": min(values), "max": max(values)}


def _summary(seconds, probes):
    """Seconds and probe units of one value over the repetitions."""
    return {"seconds": _spread(seconds),
            "probe_units": _spread([s / p for s, p in zip(seconds, probes)])}


def _repeat(run):
    """Call ``run()``, which returns {name: seconds}, ``REPEATS`` times,
    after a collection and between speed probes; returns {name: summary}."""
    samples, probes = {}, []
    for _ in range(REPEATS):
        gc.collect()
        before = _probe()
        times = run()
        probes.append(statistics.median([before, _probe()]))
        for name, seconds in times.items():
            samples.setdefault(name, []).append(seconds)
    return {name: _summary(seconds, probes) for name, seconds in samples.items()}


def _from_entries_memory(n, p, a, h):
    """Bytes held by a fresh ``from_entries`` system, and the build's peak."""
    gc.collect()
    tracemalloc.start()
    system = StructuredSystem.from_entries(n, p, a, h)
    held, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    del system  # alive until measured
    return {"held_bytes": held, "peak_bytes": peak}


def structural_row(n, tracer):
    n, p, a, h = _chain(n)
    memory = _from_entries_memory(n, p, a, h)
    calls = {}

    def run():
        for key in KERNELS:
            tracer.self_s[key] = 0.0
            tracer.calls[key] = 0
        t0 = time.perf_counter()
        system = StructuredSystem.from_entries(n, p, a, h)
        times = {"from_entries": time.perf_counter() - t0}
        for name, step in (("theorem_check", theorem_check),
                           ("partition_report_first", partition_report),
                           ("partition_report_second", partition_report),
                           ("export_dot", export_dot)):
            t0 = time.perf_counter()
            step(system)
            times[name] = time.perf_counter() - t0
        for key in KERNELS:
            times[key.lstrip("_")] = tracer.self_s[key]
            calls[key.lstrip("_")] = tracer.calls[key]
        return times

    layers = _repeat(run)
    for name, count in calls.items():
        layers[name]["calls"] = count
    return {"n": n, "p": p, "a_entries": len(a), "h_entries": len(h),
            "from_entries_memory": memory, "layers": layers}


def oracle_row(n, trials=5):
    n, p, a, h = _chain(n)
    ranks = []

    def run():
        system = StructuredSystem.from_entries(n, p, a, h)
        t0 = time.perf_counter()
        report = rank_report(system, trials=trials)
        seconds = time.perf_counter() - t0
        ranks.append(report.gramian_ranks)
        return {"rank_report": seconds}

    timing = _repeat(run)["rank_report"]
    if len(set(ranks)) != 1:
        raise RuntimeError(f"rank_report is not deterministic at n={n}: {ranks}")
    return {"n": n, "trials": trials, "ranks": list(ranks[0]),
            "exact_rank": EXACT_RANKS.get(n), "rank_report": timing}


def _git(*args):
    try:
        out = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                             text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument("--sizes", type=int, nargs="*",
                        default=[1000, 10000, 30000, 100000],
                        help="state counts of the structural rows")
    parser.add_argument("--oracle-sizes", type=int, nargs="*", default=[400, 700, 1000],
                        help="state counts of the oracle rows; none to skip them")
    args = parser.parse_args(argv)

    tracer, absent = install_tracing(KERNELS, {})
    if absent:
        raise SystemExit(f"kernels not found: {', '.join(absent)}")
    status = _git("status", "--porcelain", "--untracked-files=no", "--", "src", "tools")
    doc = {
        "git": _git("rev-parse", "HEAD"),
        "dirty": None if status is None else bool(status),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "repeats": REPEATS,
        "structural": [structural_row(n, tracer) for n in args.sizes],
        "oracle": [oracle_row(n) for n in args.oracle_sizes],
    }
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
