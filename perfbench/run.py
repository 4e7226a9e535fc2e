#!/usr/bin/env python3
"""obspart benchmark: three seeded workloads, timed end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S]

Run from the repository root.  Inputs are generated here from ``--seed``
with numpy and scipy only, and every output is checked against
references that share no code with obspart.  The calls themselves run in
a child process that imports obspart from ``src/`` with BLAS pinned to
one thread.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
wraps obspart's public functions from outside and prints per-layer self
time, call counts and error counts.  The last stdout line is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

Times are speed-normalized seconds.  On a shared machine the same call
runs up to 40% slower from one second to the next, so the child times a
fixed probe between calls and each call's time is scaled by
``PROBE_REF_S`` over the probes around it: the seconds it would take
where the probe takes ``PROBE_REF_S`` (its time on a quiet core of the
machine the bounds were set on).  Each call's time is then the best of
its passes.  The raw wall time is printed on a comment line.

``--all`` runs every workload in both modes, prints a table, writes the
per-layer numbers to ``.bench_out/per_layer.json`` and rewrites
``BENCHMARK.json`` from the definitions below.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

RUN_SECONDS = 15
BLAS_THREADS = 1
SETUP_SPAWNS = 7
PROBE_REF_S = 0.012
CHILD_TIMEOUT_S = 150

WORKLOADS = {
    "structural_large": "2 chain systems of n=3000 through load, theorem check, "
                        "partition reports and DOT export: the quadratic "
                        "structural layers, no numerics",
    "oracle_mid": "3 unobservable chains of n=130 (rank 90-110) via analyze, then "
                  "verify with a placement added; rank_report dominates and ranks "
                  "are already overcounted (numeric.rank_errors > 0 at the seed)",
    "small_batch": "200 in-domain systems of n 3-12 through every CLI command: "
                   "per-call constant costs dominate",
}

END_TO_END = (
    # name, unit, better, bound
    ("wall_s", "s", "lower", 0.2),
    ("call_p50_s", "s", "lower", 0.2),
    ("call_p90_s", "s", "lower", 0.2),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

SPANS = (
    "io.load_system", "io.render_report",
    "structure.build_digraph", "structure.build_bipartite",
    "structure.reverse_reachable",
    "matching.maximum_matching", "matching.build_auxiliary",
    "matching.contractions",
    "scc.decompose", "scc.accessibility_check",
    "partition.theorem_check", "partition.equivalence_classes",
    "partition.minimal_placement", "partition.classify_measurements",
    "numeric.realize", "numeric.gramian_rank", "numeric.pbh_check",
    "dot.export_dot",
    "_kernels.hopcroft_karp", "_kernels.tarjan_scc", "_kernels.reachable",
    "_kernels.csr_from_edges",
)
COUNTERS = {"numeric.svd_calls": "svd", "numeric.eigvals_calls": "eigvals"}

# Metric names must start with a letter or digit: "_kernels.x" -> "kernels.x".
PER_LAYER = (
    [(f"{key.lstrip('_')}_s", "s") for key in SPANS]
    + [(f"{key.lstrip('_')}_calls", "count") for key in SPANS]
    + [(key, "count") for key in COUNTERS]
    + [("cli.unattributed_s", "s"), ("trace.overhead_s", "s")]
    + [(key, "count") for key in workloads.ERRORS]
    + [("cli.fail_share", "1")]
)

TINY_SYSTEM = '{"n": 3, "p": 1, "a": [[2, 1], [3, 2]], "h": [[1, 3]]}'
SETUP_CODE = """\
import contextlib, io, sys, time
t0 = time.perf_counter()
import obspart.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = obspart.cli.main(["analyze", sys.argv[1]])
elapsed = time.perf_counter() - t0
sys.path.insert(0, sys.argv[2])
from child import speed_probe
print(elapsed if code == 0 else -1, sorted(speed_probe() for _ in range(3))[1])
"""


def manifest():
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": k, "why": v} for k, v in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": x}
                       for n, u, b, x in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": "lower"}
                      for n, u in PER_LAYER],
    }


def child_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("OBSPART_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def measure_setup(work_dir, env):
    """Median over fresh interpreters of ``import obspart.cli`` plus one
    analyze of a 3-state system, each scaled by a probe run right after
    it.  The first spawn only warms the bytecode cache."""
    tiny = work_dir / "tiny.json"
    tiny.write_text(TINY_SYSTEM)
    samples = []
    for _ in range(SETUP_SPAWNS + 1):
        out = subprocess.run([sys.executable, "-c", SETUP_CODE, str(tiny), str(HERE)],
                             env=env, cwd=ROOT, capture_output=True, text=True,
                             timeout=60, check=True)
        elapsed, probe = map(float, out.stdout.split())
        if elapsed < 0:
            raise RuntimeError("setup analyze of the 3-state system failed")
        samples.append(elapsed * PROBE_REF_S / probe)
    return statistics.median(samples[1:])


def run_child(plan, work_dir, env):
    plan_path = work_dir / "plan.json"
    result_path = work_dir / "result.json"
    plan_path.write_text(json.dumps(plan))
    subprocess.run([sys.executable, str(HERE / "child.py"), str(plan_path),
                    str(result_path)], env=env, cwd=ROOT, check=True,
                   timeout=CHILD_TIMEOUT_S)
    return json.loads(result_path.read_text())


def normalized(p):
    """A pass's call times scaled by the speed probes taken around each call."""
    probes = p["probes"]
    out = []
    j = 0
    for k, t in enumerate(p["times"]):
        while probes[j + 1][0] <= k:
            j += 1
        out.append(t * PROBE_REF_S * 2 / (probes[j][1] + probes[j + 1][1]))
    return out


def _p90(values):
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def run_workload(name, seed, seconds, trace):
    """One run; returns (result line dict, info lines)."""
    work_dir = ROOT / ".bench_work" / f"{name}-{seed}-{os.getpid()}"
    work_dir.mkdir(parents=True)
    try:
        env = child_env()
        wl = workloads.BUILDERS[name](np.random.default_rng(seed), work_dir)
        setup_s = measure_setup(work_dir, env)
        result = run_child({"src": str(ROOT / "src"), "calls": wl.calls,
                            "seconds": seconds, "min_passes": wl.min_passes,
                            "trace": bool(trace),
                            "spans": SPANS, "counters": COUNTERS}, work_dir, env)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    passes = result["passes"]
    first = passes[0]["digests"]
    errors = Counter()
    failed_call = []
    for check, record in zip(wl.checks, result["outputs"]):
        errs = check(record)
        errors.update(errs)
        failed_call.append(any(errs.values()))
    # A call counts once however many passes a run makes, so a faster
    # program is not charged more failures.
    varying = [any(p["digests"][k] != first[k] for p in passes)
               for k in range(len(first))]
    nondeterministic = sum(varying)
    attempted = len(first)
    failed = sum(f or v for f, v in zip(failed_call, varying))
    gating = sum(v for k, v in errors.items() if k not in workloads.NUMERIC_ERRORS)
    correct = gating == 0 and nondeterministic == 0

    info = [
        f"workload={name} seed={seed} trace={trace} backend={result['backend']} "
        f"blas_threads={BLAS_THREADS} passes={len(passes)} calls={len(wl.calls)}",
        f"inputs_sha256={wl.input_digest()}",
        "outputs_sha256=" + hashlib.sha256("".join(first).encode()).hexdigest(),
        "errors=" + json.dumps({k: errors[k] for k in workloads.ERRORS if errors[k]}),
    ]
    if nondeterministic:
        info.append(f"nondeterministic outputs: {nondeterministic} calls")

    if not trace:
        best = [min(p["times"][k] for p in passes) for k in range(attempted)]
        info.append(f"raw_wall_s={sum(best)} probe_median_s=" + str(statistics.median(
            t for p in passes for _, t in p["probes"])))
        best = [min(normalized(p)[k] for p in passes) for k in range(attempted)]
        values = {
            "wall_s": sum(best),
            "call_p50_s": statistics.median(best),
            "call_p90_s": _p90(best),
            "setup_s": setup_s,
            "peak_rss_mb": result["peak_rss_mb"],
        }
        units = {n: u for n, u, _, _ in END_TO_END}
    else:
        tr = result["trace"]
        traced = [p for p in passes if p["traced"]]
        walls = [sum(p["times"]) for p in traced]
        k = len(traced)
        values = {}
        for key in SPANS:
            values[f"{key.lstrip('_')}_s"] = tr["self_s"].get(key, 0.0) / k
            values[f"{key.lstrip('_')}_calls"] = tr["calls"].get(key, 0) / k
        for key in COUNTERS:
            values[key] = tr["counts"][key] / k
        values["cli.unattributed_s"] = (sum(walls) - tr["covered_s"]) / k
        values["trace.overhead_s"] = statistics.median(walls) - sum(passes[0]["times"])
        for key in workloads.ERRORS:
            values[key] = errors[key]
        values["cli.fail_share"] = failed / attempted
        units = dict(PER_LAYER)
        if tr["absent"]:
            info.append("absent spans (reported as 0): " + " ".join(tr["absent"]))
    line = {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {n: {"value": v, "unit": units[n]} for n, v in values.items()}}
    return line, info


def run_all(seed, seconds):
    per_layer = {}
    rows = []
    for name in WORKLOADS:
        for trace in (0, 1):
            line, info = run_workload(name, seed, seconds, trace)
            for text in info:
                print(f"# {text}")
            if trace:
                per_layer[name] = line
            else:
                rows.append((name, line))
    print(f"{'workload':<18} {'metric':<12} {'value':>12} unit")
    for name, line in rows:
        for metric, m in line["metrics"].items():
            print(f"{name:<18} {metric:<12} {m['value']:>12.6g} {m['unit']}")
        print(f"{name:<18} {'correct':<12} {str(line['correct']):>12}")
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    (out / "per_layer.json").write_text(json.dumps(per_layer, indent=2) + "\n")
    (ROOT / "BENCHMARK.json").write_text(json.dumps(manifest(), indent=2) + "\n")
    print(f"wrote {out / 'per_layer.json'} and {ROOT / 'BENCHMARK.json'}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="run every workload in both modes")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "obspart" / "__init__.py").is_file():
        sys.exit(f"obspart sources not found under {ROOT / 'src'}")
    if args.all:
        run_all(args.seed, args.seconds)
        return
    if args.workload is None:
        parser.error("--workload is required without --all")
    line, info = run_workload(args.workload, args.seed, args.seconds, args.trace)
    for text in info:
        print(f"# {text}")
    print(json.dumps(line))


if __name__ == "__main__":
    main()
