"""Run one workload's calls in a fresh process, one call at a time.

    python3 perfbench/child.py PLAN.json RESULT.json

The plan lists calls into obspart's CLI (``obspart.cli.main``) and its
top-level API.  Each call is timed alone; outputs are serialized only
after its timer stops.  Passes over the call list repeat until the plan's
``seconds`` have elapsed and at least ``min_passes`` have run.  With
``trace`` set, one untraced pass runs first, then the listed public
functions are wrapped from outside and at least one more pass records
per-function self time and call counts.

This process imports obspart and numpy, never scipy, so its start-up and
peak memory are obspart's own.
"""

import contextlib
import functools
import hashlib
import importlib
import io
import json
import os
import sys
import time

# Between calls, at most this often, the child times a fixed probe.  The
# speed of a shared machine drifts by tens of percent within seconds; the
# parent divides each call's time by the probes taken around it.
PROBE_EVERY_S = 0.25


def speed_probe():
    """Time a fixed piece of interpreter work.

    Of the probes tried, pure interpreter work tracked the speed of both
    the structural and the numeric calls best; LAPACK work did not.
    """
    t0 = time.perf_counter()
    counts = {}
    for i in range(20000):
        key = (i * 7919 % 1009, i & 7)
        counts[key] = counts.get(key, 0) + 1
    sorted(counts.items())
    return time.perf_counter() - t0


def _peak_rss_mb():
    """This process's resident high-water mark.  Unlike ``ru_maxrss``, it
    does not carry over the parent's size from before ``exec``."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM line in /proc/self/status")


def _import_obspart(src_dir):
    import obspart
    import obspart.cli

    origin = os.path.realpath(obspart.__file__)
    if not origin.startswith(os.path.realpath(src_dir) + os.sep):
        raise SystemExit(f"obspart imported from {origin}, not from {src_dir}")
    return obspart, obspart.cli


def _api_result(kind, value):
    """JSON-ready form of an API return value."""
    if kind == "load":
        system, names = value
        return {"n": system.n, "p": system.p,
                "a": sorted(system.a_pattern), "h": sorted(system.h_pattern),
                "names": names}
    if kind == "theorem_check":
        return {"observable": value.observable,
                "failed_condition": value.failed_condition,
                "inaccessible": list(value.inaccessible), "s_rank": value.s_rank}
    return {"alpha_classes": [list(c) for c in value.alpha_classes],
            "beta_classes": [list(c) for c in value.beta_classes],
            "labels": list(value.labels),
            "minimal_sets": [list(s) for s in value.minimal_sets],
            "sensor_count": value.sensor_count}


class Tracer:
    """Self time and call counts of wrapped functions, from a span stack."""

    def __init__(self):
        self.self_s = {}
        self.calls = {}
        self.counts = {}
        self.covered_s = 0.0  # time inside outermost spans
        self._stack = []      # child time accumulated by each open span

    def span(self, key, fn):
        self.self_s[key] = 0.0
        self.calls[key] = 0
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                total = time.perf_counter() - t0
                self.self_s[key] += total - stack.pop()
                self.calls[key] += 1
                if stack:
                    stack[-1] += total
                else:
                    self.covered_s += total
        return wrapper

    def counter(self, key, fn):
        self.counts[key] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper


def _rebind(original, wrapper):
    """Point every module-level alias of ``original`` inside obspart at
    ``wrapper``: ``from .x import f`` makes a second binding to replace."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "obspart" or name.startswith("obspart.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def install_tracing(spans, counters):
    """Wrap ``module.function`` names; returns (tracer, absent names)."""
    tracer = Tracer()
    absent = []
    for key in spans:
        module_name, func_name = key.split(".")
        try:
            module = importlib.import_module(f"obspart.{module_name}")
            original = getattr(module, func_name)
        except (ImportError, AttributeError):
            absent.append(key)
            continue
        _rebind(original, tracer.span(key, original))
    import numpy.linalg

    for key, func_name in counters.items():
        setattr(numpy.linalg, func_name,
                tracer.counter(key, getattr(numpy.linalg, func_name)))
    return tracer, absent


def _run_pass(calls, obspart, cli, keep_outputs):
    loaded = {}
    times, digests, outputs, probes = [], [], [], []
    last_probe = -PROBE_EVERY_S
    for index, call in enumerate(calls):
        if time.perf_counter() - last_probe >= PROBE_EVERY_S:
            probes.append((index, speed_probe()))
            last_probe = time.perf_counter()
        kind = call["kind"]
        out, err = io.StringIO(), io.StringIO()
        result = None
        t0 = time.perf_counter()
        try:
            if kind == "cli":
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main(call["argv"])
            elif kind == "load":
                result = obspart.load_system(call["path"])
                code = 0
            elif kind == "theorem_check":
                result = obspart.theorem_check(loaded[call["system"]][0])
                code = 0
            else:
                result = obspart.partition_report(loaded[call["system"]][0],
                                                  forbid=set(call["forbid"]))
                code = 0
        except SystemExit as exc:  # argparse rejects argv this way
            code = exc.code
        except Exception as exc:  # a raising call is recorded, not fatal
            code = f"raised {type(exc).__name__}: {exc}"
        times.append(time.perf_counter() - t0)
        if kind == "load" and result is not None:
            loaded[call["system"]] = result
        text = out.getvalue()
        if result is not None:
            text = json.dumps(_api_result(kind, result))
        digests.append(hashlib.sha256(
            json.dumps([code, text]).encode()).hexdigest())
        if keep_outputs:
            outputs.append({"code": code, "stdout": text})
    probes.append((len(calls), speed_probe()))
    return {"times": times, "digests": digests, "probes": probes}, outputs


def main(plan_path, result_path):
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    obspart, cli = _import_obspart(plan["src"])
    calls = plan["calls"]
    deadline = time.perf_counter() + plan["seconds"]
    first, outputs = _run_pass(calls, obspart, cli, True)
    passes = [dict(first, traced=False)]
    tracer = absent = None
    min_passes = plan["min_passes"]
    if plan["trace"]:
        tracer, absent = install_tracing(plan["spans"], plan["counters"])
        deadline = time.perf_counter() + plan["seconds"]
        min_passes = 2
    while len(passes) < min_passes or time.perf_counter() < deadline:
        record, _ = _run_pass(calls, obspart, cli, False)
        passes.append(dict(record, traced=tracer is not None))
    result = {
        "passes": passes,
        "outputs": outputs,
        "peak_rss_mb": _peak_rss_mb(),
        "backend": getattr(obspart, "BACKEND", "none"),
    }
    if tracer is not None:
        result["trace"] = {"self_s": tracer.self_s, "calls": tracer.calls,
                           "counts": tracer.counts, "covered_s": tracer.covered_s,
                           "absent": absent}
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
