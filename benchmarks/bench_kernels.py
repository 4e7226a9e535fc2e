#!/usr/bin/env python3
"""Time the compiled kernels against their plain-Python/numpy bodies.

Usage:
    python benchmarks/bench_kernels.py [--repeat 5] [--scale 1.0]

Each kernel is timed best-of-``repeat`` on a fixed randomly generated
input (seeded, so runs are comparable).  The "python" column calls the
uncompiled function body (``.py_func``); the "compiled" column calls
whatever the package dispatches to.  With OBSPART_NUMBA=0 both columns
run the same interpreted code, and the table says so.
"""

import argparse
import time

import numpy as np

from obspart import _kernels as K


def _bipartite_input(rng, n, degree):
    edges = sorted({(int(rng.integers(n)), int(rng.integers(n)))
                    for _ in range(degree * n)})
    indptr, indices = K.csr_from_edges(n, edges)
    return indptr, indices, n, n


def _digraph_input(rng, n, degree):
    edges = sorted({(int(rng.integers(n)), int(rng.integers(n)))
                    for _ in range(degree * n)})
    indptr, indices = K.csr_from_edges(n, edges)
    return indptr, indices, n


def _reach_input(rng, n, degree):
    indptr, indices, _ = _digraph_input(rng, n, degree)
    seeds = np.zeros(n, np.uint8)
    seeds[rng.integers(n, size=max(1, n // 100))] = 1
    return indptr, indices, n, seeds


def _best_of(func, args, repeat):
    best = np.inf
    for _ in range(repeat):
        t0 = time.perf_counter()
        func(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=5,
                        help="timings per kernel; best is reported (default 5)")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply the default problem sizes (default 1.0)")
    args = parser.parse_args()

    rng = np.random.default_rng(7)
    n_graph = int(20000 * args.scale)

    cases = [
        ("hopcroft_karp", K._hk_kernel,
         _bipartite_input(rng, n_graph, 3),
         f"bipartite, {n_graph} nodes/side, ~3 edges/node"),
        ("tarjan_scc", K._tarjan_kernel,
         _digraph_input(rng, n_graph, 3),
         f"digraph, {n_graph} nodes, ~3 arcs/node"),
        ("reachable", K._reach_kernel,
         _reach_input(rng, n_graph, 3),
         f"digraph, {n_graph} nodes, {max(1, n_graph // 100)} seeds"),
    ]

    print(f"backend: {K.BACKEND} (set OBSPART_NUMBA=0 to force numpy)")
    if not K.USE_NUMBA:
        print("note: numba is disabled, so both columns run the same "
              "interpreted code\n")
    else:
        print()

    header = f"{'kernel':<14} {'input':<44} {'python':>10} {'compiled':>10} {'speedup':>8}"
    print(header)
    print("-" * len(header))
    for name, kernel, inputs, label in cases:
        plain = kernel.py_func if K.USE_NUMBA else kernel
        if K.USE_NUMBA:
            kernel(*inputs)  # compile outside the timed region
        t_plain = _best_of(plain, inputs, args.repeat)
        t_fast = _best_of(kernel, inputs, args.repeat)
        ratio = t_plain / t_fast if t_fast > 0 else float("inf")
        print(f"{name:<14} {label:<44} {t_plain:>9.4f}s {t_fast:>9.4f}s "
              f"{ratio:>7.1f}x")


if __name__ == "__main__":
    main()
