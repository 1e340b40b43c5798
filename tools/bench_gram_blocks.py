"""Before/after CPU-time medians of the Stein-kernel assembly and the two
kernel estimators, for ``BENCH_gram_blocks.json``.

    python tools/bench_gram_blocks.py --before OLD/src --after src \
        --before-label <commit> --after-label <commit> --out BENCH_gram_blocks.json

Each repeat runs one fresh worker per side, alternating which side goes
first, with every BLAS/OpenMP thread count pinned to 1.  A worker imports
``cfmc`` from the given source directory, makes one warm-up call per function
and size, then times each in CPU time (``time.process_time``), averaging
over enough calls at small n to span about 20 ms.
It also records tracemalloc's peak over the result's bytes for the two
assembly functions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import scipy

SIZES = (20, 50, 200, 500, 1000, 2000)
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _cases(n):
    import cfmc  # from the PYTHONPATH the worker was started with

    rng = np.random.default_rng(n)
    problem = cfmc.gaussian_problem(1)
    data = problem.dataset(rng, n)
    other = problem.dataset(rng, n)
    params = cfmc.SteinKernelParams(alpha1=0.1, alpha2=1.0)
    plan = cfmc.random_split(n, n // 2, 0)
    return {
        "gram_matrix": lambda: cfmc.gram_matrix(data, params),
        "stein_kernel_matrix": lambda: cfmc.stein_kernel_matrix(
            data.points, data.scores, other.points, other.scores, params
        ),
        "cf_split_estimate": lambda: cfmc.cf_split_estimate(
            data, plan, params, compute_discrepancy=True
        ),
        "cf_simplified_estimate": lambda: cfmc.cf_simplified_estimate(data, params),
    }


def measure() -> dict:
    """One repeat: CPU seconds per (function, n), and assembly peak ratios."""
    times, peaks = {}, {}
    for n in SIZES:
        loops = max(1, 200_000 // (n * n))  # at least ~20 ms per timing at small n
        for name, call in _cases(n).items():
            call()
            start = time.process_time()
            for _ in range(loops):
                call()
            times[f"{name}/{n}"] = (time.process_time() - start) / loops
            if name in ("gram_matrix", "stein_kernel_matrix"):
                tracemalloc.start()
                try:
                    result = call()
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                peaks[f"{name}/{n}"] = peak / result.nbytes
    return {"cpu_s": times, "peak_over_result": peaks}


def _run_worker(src: str) -> dict:
    env = dict(os.environ, PYTHONPATH=src, **{v: "1" for v in THREAD_VARS})
    out = subprocess.run(
        [sys.executable, __file__, "--worker"], env=env, check=True, capture_output=True, text=True
    ).stdout
    return json.loads(out.splitlines()[-1])


def _summary(runs: list[dict]) -> dict:
    cpu = {k: [r["cpu_s"][k] for r in runs] for k in runs[0]["cpu_s"]}
    peak = {k: max(r["peak_over_result"][k] for r in runs) for k in runs[0]["peak_over_result"]}
    return {
        "median_ms": {k: round(1e3 * statistics.median(v), 3) for k, v in cpu.items()},
        "all_ms": {k: [round(1e3 * t, 3) for t in v] for k, v in cpu.items()},
        "tracemalloc_peak_over_result": {k: round(v, 2) for k, v in peak.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--before")
    parser.add_argument("--after")
    parser.add_argument("--before-label", default="before")
    parser.add_argument("--after-label", default="after")
    parser.add_argument("--repeats", type=int, default=7)
    parser.add_argument("--out", default="BENCH_gram_blocks.json")
    args = parser.parse_args(argv)
    if args.worker:
        print(json.dumps(measure()))
        return 0
    if not (args.before and args.after):
        parser.error("--before and --after are required")
    sides = {"before": (args.before, []), "after": (args.after, [])}
    for r in range(args.repeats):
        order = ("before", "after") if r % 2 == 0 else ("after", "before")
        for side in order:
            src, runs = sides[side]
            runs.append(_run_worker(src))
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    report = {
        "topic": "Stein-kernel Gram assembly in cache-sized row blocks",
        "layer": "kernel: gram_matrix / stein_kernel_matrix (Stein-Gram assembly)",
        "unit": "ms of CPU time per call, median over repeats",
        "repeats": args.repeats,
        "method": (
            "one fresh worker per side and repeat, sides alternating; one warm-up "
            "call, then the mean of max(1, 200000 // n^2) timed calls; d = 1 standard Gaussian "
            "sample with f = sin(pi x), alpha = (0.1, 1.0), automatic lambda; "
            "stein_kernel_matrix between two independent n-point samples; "
            "cf_split_estimate with m = n/2 and compute_discrepancy=True"
        ),
        "sizes": list(SIZES),
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": 1,
            "nproc": os.cpu_count(),
            "machine": platform.machine(),
        },
        "before": {"label": args.before_label, **_summary(sides["before"][1])},
        "after": {"label": args.after_label, **_summary(sides["after"][1])},
    }
    before, after = report["before"]["median_ms"], report["after"]["median_ms"]
    report["after_over_before"] = {k: round(after[k] / before[k], 3) for k in before}
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
