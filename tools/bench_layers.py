"""Before/after CPU-time medians of one layer of cfmc, for ``BENCH_<topic>.json``.

    python tools/bench_layers.py --topic lambda_select --before OLD/src --after src \
        --before-label <commit> --after-label <commit>

``--topic`` picks a layer, its sizes, the builder of its cases and the text
saying what each case runs from ``TOPICS``.  A case is an in-process call or a
child command, and every case is measured alike.  Each repeat runs one fresh
worker per side and case, sides alternating, with ``cfmc`` imported from the
given source directory and every BLAS/OpenMP thread count pinned to 1
(``lambda_gate.checkout_env``); the worker builds its topic's inputs and calls
only its own case, at every size that offers it, so no case is timed after
another case's calls.  An in-process call gets one warm-up call, then the mean
CPU time (``time.process_time``) of as many calls as span ``TIMED_S`` at the
warm-up's pace (at least ``MIN_CALLS``), with the minor page faults per call;
the time is also scaled to the benchmark's reference speed, by
``Reference.NOMINAL_S`` over the mean of one ``perfbench/worker.py`` reference
round timed right before and one right after, so a slow spell of the shared
host does not move it.  One more call runs under tracemalloc and the spies of
``_spies``; its result is digested.  A child command runs once, and its CPU
time, wall time, peak RSS and minor faults come from ``os.wait4``; the sample
files it reads are written once by the parent and shared by both sides.  The
report gives each side's medians over the repeats, the after/before ratios,
and whether every result was the same bytes on both sides in every repeat.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import inspect
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np
import scipy

from lambda_gate import BOUND_COMMAND, checkout_env, write_bound_sample

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from worker import Reference  # noqa: E402  (the benchmark's own reference round)
from workloads import CV_GRID, MCMC_CV_D3, STUDY_D1, metropolis_problem  # noqa: E402

# An in-process case is timed over max(MIN_CALLS, ceil(TIMED_S / warm-up CPU time)) calls.
TIMED_S = 0.05
MIN_CALLS = 3
# The directory of the d = 1 sample files a child command reads, one per row
# count of SAMPLE_ROWS, named in the worker's environment.
SAMPLES = "BENCH_LAYERS_SAMPLES"
SAMPLE_ROWS = (200, 2000)
SAMPLE = "standard Gaussian sample with f = sin(pi x), alpha = (0.1, 1.0), automatic lambda"
BOUND_PROCESS = (
    "`python -m cfmc estimate FILE --method cf-split --bound --fnorm 1 --output json` as a "
    "child process, on a d = 1 sample file of n rows (x from random.Random(20140917).gauss, "
    "u = -x, f = sin(pi x); lambda_gate.write_bound_sample) that the parent writes once "
    "and both sides read"
)
# study_d1 with one kernel method, so that the cell shares no kernel.
LONE_SPLIT = dict(STUDY_D1, methods=[{"method": "cf-split", "alpha1": 0.1, "alpha2": 1.0}])
LONE_CV_MULTISPLIT = dict(STUDY_D1, n_splits=4,
                          methods=[{"method": "cf-multisplit", "cv_grid": CV_GRID}])


def _problem(d, size):
    import cfmc  # from the PYTHONPATH the worker was started with

    rng = np.random.default_rng(size)
    return cfmc, cfmc.gaussian_problem(d).dataset(rng, size), rng


def _kernel_cases(n, d=1, alpha2=1.0):
    cfmc, data, rng = _problem(d, n)
    other = cfmc.gaussian_problem(d).dataset(rng, n)
    params = cfmc.SteinKernelParams(alpha1=0.1, alpha2=alpha2)
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


def _gram_inplace_cases(n):
    return {
        f"{name}_d{d}": call
        for d in (1, 3)
        for name, call in _kernel_cases(n, d).items()
        if name != "cf_simplified_estimate"
    }


def _gram_exact_cases(n):
    cases = {
        f"{name}_d{d}_a2={alpha2}": call
        for d in (1, 3)
        for alpha2 in (1.0, 1.5)
        for name, call in _kernel_cases(n, d, alpha2).items()
        if name in ("gram_matrix", "stein_kernel_matrix")
    }
    if n == 2000:
        cases["cf_split_estimate_bound"] = _kernel_cases(n)["cf_split_estimate"]
    return cases


def _digest(result):
    """The SHA-256 of an array's bytes, a list of those for a list of
    arrays, or the repr of any other result."""
    if isinstance(result, list):
        return [_digest(item) for item in result]
    if isinstance(result, np.ndarray):
        return hashlib.sha256(result.tobytes()).hexdigest()
    return repr(result)


def _gram_kernels_cases(n):
    # The one-kernel calls first, before any call of several kernels at n.
    cases = {}
    if n >= 100:
        for d in (1, 3):
            for name, call in _kernel_cases(n, d).items():
                if name in ("gram_matrix", "stein_kernel_matrix"):
                    cases[f"{name}_d{d}"] = call
    if n <= 500:
        for d in (1, 3):
            cfmc, data, _ = _problem(d, n)
            grid = [cfmc.SteinKernelParams(a1, a2) for a1, a2 in CV_GRID]
            x, u = data.points, data.scores
            # A source before the shared pass assembles one kernel per call.
            shared = "kernels" in inspect.signature(cfmc.kernel._assemble).parameters
            for k in (2, 4):
                kernels = grid[:k]
                singles = lambda ks=kernels, data=data: [cfmc.gram_matrix(data, p) for p in ks]  # noqa: E731
                cases[f"grams_K{k}_d{d}"] = (
                    (lambda ks=kernels, x=x, u=u: cfmc.kernel._assemble(x, u, x, u, ks, True))
                    if shared else singles
                )
                cases[f"gram_matrix_x{k}_d{d}"] = singles
    return cases


@contextlib.contextmanager
def _gates(estimator, **sizes):
    """Set each size gate of ``estimator`` named in ``sizes`` (such as
    ``_GUARDED_MIN_SIZE=0``) where the source has it."""
    saved = {name: getattr(estimator, name) for name in sizes if hasattr(estimator, name)}
    for name in saved:
        setattr(estimator, name, sizes[name])
    try:
        yield
    finally:
        for name, value in saved.items():
            setattr(estimator, name, value)


def _lambda_select_cases(m):
    cfmc, data, _ = _problem(1, m)
    _, data3, _ = _problem(3, m)
    _, pair, _ = _problem(1, 2 * m)
    chain = metropolis_problem().dataset(np.random.default_rng(m), m)
    params = cfmc.SteinKernelParams(alpha1=0.1, alpha2=1.0)
    k0, k0_d3 = cfmc.gram_matrix(data, params), cfmc.gram_matrix(data3, params)
    k0_mcmc = cfmc.gram_matrix(chain, params)
    plan = cfmc.random_split(2 * m, m, 0)

    def select_guarded():
        with _gates(cfmc.estimator, _GUARDED_MIN_SIZE=0):
            return cfmc.select_lambda(k0)

    return {
        "select_lambda": lambda: cfmc.select_lambda(k0),
        "select_lambda_d3": lambda: cfmc.select_lambda(k0_d3),
        "select_lambda_mcmc_d3": lambda: cfmc.select_lambda(k0_mcmc),
        "select_lambda_guarded_at_every_size": select_guarded,
        "cf_split_estimate": lambda: cfmc.cf_split_estimate(
            pair, plan, params, compute_discrepancy=True
        ),
        "cf_simplified_estimate": lambda: cfmc.cf_simplified_estimate(data, params),
    }


def _lambda_pivoted_cases(m):
    cfmc, data, _ = _problem(1, m)
    params = cfmc.SteinKernelParams(alpha1=0.1, alpha2=1.0)
    grams = {"select_lambda": cfmc.gram_matrix(data, params)}
    if m in (200, 500):
        chain = metropolis_problem().dataset(np.random.default_rng(m), m)
        grams["select_lambda_d3"] = cfmc.gram_matrix(_problem(3, m)[1], params)
        grams["select_lambda_mcmc_d3"] = cfmc.gram_matrix(chain, params)
    cases = {name: (lambda k0=k0: cfmc.select_lambda(k0)) for name, k0 in grams.items()}
    if m == 1000:
        _, pair, _ = _problem(1, 2 * m)
        plan = cfmc.random_split(2 * m, m, 0)
        cases["cf_split_estimate_bound"] = lambda: cfmc.cf_split_estimate(
            pair, plan, params, compute_discrepancy=True
        )
    return cases


def _lambda_one_test_cases(m):
    cfmc, data, _ = _problem(1, m)
    params = cfmc.SteinKernelParams(alpha1=0.1, alpha2=1.0)
    grams = {"lambda_search": cfmc.gram_matrix(data, params)}
    if m != 250:
        chain = metropolis_problem().dataset(np.random.default_rng(m), m)
        grams["lambda_search_d3"] = cfmc.gram_matrix(_problem(3, m)[1], params)
        grams["lambda_search_mcmc_d3"] = cfmc.gram_matrix(chain, params)
    search = cfmc.estimator._lambda_search
    return {name: (lambda k0=k0: search(k0)) for name, k0 in grams.items()}


def _study(workload, n_grid, replications, seed, problem=None):
    """``run_experiment`` of a benchmark study with its grid and seed replaced."""
    import cfmc

    config = cfmc.bench.load_config(
        dict(workload, n_grid=list(n_grid), replications=replications, master_seed=seed)
    )
    return lambda: cfmc.bench.run_experiment(config, problem=problem)


def _gram_cache_cases(n):
    cases = {}
    if n <= 500:
        cases["study_d1_cell"] = _study(STUDY_D1, [n], 1, n)
    if n <= 200:
        cases["mcmc_cv_d3_cell"] = _study(MCMC_CV_D3, [n], 1, n, metropolis_problem())
    if n == 2000:
        cases["cf_split_estimate_bound"] = _kernel_cases(n)["cf_split_estimate"]
    return cases


def _gram_rows_cases(n):
    cases = {
        "lone_cf_split_cell": _study(LONE_SPLIT, [n], 1, n),
        "lone_cv_multisplit_cell": _study(LONE_CV_MULTISPLIT, [n], 1, n),
    }
    cases.update(_gram_cache_cases(n))
    return cases


def _fit_solve_cases(m):
    cfmc, data, _ = _problem(1, m)
    k0 = cfmc.gram_matrix(data, cfmc.SteinKernelParams(alpha1=0.1, alpha2=1.0))
    fit = cfmc.estimator._fit_coefficients
    lam = fit(k0, None).lam
    cases = {
        "fit_coefficients_auto": lambda: fit(k0, None).surrogate(data.f_values),
        "fit_coefficients_explicit": lambda: fit(k0, lam).surrogate(data.f_values),
    }
    if m == 100:
        cases["study_d1_cell"] = _study(STUDY_D1, [m], 1, m)
        cases["mcmc_cv_d3_cell"] = _study(MCMC_CV_D3, [m], 1, m, metropolis_problem())
    return cases


def _rows(study):
    """(method, n, estimate, lambda) of every row of one run of ``study``."""
    return [[r.method, r.n, r.estimate, r.lambda_used] for r in study().rows]


def _mcmc_request_rows():
    """The rows of one mcmc_cv_d3 request."""
    return _rows(_study(
        MCMC_CV_D3, MCMC_CV_D3["n_grid"], MCMC_CV_D3["replications"], 1, metropolis_problem()
    ))


def _study_d1_and_mcmc_request_rows():
    """The rows of one study_d1 request, then of one mcmc_cv_d3 request."""
    return _rows(_study(STUDY_D1, STUDY_D1["n_grid"], 10, 1)) + _mcmc_request_rows()


def _gram_rows_request_rows():
    """The rows of both lone-kernel studies over study_d1's grid, then of
    one mcmc_cv_d3 request."""
    lone = [_rows(_study(c, STUDY_D1["n_grid"], 2, 1)) for c in (LONE_SPLIT, LONE_CV_MULTISPLIT)]
    return lone[0] + lone[1] + _mcmc_request_rows()


def _bound_process(n):
    """The child command of ``cfmc estimate --bound`` on the parent's sample
    file of n rows."""
    sample = Path(os.environ[SAMPLES]) / f"bound_n{n}.csv"
    return (sys.executable, "-m", "cfmc", "estimate", str(sample), *BOUND_COMMAND)


# A fresh interpreter that imports cfmc and its CLI and prints how many
# modules are loaded.
IMPORT_PROBE = "import sys, cfmc, cfmc.cli; print(len(sys.modules))"


def _cold_start_cases(n):
    cases = {f"cfmc_estimate_bound/{n}": _bound_process(n)}
    if n == 200:
        cases["import_cfmc_cli"] = (sys.executable, "-c", IMPORT_PROBE)
    return cases


SPLIT_MEMORY_NAMES = ("cf_split_estimate_bound", "cf_weights", "cf_simplified_estimate")


def _split_memory_cases(n):
    cases = {}
    for d in (1, 3):
        cfmc, data, _ = _problem(d, n)
        params = cfmc.SteinKernelParams(alpha1=0.1, alpha2=1.0)
        plan = cfmc.random_split(n, n // 2, 0)
        calls = (
            lambda data=data, plan=plan, params=params:
                cfmc.cf_split_estimate(data, plan, params, compute_discrepancy=True),
            lambda data=data, plan=plan, params=params: cfmc.cf_weights(data, plan, params),
            lambda data=data, params=params: cfmc.cf_simplified_estimate(data, params),
        )
        cases.update((f"{name}_d{d}", call) for name, call in zip(SPLIT_MEMORY_NAMES, calls))
    if n == 2000:
        cases["cfmc_estimate_bound/2000"] = _bound_process(2000)
    return cases


def _assembly_scratch_cases(n):
    if n == 2000:
        return {"cfmc_estimate_bound/2000": _bound_process(2000)}
    return {"mcmc_cv_d3_cell": _study(MCMC_CV_D3, [n], 1, n, metropolis_problem())}


@contextlib.contextmanager
def _spies():
    """Count the Stein-kernel entries assembled inside the block (p*q for a
    cross block, p*(p+1)/2 for a Gram, of which only one triangle is
    evaluated) and record the size of every Cholesky test of the guarded
    lambda search run inside it, in call order."""
    import cfmc

    seen = {"kernel_entries": 0, "cholesky_test_sizes": []}
    assemble, exceeds = cfmc.kernel._assemble, cfmc.estimator._exceeds

    def assemble_spy(x, u_x, y, u_y, kernels, upper):
        p, q = x.shape[0], y.shape[0]
        # A source before the shared pass passes one SteinKernelParams.
        matrices = len(kernels) if isinstance(kernels, (list, tuple)) else 1
        seen["kernel_entries"] += matrices * (p * (p + 1) // 2 if upper else p * q)
        return assemble(x, u_x, y, u_y, kernels, upper)

    def exceeds_spy(k0, shift, work):
        seen["cholesky_test_sizes"].append(k0.shape[0])
        return exceeds(k0, shift, work)

    cfmc.kernel._assemble, cfmc.estimator._exceeds = assemble_spy, exceeds_spy
    try:
        yield seen
    finally:
        cfmc.kernel._assemble, cfmc.estimator._exceeds = assemble, exceeds


def _call_record(call, reference: Reference) -> dict:
    """The record of one in-process case at one size."""
    start = time.process_time()
    call()
    warm = time.process_time() - start
    calls = max(MIN_CALLS, math.ceil(TIMED_S / max(warm, 1e-6)))
    before = reference.sample()
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    start = time.process_time()
    for _ in range(calls):
        call()
    cpu = (time.process_time() - start) / calls
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    speed = Reference.NOMINAL_S / (0.5 * (before + reference.sample()))
    with _spies() as seen:
        tracemalloc.start()
        try:
            result = call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return {
        "cpu_s": cpu * speed,
        "raw_cpu_s": cpu,
        "minflt": faults / calls,
        "calls": calls,
        "peak_mib": peak / 2**20,
        "peak_over_result": peak / result.nbytes if isinstance(result, np.ndarray) else None,
        **seen,
        "result": _digest(result),
    }


def _child(argv) -> dict:
    """The record of a child command, run to its end: its CPU seconds (user
    + system), wall seconds, peak RSS in MB, minor page faults and
    stdout."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE)
    out = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode:
        raise subprocess.CalledProcessError(proc.returncode, argv)
    return {"cpu_s": usage.ru_utime + usage.ru_stime, "wall_s": wall,
            "maxrss_mb": usage.ru_maxrss / 1024, "minflt": usage.ru_minflt,
            "result": _digest(out)}


def _measure(spec, name: str) -> dict:
    """The records of case ``name`` at every size whose cases offer it, keyed
    ``name/size`` for a call and ``name`` alone for a child command, which
    names its own input."""
    reference = Reference()
    records = {}
    for size in spec["sizes"]:
        case = spec["cases"](size).get(name)
        if isinstance(case, tuple):
            records[name] = _child(case)
        elif case is not None:
            records[f"{name}/{size}"] = _call_record(case, reference)
    return records


def _survey(spec) -> dict:
    """The names of the topic's cases in the order of their first size, and
    the rows its output deviation compares."""
    names = dict.fromkeys(name for size in spec["sizes"] for name in spec["cases"](size))
    rows = spec["deviation_rows"]() if "deviation_rows" in spec else []
    return {"cases": list(names), "rows": rows}


TOPICS = {
    "assembly_scratch": {
        "topic": "one Stein-Gram block scratch per thread, kept between assemblies",
        "layer": "kernel: _assemble's block workspace (Stein-Gram assembly)",
        "sizes": (25, 50, 100, 200, 2000),
        "cases": _assembly_scratch_cases,
        "deviation_rows": _mcmc_request_rows,
        "method": (
            "size = n; mcmc_cv_d3_cell (n <= 200): run_experiment of the benchmark's "
            "mcmc_cv_d3 study on one cell of n rows (one replication, master_seed n): a "
            "Metropolis chain targeting N(0, I_3) and cf-split, cf-simplified and a "
            "4-split cf-multisplit, each cross-validated over the benchmark's four "
            f"CV_GRID kernels.  cfmc_estimate_bound/2000: {BOUND_PROCESS}.  "
            "output_deviation: one mcmc_cv_d3 request (master_seed 1), the largest "
            "relative estimate deviation per n and method between the sides, and whether "
            "every lambda is identical"
        ),
    },
    "gram_kernels": {
        "topic": "one Stein-Gram pass for all the kernels a cell shares: the kernel-free "
                 "terms made once, not once per kernel",
        "layer": "kernel: _assemble (Stein-Gram assembly), several kernels and one",
        "sizes": (25, 50, 100, 200, 500, 1000, 2000),
        "cases": _gram_kernels_cases,
        "deviation_rows": _mcmc_request_rows,
        "method": (
            "standard Gaussian sample with scores -x, in d = 1 (_d1) and d = 3 (_d3); "
            "size = n; the kernels are the benchmark's CV_GRID, (0.1, 1.0), (0.1, 2.0), "
            "(0.1, 0.5) and (0.05, 1.5), of which K = 2 takes the first two.  "
            "grams_K<K>: the K Grams by one kernel._assemble call on a source that "
            "takes a sequence of kernels, and by K gram_matrix calls on one that does "
            "not; gram_matrix_x<K>: K gram_matrix calls on both sides.  gram_matrix and "
            "stein_kernel_matrix: one kernel, alpha = (0.1, 1.0), at n >= 100; "
            "stein_kernel_matrix between two independent n-point samples.  "
            "output_deviation: one mcmc_cv_d3 request (master_seed 1), the largest "
            "relative estimate deviation per n and method between the sides, and whether "
            "every lambda is identical"
        ),
    },
    "gram_blocks": {
        "topic": "Stein-kernel Gram assembly in cache-sized row blocks",
        "layer": "kernel: gram_matrix / stein_kernel_matrix (Stein-Gram assembly)",
        "sizes": (20, 50, 200, 500, 1000, 2000),
        "cases": _kernel_cases,
        "method": (
            f"d = 1 {SAMPLE}; size = n; stein_kernel_matrix between two independent "
            "n-point samples; cf_split_estimate with m = n/2 and compute_discrepancy=True"
        ),
    },
    "gram_inplace": {
        "topic": "Stein-kernel blocks evaluated in place in one reused workspace",
        "layer": "kernel: gram_matrix / stein_kernel_matrix (Stein-Gram assembly)",
        "sizes": (10, 25, 50, 100, 150, 200, 500, 1000, 2000),
        "cases": _gram_inplace_cases,
        "method": (
            f"{SAMPLE}, in d = 1 (suffix _d1) and d = 3 (_d3); size = n; "
            "stein_kernel_matrix between two independent n-point samples; "
            "cf_split_estimate with m = n/2 and compute_discrepancy=True"
        ),
    },
    "gram_cache": {
        "topic": "one Stein Gram per (cell, kernel); every estimator and CV block a slice of it",
        "layer": "kernel and estimator: Stein-Gram assembly, shared across the methods of a cell",
        "sizes": (100, 200, 500, 2000),
        "cases": _gram_cache_cases,
        "deviation_rows": _mcmc_request_rows,
        "method": (
            "size = n; study_d1_cell: run_experiment of the benchmark's study_d1 config "
            "(mean, zv1, zv2, riemann, cf-split, cf-simplified at alpha = (0.1, 1.0)) on "
            "one cell, n_grid [n], one replication, master_seed n; mcmc_cv_d3_cell: the "
            "same for its mcmc_cv_d3 config (Metropolis N(0, I_3) sample, cf-simplified "
            "and 4-split cf-multisplit, both cross-validated over four kernels); "
            f"cf_split_estimate_bound: the d = 1 {SAMPLE}, m = n/2, compute_discrepancy="
            "True.  output_deviation: one whole mcmc_cv_d3 request (master_seed 1), the "
            "largest relative estimate deviation per n and method between the sides, and "
            "whether every lambda is identical"
        ),
    },
    "gram_rows": {
        "topic": "one kernel-block path: a Gram-rows view and one _block function",
        "layer": "estimator: kernel blocks of cells that share no kernel, and of shared cells",
        "sizes": (100, 200, 500, 1000),
        "cases": _gram_rows_cases,
        "deviation_rows": _gram_rows_request_rows,
        "method": (
            "size = n; lone_cf_split_cell: run_experiment of the benchmark's study_d1 "
            "config with cf-split at alpha = (0.1, 1.0) as its only method, on one cell, "
            "n_grid [n], one replication, master_seed n; lone_cv_multisplit_cell: the "
            "same with a 4-split cf-multisplit cross-validated over the benchmark's four "
            "kernels as its only method; study_d1_cell and mcmc_cv_d3_cell as in "
            "BENCH_gram_cache.json.  output_deviation: both lone studies over study_d1's "
            "n_grid with two replications (master_seed 1), then one whole mcmc_cv_d3 "
            "request (master_seed 1); the largest relative estimate deviation per n and "
            "method between the sides, and whether every lambda is identical"
        ),
    },
    "fit_solve": {
        "topic": "Cholesky factor and solves of the kernel system straight from LAPACK",
        "layer": "estimator: Cholesky and triangular solves (_fit_coefficients)",
        "sizes": (12, 25, 50, 100, 250, 1000),
        "cases": _fit_solve_cases,
        "deviation_rows": _mcmc_request_rows,
        "method": (
            f"{SAMPLE}; size = m, the kernel system's size; fit_coefficients_auto: "
            "estimator._fit_coefficients and the fit's surrogate solve on the "
            "precomputed m x m Gram of a d = 1 sample with lambda chosen by the rule "
            "(finiteness check, lambda selection, one factorisation, two solves); "
            "fit_coefficients_explicit: the same with that "
            "lambda given (check, factorisation, two solves); at m = 100, study_d1_cell "
            "and mcmc_cv_d3_cell as in BENCH_gram_cache.json.  output_deviation: one "
            "whole mcmc_cv_d3 request (master_seed 1), the largest relative estimate "
            "deviation per n and method between the sides, and whether every lambda is "
            "identical"
        ),
    },
    "cold_start": {
        "topic": "cold start: cfmc imports at module level only what every run uses",
        "layer": "process start-up: import cfmc, cfmc.cli and one cfmc estimate --bound",
        "sizes": (200, 2000),
        "cases": _cold_start_cases,
        "method": (
            f"import_cfmc_cli: `python -c \"{IMPORT_PROBE}\"` as a child process, the "
            "interpreter's own start-up included; its stdout, the number of modules "
            f"loaded, is its result.  cfmc_estimate_bound/n: {BOUND_PROCESS}"
        ),
    },
    "gram_exact_passes": {
        "topic": "Stein-Gram blocks without the passes IEEE arithmetic makes redundant",
        "layer": "kernel: gram_matrix / stein_kernel_matrix (Stein-Gram assembly)",
        "sizes": (200, 500, 1000, 2000),
        "cases": _gram_exact_cases,
        "deviation_rows": _study_d1_and_mcmc_request_rows,
        "method": (
            "standard Gaussian sample with f = sin(pi x), alpha1 = 0.1, automatic lambda, "
            "in d = 1 (_d1) and d = 3 (_d3), at alpha2 = 1.0 (a power of two: no "
            "division pass, or a multiply) and 1.5 (divisions kept); size = n; "
            "stein_kernel_matrix between two independent n-point samples; "
            "cf_split_estimate_bound: d = 1, alpha2 = 1.0, m = n/2, compute_discrepancy="
            "True.  output_deviation: one study_d1 request (10 replications) and one "
            "mcmc_cv_d3 request (master_seed 1), the largest relative estimate "
            "deviation per n and method between the sides, and whether every lambda "
            "is identical"
        ),
    },
    "lambda_pivoted": {
        "topic": "lambda selection: the top eigenvalue and the accept tests' proof from one "
                 "pivoted Cholesky factor",
        "layer": "estimator: select_lambda (regularisation choice)",
        "sizes": (200, 250, 500, 1000),
        "cases": _lambda_pivoted_cases,
        "deviation_rows": _study_d1_and_mcmc_request_rows,
        "method": (
            f"{SAMPLE}; size = m, the kernel system's size; select_lambda on the "
            "precomputed m x m Gram of a d = 1 sample (select_lambda_d3: of a d = 3 "
            "sample; select_lambda_mcmc_d3: of an m-step Metropolis chain targeting "
            "N(0, I_3), step 1.0, as in the benchmark's mcmc_cv_d3); "
            "cf_split_estimate_bound: cf_split_estimate on n = 2m points with a random "
            "m-point fitting set and compute_discrepancy=True.  output_deviation: one "
            "study_d1 request (10 replications) and one mcmc_cv_d3 request (master_seed "
            "1), the largest relative estimate deviation per n and method between the "
            "sides, and whether every lambda is identical"
        ),
    },
    "lambda_one_test": {
        "topic": "lambda selection: one test of lambda_min(K0) > tau, answered by the "
                 "pivoted factor's bounds where they can, for accept and reject tests alike",
        "layer": "estimator: select_lambda (regularisation choice)",
        "sizes": (200, 250, 500, 1000),
        "cases": _lambda_one_test_cases,
        "deviation_rows": _study_d1_and_mcmc_request_rows,
        "method": (
            f"{SAMPLE}; size = m, the kernel system's size; lambda_search: "
            "estimator._lambda_search (select_lambda without its input checks) on the "
            "precomputed m x m Gram of a d = 1 sample (lambda_search_d3: of a d = 3 "
            "sample; lambda_search_mcmc_d3: of an m-step Metropolis chain targeting "
            "N(0, I_3), step 1.0, as in the benchmark's mcmc_cv_d3).  output_deviation: "
            "one study_d1 request (10 replications) and one mcmc_cv_d3 request "
            "(master_seed 1), the largest relative estimate deviation per n and method "
            "between the sides, and whether every lambda is identical"
        ),
    },
    "split_memory": {
        "topic": "each kernel fit holds at most two m x m matrices: K0 let go after the "
                 "fit, K10 and K1 assembled after it",
        "layer": "estimator: the working set of the kernel fit and the split estimators",
        "sizes": (500, 2000, 4000),
        "cases": _split_memory_cases,
        "method": (
            f"{SAMPLE}, in d = 1 (suffix _d1) and d = 3 (_d3); size = n; "
            "cf_split_estimate_bound: cf_split_estimate with a random m = n/2 fitting "
            "set and compute_discrepancy=True; cf_weights: the same split's weights; "
            "cf_simplified_estimate: m = n.  An m x m float64 matrix takes 8m^2 bytes.  "
            f"cfmc_estimate_bound/2000: {BOUND_PROCESS}"
        ),
    },
    "lambda_select": {
        "topic": "lambda selection: guarded Cholesky tests and the top eigenvalue they start from",
        "layer": "estimator: select_lambda (regularisation choice)",
        "sizes": (100, 150, 200, 250, 500, 1000, 2000),
        "cases": _lambda_select_cases,
        "method": (
            f"{SAMPLE}; size = m, the kernel system's size; select_lambda on the "
            "precomputed m x m Gram of a d = 1 sample (select_lambda_d3: of a d = 3 "
            "sample; select_lambda_mcmc_d3: of an m-step Metropolis chain targeting "
            "N(0, I_3), step 1.0, with repeated states, as in the benchmark's "
            "mcmc_cv_d3; select_lambda_guarded_at_every_size: d = 1 with the guarded "
            "cutoff set to 0 where the source has one, so before is always eigvalsh); "
            "cf_split_estimate on n = 2m points with a random m-point fitting set and "
            "compute_discrepancy=True; cf_simplified_estimate on n = m points"
        ),
    },
}

UNIT = ("ms of CPU time per call, median over repeats: scaled to the reference speed for "
        "an in-process case, raw for a child command")
TIMING = (
    "one fresh worker per side, case and repeat, sides alternating; a worker builds its "
    "topic's inputs and calls only its own case, at every size that offers it.  An "
    "in-process case (key name/size): one warm-up call, then the mean CPU time of "
    f"max({MIN_CALLS}, ceil({TIMED_S} s / the warm-up's CPU time)) timed calls "
    f"(timed_calls_*), scaled by {Reference.NOMINAL_S} s over the mean of the perfbench "
    "reference rounds timed right before and after them (raw_cpu_*: unscaled; "
    "minor_faults_*: getrusage(RUSAGE_SELF).ru_minflt per timed call); then one call under "
    "tracemalloc (tracemalloc_peak_mib: its peak, the largest over the repeats; "
    "tracemalloc_peak_over_result: that peak over the result's bytes where the result is "
    "an array) and two spies: kernel_entries, the Stein-kernel entries it assembles (a "
    "Gram counts one triangle), and cholesky_test_sizes, the size of every Cholesky test "
    "(estimator._exceeds) of its lambda searches, in call order.  A child command (keyed "
    "by its name alone) runs once: CPU time (user + system, from os.wait4, not scaled), "
    "wall time (wall_*), ru_maxrss (maxrss_*) and ru_minflt (minor_faults_*).  "
    "result_bytes_identical: every result (an array by SHA-256, a child's stdout and any "
    "other value by repr) the same on both sides in every repeat"
)
# (record field, report label, scale) of each number reported by its median
# over the repeats, beside every repeat's value.
MEDIANS = (
    ("cpu_s", "median_ms", 1e3),
    ("raw_cpu_s", "raw_cpu_median_ms", 1e3),
    ("minflt", "minor_faults_median", 1.0),
    ("calls", "timed_calls_median", 1.0),
    ("wall_s", "wall_median_ms", 1e3),
    ("maxrss_mb", "maxrss_median_mb", 1.0),
)


def _run_worker(env: dict, topic: str, case: str = "") -> dict:
    """A worker's answer: the survey of ``topic`` without ``case``, else the
    records of ``case``."""
    # The script that started this run, so that a topic a wrapper script adds
    # to TOPICS is found in the worker too.
    out = subprocess.run(
        [sys.executable, sys.argv[0], "--topic", topic, "--worker", case],
        env=env, check=True, capture_output=True, text=True,
    ).stdout
    return json.loads(out.splitlines()[-1])


def _summary(runs: list[dict]) -> dict:
    """One side's medians over the repeats, every repeat's value, the largest
    peaks and the spies' counts, each over the cases whose records have
    them."""
    def values(field):
        return {k: [run[k][field] for run in runs]
                for k, record in runs[0].items() if record.get(field) is not None}

    summary = {}
    for field, label, scale in MEDIANS:
        for k, v in values(field).items():
            summary.setdefault(label, {})[k] = round(scale * statistics.median(v), 3)
            summary.setdefault(label.replace("median", "all"), {})[k] = [
                round(scale * x, 3) for x in v
            ]
    summary["iqr_over_median"] = {
        k: round((q[2] - q[0]) / statistics.median(v), 3)
        for k, v in values("cpu_s").items()
        for q in [statistics.quantiles(v, n=4)]
    }
    for field, label in (("peak_mib", "tracemalloc_peak_mib"),
                         ("peak_over_result", "tracemalloc_peak_over_result")):
        summary[label] = {k: round(max(v), 2) for k, v in values(field).items()}
    for field in ("kernel_entries", "cholesky_test_sizes"):
        summary[field] = {k: v[0] for k, v in values(field).items()}
    return {label: numbers for label, numbers in summary.items() if numbers}


def _row_deviation(before: list, after: list) -> dict:
    """Per n and method, the largest relative deviation of the estimates of
    matching rows, and whether every lambda is identical.  An estimate that
    is empty on one side only deviates by 1."""
    if len(before) != len(after):
        raise ValueError("the two sides returned different rows")
    worst, lambda_diffs = {}, 0
    for (method, n, a, lam_a), (method_b, n_b, b, lam_b) in zip(before, after):
        if (method, n) != (method_b, n_b):
            raise ValueError("the two sides returned different rows")
        lambda_diffs += lam_a != lam_b
        scale = max(abs(a), abs(b)) if None not in (a, b) else 0.0
        dev = abs(a - b) / scale if scale else float(a != b)
        key = f"n={n}"
        worst.setdefault(key, {})[method] = max(worst.get(key, {}).get(method, 0.0), dev)
    return {"max_relative_deviation": worst, "lambda_identical": lambda_diffs == 0,
            "rows": len(before)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--worker", nargs="?", const="", help=argparse.SUPPRESS)
    parser.add_argument("--topic", choices=sorted(TOPICS), required=True)
    parser.add_argument("--before")
    parser.add_argument("--after")
    parser.add_argument("--before-label", default="before")
    parser.add_argument("--after-label", default="after")
    parser.add_argument("--repeats", type=int, default=7)
    parser.add_argument("--out", help="default: BENCH_<topic>.json")
    args = parser.parse_args(argv)
    spec = TOPICS[args.topic]
    if args.worker is not None:
        print(json.dumps(_measure(spec, args.worker) if args.worker else _survey(spec)))
        return 0
    if not (args.before and args.after):
        parser.error("--before and --after are required")
    if args.repeats < 2:
        parser.error("--repeats must be at least 2, to give a spread")
    runs = {"before": [], "after": []}
    with tempfile.TemporaryDirectory() as samples:
        for rows in SAMPLE_ROWS:
            write_bound_sample(Path(samples) / f"bound_n{rows}.csv", rows, 1)
        envs = {side: dict(checkout_env(Path(src)), **{SAMPLES: samples})
                for side, src in (("before", args.before), ("after", args.after))}
        surveys = {side: _run_worker(env, args.topic) for side, env in envs.items()}
        names = surveys["before"]["cases"]
        if surveys["after"]["cases"] != names:
            raise SystemExit("the two sides offer different cases")
        for r in range(args.repeats):
            order = ("before", "after") if r % 2 == 0 else ("after", "before")
            records = {side: {} for side in order}
            for name in names:
                for side in order:
                    records[side].update(_run_worker(envs[side], args.topic, name))
            for side, run in records.items():
                runs[side].append(run)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    report = {
        "topic": spec["topic"],
        "layer": spec["layer"],
        "unit": UNIT,
        "repeats": args.repeats,
        "method": f"{TIMING}; {spec['method']}",
        "sizes": list(spec["sizes"]),
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": 1,
            "nproc": os.cpu_count(),
            "machine": platform.machine(),
        },
        "before": {"label": args.before_label, **_summary(runs["before"])},
        "after": {"label": args.after_label, **_summary(runs["after"])},
    }
    for _, label, _ in MEDIANS:
        if label in report["before"]:
            old, new = report["before"][label], report["after"][label]
            ratio = label.split("median")[0] + "after_over_before"
            report[ratio] = {k: round(new[k] / old[k], 3) if old[k] else None for k in old}
    differ = sorted({k for b, a in zip(runs["before"], runs["after"])
                     for k in b if b[k]["result"] != a[k]["result"]})
    report["result_bytes_identical"] = not differ
    if differ:
        report["results_differ"] = differ
    if "deviation_rows" in spec:
        report["output_deviation"] = _row_deviation(
            surveys["before"]["rows"], surveys["after"]["rows"]
        )
    with open(args.out or f"BENCH_{args.topic}.json", "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
