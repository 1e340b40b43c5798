"""Before/after CPU-time medians of one layer of cfmc, for ``BENCH_<topic>.json``.

    python tools/bench_layers.py --topic lambda_select --before OLD/src --after src \
        --before-label <commit> --after-label <commit>

``--topic`` picks the functions, sizes and description from ``TOPICS``:

* ``assembly_scratch``: the CPU time (scaled and raw) and the minor page
  faults per call of one ``mcmc_cv_d3`` cell through ``run_experiment`` at
  n in {25, 50, 100, 200}, and of one ``cfmc estimate --method cf-split
  --bound`` process on a d = 1 sample file of 2000 rows, with its wall time
  and peak RSS; plus the largest relative deviation of the estimates of one
  whole ``mcmc_cv_d3`` request between the two sides;
* ``gram_kernels``: the Grams of K in {2, 4} of the benchmark's CV kernels
  on one sample, at d in {1, 3} and n in {25, 50, 100, 200, 500}: by one
  shared assembly call where the source has it and by K ``gram_matrix``
  calls where it has not (``grams_K*``), and by K ``gram_matrix`` calls on
  both sides (``gram_matrix_x*``); and the one-kernel ``gram_matrix`` and
  ``stein_kernel_matrix`` at d in {1, 3} and n in {100, ..., 2000}, with
  raw CPU time and minor faults beside the scaled time.  The report says
  whether every result was the same bytes on both sides in every repeat,
  and gives the largest relative deviation of the estimates of one
  ``mcmc_cv_d3`` request;
* ``gram_blocks``: Stein-kernel assembly (``gram_matrix``,
  ``stein_kernel_matrix``) and the two kernel estimators at
  n in {20, ..., 2000}, with tracemalloc's peak over the result's bytes for
  the two assembly functions;
* ``lambda_select``: ``select_lambda`` on a precomputed Gram matrix (of an
  iid sample at d in {1, 3}, and of a d = 3 Metropolis chain) and the two
  kernel estimators at system sizes m in {100, ..., 2000};
* ``gram_inplace``: ``gram_matrix``, ``stein_kernel_matrix`` and
  ``cf_split_estimate`` with its discrepancy at d in {1, 3} and
  n in {10, ..., 2000}, with tracemalloc's peak over the result's bytes for
  the two assembly functions;
* ``gram_cache``: one cell of the benchmark's ``study_d1`` study (all six
  methods, n in {100, 200, 500}) and of its ``mcmc_cv_d3`` study
  (n in {100, 200}) through ``run_experiment``, and ``cf_split_estimate``
  with its discrepancy at n = 2000, with the Stein-kernel entries each call
  assembles; plus the largest relative deviation, per n, of the estimates of
  one whole ``mcmc_cv_d3`` request between the two sides;
* ``gram_rows``: the kernel-block path on cells that share no kernel, which
  no benchmark workload has: a d = 1 cell whose only kernel method is a
  cf-split, and one whose only kernel method is a 4-split cf-multisplit
  cross-validated over the benchmark's four kernels (n in {100, ..., 1000}),
  next to the ``study_d1`` and ``mcmc_cv_d3`` cells of ``gram_cache``; with
  the Stein-kernel entries of each call, tracemalloc's peak in MiB for the
  two lone cells, and the largest relative deviation of their estimates and
  of one ``mcmc_cv_d3`` request between the two sides;
* ``fit_solve``: the kernel system's factorisation and solves, through
  the fit ``estimator._fit_coefficients(k0, lambda_)`` on a precomputed Gram
  at m in {12, ..., 1000} and its surrogate solve, with lambda chosen by the
  rule and with it given, next to the ``study_d1`` and ``mcmc_cv_d3`` cells
  of ``gram_cache`` at n = 100; plus the largest relative deviation of the
  estimates of one whole ``mcmc_cv_d3`` request between the two sides.  Both
  sides must have the kernel fit value: a checkout whose
  ``_fit_coefficients`` still takes ``(k0, f0, lambda_)`` and returns a
  tuple cannot be the before side;
* ``cold_start``: process start-up, in fresh interpreters: the CPU time of
  ``import cfmc, cfmc.cli`` and the number of modules loaded after it, and
  the CPU time, wall time and peak RSS (the child's ``ru_maxrss``) of
  ``python -m cfmc estimate FILE --method cf-split --bound --fnorm 1
  --output json`` on d = 1 sample files of n in {200, 2000} rows; these
  are raw, not scaled, since nothing is warm.  The report says whether the
  two sides' estimate outputs were byte-identical in every repeat;
* ``gram_exact_passes``: ``gram_matrix`` and ``stein_kernel_matrix`` at
  n in {200, 500, 1000, 2000}, d in {1, 3} and alpha2 in {1.0, 1.5} (a
  power of two and not, the two sides of the kernel's division rule), and
  ``cf_split_estimate`` with its discrepancy at n = 2000.  The report says
  whether every result (each matrix by its SHA-256, the estimate by its
  repr) was the same bytes on both sides in every repeat, and gives the
  largest relative deviation of the estimates of one ``study_d1`` and one
  ``mcmc_cv_d3`` request;
* ``lambda_pivoted``: ``select_lambda`` on d = 1 Grams at
  m in {200, 250, 500, 1000}, and on the Grams of a d = 3 iid sample and of a
  d = 3 Metropolis chain at m in {200, 500}, and ``cf_split_estimate`` with
  its discrepancy at m = 1000.  The report says whether every result (each
  lambda and the estimate, by repr) was the same on both sides in every
  repeat, and gives the largest relative deviation of the estimates of one
  ``study_d1`` and one ``mcmc_cv_d3`` request;
* ``lambda_one_test``: the lambda search ``estimator._lambda_search``, without
  ``select_lambda``'s input checks, on d = 1 Grams at m in
  {200, 250, 500, 1000}, and on the Grams of a d = 3 iid sample and of a
  d = 3 Metropolis chain at m in {200, 500, 1000}, with the size of every
  Cholesky test (``estimator._exceeds``) one call runs.  The report says
  whether every lambda was the same on both sides in every repeat, and gives
  the largest relative deviation of the estimates of one ``study_d1`` and
  one ``mcmc_cv_d3`` request;
* ``split_memory``: the working set of the kernel estimators:
  ``cf_split_estimate`` with its discrepancy, ``cf_weights`` and
  ``cf_simplified_estimate`` at d in {1, 3} and n in {500, 2000, 4000}, with
  tracemalloc's peak of one call in MiB and over 8m^2 bytes, the size of one
  m x m matrix (m = n/2 for a split, n for the simplified estimator), and the
  wall time, CPU time and peak RSS (the child's ``ru_maxrss``) of one
  ``python -m cfmc estimate FILE --method cf-split --bound --fnorm 1 --output
  json`` process on a d = 1 sample file of 2000 rows, with every repeat's
  value beside the medians.  The report says whether every result (the
  estimates by repr, the weights by SHA-256, the process's stdout) was the
  same bytes on both sides in every repeat.

Each repeat runs one fresh worker per side, alternating which side goes
first, with every BLAS/OpenMP thread count pinned to 1.  A worker imports
``cfmc`` from the given source directory, makes one warm-up call per function
and size, then times each in CPU time (``time.process_time``), averaging
over enough calls at small sizes to span about 20 ms (a topic may ask for
more calls).  Each timing is scaled to the benchmark's reference speed: by
``Reference.NOMINAL_S`` over the mean of one ``perfbench/worker.py``
reference round timed right before it and one right after it, so a slow
spell of the shared host does not move a worker.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import inspect
import json
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

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from worker import Reference  # noqa: E402  (the benchmark's own reference round)
from workloads import CV_GRID, MCMC_CV_D3, STUDY_D1, metropolis_problem  # noqa: E402

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SAMPLE = "standard Gaussian sample with f = sin(pi x), alpha = (0.1, 1.0), automatic lambda"
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


@contextlib.contextmanager
def _counting_entries():
    """Count the Stein-kernel entries assembled inside the block: p*q for a
    cross block, p*(p+1)/2 for a Gram, of which only one triangle is
    evaluated."""
    import cfmc

    count = [0]
    original = cfmc.kernel._assemble

    def spy(x, u_x, y, u_y, kernels, upper):
        p, q = x.shape[0], y.shape[0]
        # A source before the shared pass passes one SteinKernelParams.
        matrices = len(kernels) if isinstance(kernels, (list, tuple)) else 1
        count[0] += matrices * (p * (p + 1) // 2 if upper else p * q)
        return original(x, u_x, y, u_y, kernels, upper)

    cfmc.kernel._assemble = spy
    try:
        yield count
    finally:
        cfmc.kernel._assemble = original


@contextlib.contextmanager
def _recording_cholesky_tests():
    """Record the size of every Cholesky test of the guarded lambda search
    run inside the block, in call order."""
    import cfmc

    sizes = []
    original = cfmc.estimator._exceeds

    def spy(k0, shift, work):
        sizes.append(k0.shape[0])
        return original(k0, shift, work)

    cfmc.estimator._exceeds = spy
    try:
        yield sizes
    finally:
        cfmc.estimator._exceeds = original


# A fresh interpreter: the CPU seconds of ``import cfmc, cfmc.cli`` and the
# number of modules loaded after it.
IMPORT_PROBE = """import sys, time
start = time.process_time()
import cfmc, cfmc.cli
print(time.process_time() - start, len(sys.modules))
"""
BOUND_COMMAND = ("--method", "cf-split", "--bound", "--fnorm", "1", "--output", "json")


def _child(argv: list[str]) -> tuple[bytes, float, float, float, int]:
    """Run ``argv`` to its end: its stdout, wall seconds, CPU seconds, peak
    RSS in MB and minor page faults."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE)
    out = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode:
        raise subprocess.CalledProcessError(proc.returncode, argv)
    return out, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, usage.ru_minflt


def _estimate_processes(sizes) -> tuple[dict, dict, dict, dict, dict]:
    """(stdout, wall seconds, CPU seconds, peak RSS in MB, minor page
    faults) of one fresh ``cfmc estimate --bound`` process per sample size,
    keyed ``cfmc_estimate_bound/<n>``, on the worker's PYTHONPATH and thread
    settings."""
    import cfmc

    outputs, wall, cpu, rss, faults = {}, {}, {}, {}, {}
    with tempfile.TemporaryDirectory() as tmp:
        for n in sizes:
            sample = Path(tmp) / f"sample_n{n}.csv"
            rng = np.random.default_rng(n)
            cfmc.write_sample_file(sample, cfmc.gaussian_problem(1).dataset(rng, n))
            key = f"cfmc_estimate_bound/{n}"
            out, wall[key], cpu[key], rss[key], faults[key] = _child(
                [sys.executable, "-m", "cfmc", "estimate", str(sample), *BOUND_COMMAND]
            )
            outputs[key] = out.decode()
    return outputs, wall, cpu, rss, faults


def _cold_start(spec) -> dict:
    """One repeat of the cold_start topic, each process a fresh interpreter."""
    out, _, _, _, _ = _child([sys.executable, "-c", IMPORT_PROBE])
    seconds, modules = out.split()
    outputs, wall, cpu, rss, _ = _estimate_processes(spec["sizes"])
    cpu["import_cfmc_cli"] = float(seconds)
    return {"cpu_s": cpu, "wall_s": wall, "maxrss_mb": rss, "modules": int(modules),
            "outputs": outputs, "peak_over_result": {}, "peak_mib": {},
            "kernel_entries": {}, "rows": []}


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
    return cases


def _split_memory(spec) -> dict:
    """One repeat of the split_memory topic: one fresh ``cfmc estimate
    --bound`` process at n = 2000, then the in-process cases.  The process
    goes first: a child's ``ru_maxrss`` counts the peak of its parent's
    memory up to the fork, which the cases would raise."""
    outputs, wall, cpu, rss, _ = _estimate_processes((2000,))
    report = _measure_cases(spec)
    report["outputs"].update(outputs)
    report.update(wall_s=wall, process_cpu_s=cpu, maxrss_mb=rss)
    return report


def _assembly_scratch_cases(n):
    return {"mcmc_cv_d3_cell": _study(MCMC_CV_D3, [n], 1, n, metropolis_problem())}


def _assembly_scratch(spec) -> dict:
    """One repeat of the assembly_scratch topic: one fresh ``cfmc estimate
    --bound`` process at n = 2000, then the in-process cells."""
    outputs, wall, cpu, rss, faults = _estimate_processes((2000,))
    report = _measure_cases(spec)
    report["outputs"] = outputs
    report["minflt"].update(faults)
    report.update(wall_s=wall, process_cpu_s=cpu, maxrss_mb=rss)
    return report


TOPICS = {
    "assembly_scratch": {
        "topic": "one Stein-Gram block scratch per thread, kept between assemblies",
        "layer": "kernel: _assemble's block workspace (Stein-Gram assembly)",
        "sizes": (25, 50, 100, 200),
        "measure": _assembly_scratch,
        "cases": _assembly_scratch_cases,
        "peak": (),
        "loops": lambda size: max(5, 1000 // size),
        "faults": True,
        "deviation_rows": _mcmc_request_rows,
        "timing": (
            "one fresh worker per side and repeat, sides alternating; one warm-up "
            "call, then the mean of max(5, 1000 // n) timed calls, scaled by "
            f"{Reference.NOMINAL_S} s over the mean of the perfbench reference rounds "
            "timed right before and after them"
        ),
        "method": (
            "size = n; mcmc_cv_d3_cell: run_experiment of the benchmark's mcmc_cv_d3 "
            "study on one cell of n rows (one replication, master_seed n): a "
            "Metropolis chain targeting N(0, I_3) and cf-split, cf-simplified and a "
            "4-split cf-multisplit, each cross-validated over the benchmark's four "
            "CV_GRID kernels.  raw_cpu_*: the same CPU time unscaled; "
            "minor_faults_*: getrusage(RUSAGE_SELF).ru_minflt over the timed calls, "
            "per call.  cfmc_estimate_bound/2000: `python -m "
            "cfmc estimate FILE --method cf-split --bound --fnorm 1 --output json` on "
            "a d = 1 standard Gaussian sample file of 2000 rows (f = sin(pi x), "
            "default_rng(2000)) as a child process: wall time, CPU time (user + "
            "system, from os.wait4, not scaled), ru_maxrss and ru_minflt, each "
            "repeat's value under the matching *_all_* key.  "
            "estimate_outputs_identical: the process's stdout the same on both sides "
            "in every repeat.  output_deviation: one mcmc_cv_d3 request (master_seed "
            "1), the largest relative estimate deviation per n and method between the "
            "sides, and whether every lambda is identical"
        ),
    },
    "gram_kernels": {
        "topic": "one Stein-Gram pass for all the kernels a cell shares: the kernel-free "
                 "terms made once, not once per kernel",
        "layer": "kernel: _assemble (Stein-Gram assembly), several kernels and one",
        "sizes": (25, 50, 100, 200, 500, 1000, 2000),
        "cases": _gram_kernels_cases,
        "peak": (),
        "faults": True,
        "digests": True,
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
            "result_bytes_identical: every call's result (each matrix by SHA-256) the "
            "same on both sides in every repeat.  raw_cpu_*: the same CPU time "
            "unscaled; minor_faults_*: getrusage(RUSAGE_SELF).ru_minflt over the timed "
            "calls, per call.  output_deviation: one mcmc_cv_d3 "
            "request (master_seed 1), the largest relative estimate deviation per n and "
            "method between the sides, and whether every lambda is identical"
        ),
    },
    "gram_blocks": {
        "topic": "Stein-kernel Gram assembly in cache-sized row blocks",
        "layer": "kernel: gram_matrix / stein_kernel_matrix (Stein-Gram assembly)",
        "sizes": (20, 50, 200, 500, 1000, 2000),
        "cases": _kernel_cases,
        "peak": ("gram_matrix", "stein_kernel_matrix"),
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
        "peak": tuple(f"{name}_d{d}" for d in (1, 3)
                      for name in ("gram_matrix", "stein_kernel_matrix")),
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
        "peak": (),
        "entries": True,
        "deviation_rows": _mcmc_request_rows,
        "method": (
            "size = n; study_d1_cell: run_experiment of the benchmark's study_d1 config "
            "(mean, zv1, zv2, riemann, cf-split, cf-simplified at alpha = (0.1, 1.0)) on "
            "one cell, n_grid [n], one replication, master_seed n; mcmc_cv_d3_cell: the "
            "same for its mcmc_cv_d3 config (Metropolis N(0, I_3) sample, cf-simplified "
            "and 4-split cf-multisplit, both cross-validated over four kernels); "
            f"cf_split_estimate_bound: the d = 1 {SAMPLE}, m = n/2, compute_discrepancy="
            "True.  kernel_entries: Stein-kernel entries per call (a Gram counts one "
            "triangle).  output_deviation: one whole mcmc_cv_d3 request "
            "(master_seed 1), the largest relative estimate deviation per n and method "
            "between the sides, and whether every lambda is identical"
        ),
    },
    "gram_rows": {
        "topic": "one kernel-block path: a Gram-rows view and one _block function",
        "layer": "estimator: kernel blocks of cells that share no kernel, and of shared cells",
        "sizes": (100, 200, 500, 1000),
        "cases": _gram_rows_cases,
        "peak": (),
        "peak_mib": ("lone_cf_split_cell", "lone_cv_multisplit_cell"),
        "entries": True,
        "deviation_rows": _gram_rows_request_rows,
        "method": (
            "size = n; lone_cf_split_cell: run_experiment of the benchmark's study_d1 "
            "config with cf-split at alpha = (0.1, 1.0) as its only method, on one cell, "
            "n_grid [n], one replication, master_seed n; lone_cv_multisplit_cell: the "
            "same with a 4-split cf-multisplit cross-validated over the benchmark's four "
            "kernels as its only method; study_d1_cell and mcmc_cv_d3_cell as in "
            "BENCH_gram_cache.json.  kernel_entries: Stein-kernel entries per call (a "
            "Gram counts one triangle).  tracemalloc_peak_mib: the largest tracemalloc "
            "peak of one call over the repeats.  output_deviation: both lone studies "
            "over study_d1's n_grid with two replications (master_seed 1), then one "
            "whole mcmc_cv_d3 request (master_seed 1); the largest relative estimate "
            "deviation per n and method between the sides, and whether every lambda is "
            "identical"
        ),
    },
    "fit_solve": {
        "topic": "Cholesky factor and solves of the kernel system straight from LAPACK",
        "layer": "estimator: Cholesky and triangular solves (_fit_coefficients)",
        "sizes": (12, 25, 50, 100, 250, 1000),
        "cases": _fit_solve_cases,
        "peak": (),
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
        "measure": _cold_start,
        "unit": "ms of CPU time, raw (not scaled), median over repeats",
        "timing": "one fresh worker per side and repeat, sides alternating; each "
                  "number from its own fresh interpreter, run once",
        "method": (
            "import_cfmc_cli: CPU time of `import cfmc, cfmc.cli` in a fresh "
            "interpreter (modules_loaded: len(sys.modules) after it); "
            "cfmc_estimate_bound/n: `python -m cfmc estimate FILE --method cf-split "
            "--bound --fnorm 1 --output json` on a d = 1 standard Gaussian sample file "
            "of n rows (f = sin(pi x), default_rng(n)), as a child process: CPU time "
            "(user + system, from os.wait4), wall time and ru_maxrss.  "
            "estimate_outputs_identical: every repeat's stdout the same bytes on both "
            "sides"
        ),
    },
    "gram_exact_passes": {
        "topic": "Stein-Gram blocks without the passes IEEE arithmetic makes redundant",
        "layer": "kernel: gram_matrix / stein_kernel_matrix (Stein-Gram assembly)",
        "sizes": (200, 500, 1000, 2000),
        "cases": _gram_exact_cases,
        "peak": (),
        "digests": True,
        "deviation_rows": _study_d1_and_mcmc_request_rows,
        "method": (
            "standard Gaussian sample with f = sin(pi x), alpha1 = 0.1, automatic lambda, "
            "in d = 1 (_d1) and d = 3 (_d3), at alpha2 = 1.0 (a power of two: no "
            "division pass, or a multiply) and 1.5 (divisions kept); size = n; "
            "stein_kernel_matrix between two independent n-point samples; "
            "cf_split_estimate_bound: d = 1, alpha2 = 1.0, m = n/2, compute_discrepancy="
            "True.  result_bytes_identical: every call's result (matrix bytes by "
            "SHA-256, estimate by repr) the same on both sides in every repeat.  "
            "output_deviation: one study_d1 request (10 replications) and one "
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
        "peak": (),
        "digests": True,
        "deviation_rows": _study_d1_and_mcmc_request_rows,
        "method": (
            f"{SAMPLE}; size = m, the kernel system's size; select_lambda on the "
            "precomputed m x m Gram of a d = 1 sample (select_lambda_d3: of a d = 3 "
            "sample; select_lambda_mcmc_d3: of an m-step Metropolis chain targeting "
            "N(0, I_3), step 1.0, as in the benchmark's mcmc_cv_d3); "
            "cf_split_estimate_bound: cf_split_estimate on n = 2m points with a random "
            "m-point fitting set and compute_discrepancy=True.  result_bytes_identical: "
            "every call's result (lambda and estimate by repr) the same on both sides "
            "in every repeat.  output_deviation: one study_d1 request (10 "
            "replications) and one mcmc_cv_d3 request (master_seed 1), the largest "
            "relative estimate deviation per n and method between the sides, and "
            "whether every lambda is identical"
        ),
    },
    "lambda_one_test": {
        "topic": "lambda selection: one test of lambda_min(K0) > tau, answered by the "
                 "pivoted factor's bounds where they can, for accept and reject tests alike",
        "layer": "estimator: select_lambda (regularisation choice)",
        "sizes": (200, 250, 500, 1000),
        "cases": _lambda_one_test_cases,
        "loops": lambda size: max(5, 4_000_000 // (size * size)),
        "timing": (
            "one fresh worker per side and repeat, sides alternating; one warm-up "
            "call, then the mean of max(5, 4000000 // size^2) timed calls, scaled by "
            f"{Reference.NOMINAL_S} s over the mean of the perfbench reference rounds "
            "timed right before and after them"
        ),
        "peak": (),
        "digests": True,
        "cholesky_tests": True,
        "deviation_rows": _study_d1_and_mcmc_request_rows,
        "method": (
            f"{SAMPLE}; size = m, the kernel system's size; lambda_search: "
            "estimator._lambda_search (select_lambda without its input checks) on the "
            "precomputed m x m Gram of a d = 1 sample (lambda_search_d3: of a d = 3 "
            "sample; lambda_search_mcmc_d3: of an m-step Metropolis chain targeting "
            "N(0, I_3), step 1.0, as in the benchmark's mcmc_cv_d3).  cholesky_test_sizes: the matrix size of "
            "every Cholesky test (estimator._exceeds) one call runs, in call order; "
            "cholesky_tests: their number.  result_bytes_identical: every lambda, by "
            "repr, the same on both sides in every repeat.  output_deviation: one "
            "study_d1 request (10 replications) and one mcmc_cv_d3 request (master_seed "
            "1), the largest relative estimate deviation per n and method between the "
            "sides, and whether every lambda is identical"
        ),
    },
    "split_memory": {
        "topic": "each kernel fit holds at most two m x m matrices: K0 let go after the "
                 "fit, K10 and K1 assembled after it",
        "layer": "estimator: the working set of the kernel fit and the split estimators",
        "sizes": (500, 2000, 4000),
        "measure": _split_memory,
        "cases": _split_memory_cases,
        "peak": (),
        "peak_mib": tuple(f"{name}_d{d}" for d in (1, 3) for name in SPLIT_MEMORY_NAMES),
        # m: n/2 for a split, n for the simplified estimator.
        "peak_square": lambda name, n: n if name.startswith("cf_simplified") else n // 2,
        "digests": True,
        "method": (
            f"{SAMPLE}, in d = 1 (suffix _d1) and d = 3 (_d3); size = n; "
            "cf_split_estimate_bound: cf_split_estimate with a random m = n/2 fitting "
            "set and compute_discrepancy=True; cf_weights: the same split's weights; "
            "cf_simplified_estimate: m = n.  tracemalloc_peak_mib: the largest "
            "tracemalloc peak of one call over the repeats; tracemalloc_peak_over_8m2: "
            "that peak over 8m^2 bytes, one m x m float64 matrix.  "
            "cfmc_estimate_bound/2000: `python -m cfmc estimate FILE --method cf-split "
            "--bound --fnorm 1 --output json` on a d = 1 standard Gaussian sample file "
            "of 2000 rows (f = sin(pi x), default_rng(2000)) as a child process, wall "
            "time, CPU time (user + system, from os.wait4, not scaled) and ru_maxrss, "
            "each repeat's value under the matching *_all_* key.  result_bytes_identical: every call's result "
            "(estimates by repr, weights by SHA-256, the process's stdout) the same on "
            "both sides in every repeat"
        ),
    },
    "lambda_select": {
        "topic": "lambda selection: guarded Cholesky tests and the top eigenvalue they start from",
        "layer": "estimator: select_lambda (regularisation choice)",
        "sizes": (100, 150, 200, 250, 500, 1000, 2000),
        "cases": _lambda_select_cases,
        "peak": (),
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


def measure(topic: str) -> dict:
    """One repeat of ``topic``, by its own ``measure`` if it has one."""
    spec = TOPICS[topic]
    return spec.get("measure", _measure_cases)(spec)


def _measure_cases(spec) -> dict:
    """One repeat of the topic's cases: CPU seconds per (function, size),
    assembly peak ratios, and where the topic asks for them, peaks in MiB
    (and over 8m^2 bytes), kernel entries and output rows."""
    reference = Reference()
    times, peaks, peaks_mib, entries, cholesky, outputs = {}, {}, {}, {}, {}, {}
    raw, minflt = {}, {}
    squares = {}
    for size in spec["sizes"]:
        # At least ~20 ms per timing at small sizes, unless the topic asks for more.
        loops = spec.get("loops", lambda size: max(1, 200_000 // (size * size)))(size)
        for name, call in spec["cases"](size).items():
            if spec.get("digests"):  # of the warm-up call
                outputs[f"{name}/{size}"] = _digest(call())
            else:
                call()
            before = reference.sample()
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            start = time.process_time()
            for _ in range(loops):
                call()
            cpu = (time.process_time() - start) / loops
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
            speed = Reference.NOMINAL_S / (0.5 * (before + reference.sample()))
            times[f"{name}/{size}"] = cpu * speed
            if spec.get("faults"):
                raw[f"{name}/{size}"] = cpu
                minflt[f"{name}/{size}"] = faults / loops
            if name in spec["peak"] or name in spec.get("peak_mib", ()):
                tracemalloc.start()
                try:
                    result = call()
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                if name in spec["peak"]:
                    peaks[f"{name}/{size}"] = peak / result.nbytes
                else:
                    peaks_mib[f"{name}/{size}"] = peak / 2**20
                if "peak_square" in spec:
                    squares[f"{name}/{size}"] = peak / (8 * spec["peak_square"](name, size) ** 2)
            if spec.get("entries"):
                with _counting_entries() as count:
                    call()
                entries[f"{name}/{size}"] = count[0]
            if spec.get("cholesky_tests"):
                with _recording_cholesky_tests() as sizes:
                    call()
                cholesky[f"{name}/{size}"] = sizes
    rows = spec["deviation_rows"]() if "deviation_rows" in spec else []
    report = {"cpu_s": times, "peak_over_result": peaks, "peak_mib": peaks_mib,
              "kernel_entries": entries, "rows": rows}
    if outputs:
        report["outputs"] = outputs
    if squares:
        report["peak_over_square"] = squares
    if cholesky:
        report["cholesky_test_sizes"] = cholesky
    if spec.get("faults"):
        report.update(raw_cpu_s=raw, minflt=minflt)
    return report


def _run_worker(src: str, topic: str) -> dict:
    env = dict(os.environ, PYTHONPATH=src, **{v: "1" for v in THREAD_VARS})
    out = subprocess.run(
        [sys.executable, __file__, "--worker", "--topic", topic],
        env=env, check=True, capture_output=True, text=True,
    ).stdout
    return json.loads(out.splitlines()[-1])


def _summary(runs: list[dict]) -> dict:
    cpu = {k: [r["cpu_s"][k] for r in runs] for k in runs[0]["cpu_s"]}
    peak = {k: max(r["peak_over_result"][k] for r in runs) for k in runs[0]["peak_over_result"]}
    summary = {
        "median_ms": {k: round(1e3 * statistics.median(v), 3) for k, v in cpu.items()},
        "all_ms": {k: [round(1e3 * t, 3) for t in v] for k, v in cpu.items()},
        "iqr_over_median": {
            k: round((q[2] - q[0]) / statistics.median(v), 3)
            for k, v in cpu.items()
            for q in [statistics.quantiles(v, n=4)]
        },
    }
    if peak:
        summary["tracemalloc_peak_over_result"] = {k: round(v, 2) for k, v in peak.items()}
    if runs[0]["peak_mib"]:
        summary["tracemalloc_peak_mib"] = {
            k: round(max(r["peak_mib"][k] for r in runs), 2) for k in runs[0]["peak_mib"]
        }
    if "peak_over_square" in runs[0]:
        summary["tracemalloc_peak_over_8m2"] = {
            k: round(max(r["peak_over_square"][k] for r in runs), 2)
            for k in runs[0]["peak_over_square"]
        }
    if runs[0]["kernel_entries"]:
        summary["kernel_entries"] = runs[0]["kernel_entries"]
    if "cholesky_test_sizes" in runs[0]:
        sizes = runs[0]["cholesky_test_sizes"]
        summary["cholesky_tests"] = {k: len(v) for k, v in sizes.items()}
        summary["cholesky_test_sizes"] = sizes
    for name, label, scale in (("wall_s", "wall_median_ms", 1e3),
                               ("process_cpu_s", "process_cpu_median_ms", 1e3),
                               ("raw_cpu_s", "raw_cpu_median_ms", 1e3),
                               ("minflt", "minor_faults_median", 1.0),
                               ("maxrss_mb", "maxrss_median_mb", 1.0)):
        if name in runs[0]:
            summary[label] = {
                k: round(scale * statistics.median(r[name][k] for r in runs), 3)
                for k in runs[0][name]
            }
            summary[label.replace("median", "all")] = {
                k: [round(scale * r[name][k], 3) for r in runs] for k in runs[0][name]
            }
    if "modules" in runs[0]:
        summary["modules_loaded"] = sorted({r["modules"] for r in runs})
    return summary


def _row_deviation(before: list, after: list) -> dict:
    """Per n and method, the largest relative deviation of the estimates of
    matching rows, and whether every lambda is identical."""
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
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--topic", choices=sorted(TOPICS), required=True)
    parser.add_argument("--before")
    parser.add_argument("--after")
    parser.add_argument("--before-label", default="before")
    parser.add_argument("--after-label", default="after")
    parser.add_argument("--repeats", type=int, default=7)
    parser.add_argument("--out", help="default: BENCH_<topic>.json")
    args = parser.parse_args(argv)
    if args.worker:
        print(json.dumps(measure(args.topic)))
        return 0
    if not (args.before and args.after):
        parser.error("--before and --after are required")
    if args.repeats < 2:
        parser.error("--repeats must be at least 2, to give a spread")
    sides = {"before": (args.before, []), "after": (args.after, [])}
    for r in range(args.repeats):
        order = ("before", "after") if r % 2 == 0 else ("after", "before")
        for side in order:
            src, runs = sides[side]
            runs.append(_run_worker(src, args.topic))
    spec = TOPICS[args.topic]
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    report = {
        "topic": spec["topic"],
        "layer": spec["layer"],
        "unit": spec.get(
            "unit", "ms of CPU time per call at the reference speed, median over repeats"
        ),
        "repeats": args.repeats,
        # A topic that sets its own number of timed calls states it in its own
        # timing sentence; the default sentence gives the default number.
        "method": (spec["timing"] if "loops" in spec else spec.get("timing", (
            "one fresh worker per side and repeat, sides alternating; one warm-up "
            "call, then the mean of max(1, 200000 // size^2) timed calls, scaled by "
            f"{Reference.NOMINAL_S} s over the mean of the perfbench reference rounds "
            "timed right before and after them"
        ))) + "; " + spec["method"],
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
        "before": {"label": args.before_label, **_summary(sides["before"][1])},
        "after": {"label": args.after_label, **_summary(sides["after"][1])},
    }
    before, after = report["before"]["median_ms"], report["after"]["median_ms"]
    report["after_over_before"] = {k: round(after[k] / before[k], 3) for k in before}
    for name, label in (("wall_median_ms", "wall_after_over_before"),
                        ("process_cpu_median_ms", "process_cpu_after_over_before"),
                        ("raw_cpu_median_ms", "raw_cpu_after_over_before"),
                        ("minor_faults_median", "minor_faults_after_over_before"),
                        ("maxrss_median_mb", "maxrss_after_over_before")):
        if name in report["after"]:
            old, new = report["before"][name], report["after"][name]
            report[label] = {k: round(new[k] / old[k], 3) if old[k] else None for k in old}
    if "outputs" in sides["before"][1][0]:
        identical = "result_bytes_identical" if spec.get("digests") else "estimate_outputs_identical"
        report[identical] = all(
            b["outputs"] == a["outputs"] for b, a in zip(sides["before"][1], sides["after"][1])
        )
    if "deviation_rows" in spec:
        report["output_deviation"] = _row_deviation(
            sides["before"][1][0]["rows"], sides["after"][1][0]["rows"]
        )
    with open(args.out or f"BENCH_{args.topic}.json", "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
