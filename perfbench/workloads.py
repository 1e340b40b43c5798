"""The benchmark's workloads: inputs made from the seed, requests, and checks.

Every workload is a closed loop with one client: request ``k`` starts only
after request ``k - 1`` has returned.  All inputs are derived from the
benchmark seed and the request index, so a seed fixes every input of every
request; the program only ever receives the generated inputs.

* ``study_d1`` -- the paper's d = 1 convergence study (the config bundled as
  ``paper_d1``, copied here) at one pool thread, ten replications per request.
* ``bound_n2000`` -- an analyst's loop of ``cfmc estimate FILE --method
  cf-split --bound --fnorm 1 --output json`` calls, each on its own
  pre-written sample file of n = 2000.
* ``mcmc_cv_d3`` -- a study on a random-walk Metropolis sample of the standard
  Gaussian in d = 3 (about 55% repeated rows), with cross-validated kernel
  methods, at one pool thread.

Every target integrates f(x) = sin((pi/d) * sum x_i) under N(0, I_d), so the
oracle mean is exactly 0.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# The regularisation grid the program promises (powers of ten, 1e-16 .. 1).
LAMBDA_GRID = frozenset(10.0**k for k in range(-16, 1))
KERNEL_METHODS = frozenset({"cf-split", "cf-simplified", "cf-multisplit"})
ORACLE_MEAN = 0.0

# The bundled paper_d1 config, a tenth of its replications per request: ten
# requests, each under its own master_seed, make the paper's 100.  A whole
# study per request (11 s) is too long for the reference samples around it
# to follow the host's speed.
STUDY_D1 = {
    "problem": "gaussian",
    "problem_params": {"d": 1},
    "n_grid": [10, 25, 50, 100, 200, 500],
    "replications": 10,
    "split_fraction": 0.5,
    "n_splits": 1,
    "methods": [
        {"method": "mean"},
        {"method": "zv1"},
        {"method": "zv2"},
        {"method": "riemann"},
        {"method": "cf-split", "alpha1": 0.1, "alpha2": 1.0},
        {"method": "cf-simplified", "alpha1": 0.1, "alpha2": 1.0},
    ],
}

CV_GRID = [[0.1, 1.0], [0.1, 2.0], [0.1, 0.5], [0.05, 1.5]]

MCMC_CV_D3 = {
    "problem": "metropolis-gaussian-d3",
    "problem_params": {},
    "n_grid": [25, 50, 100, 200],
    "replications": 5,
    "split_fraction": 0.5,
    "n_splits": 4,
    "methods": [
        {"method": "mean"},
        {"method": "zv2"},
        {"method": "cf-simplified", "cv_grid": CV_GRID},
        {"method": "cf-multisplit", "cv_grid": CV_GRID},
    ],
}

# Proposal scale of the Metropolis chain: in d = 3 it rejects about 55% of
# proposals, so about 55% of the rows repeat the previous state.
METROPOLIS_STEP = 1.0
MCMC_DIMENSION = 3

BOUND_N = 2000
WARMUP_N = 200


def derive(seed: int, *keys: int) -> int:
    """A 32-bit seed for one input, fixed by the benchmark seed and ``keys``."""
    return int(np.random.SeedSequence([seed, *keys]).generate_state(1)[0])


def metropolis_chain(rng: np.random.Generator, n: int, d: int, step: float) -> np.ndarray:
    """Random-walk Metropolis chain of length ``n`` targeting N(0, I_d).

    The chain starts from an exact draw, so every state is distributed as the
    target; a rejected proposal repeats the current state.
    """
    x = rng.standard_normal(d)
    moves = step * rng.standard_normal((n - 1, d))
    log_u = np.log(rng.random(n - 1))
    chain = np.empty((n, d))
    chain[0] = x
    log_p = -0.5 * float(x @ x)
    for i in range(n - 1):
        proposal = x + moves[i]
        log_q = -0.5 * float(proposal @ proposal)
        if log_u[i] < log_q - log_p:
            x, log_p = proposal, log_q
        chain[i + 1] = x
    return chain


def metropolis_problem(d: int = MCMC_DIMENSION, step: float = METROPOLIS_STEP):
    """Standard Gaussian target in dimension d, sampled by a Metropolis chain."""
    import cfmc

    def score(points):
        return -np.atleast_2d(points)

    def integrand(points):
        points = np.atleast_2d(points)
        return np.sin((np.pi / d) * points.sum(axis=1))

    def sampler(rng, n):
        return metropolis_chain(rng, n, d, step)

    return cfmc.TargetProblem(
        name=f"metropolis-gaussian-d{d}",
        dimension=d,
        score=score,
        sampler=sampler,
        integrand=integrand,
        true_mean=ORACLE_MEAN,
    )


def write_gaussian_sample(path: Path, seed_value: int, n: int) -> None:
    """Sample file of n draws from N(0, 1) with f = sin(pi x) and u = -x."""
    rng = np.random.Generator(np.random.Philox(seed_value))
    x = rng.standard_normal(n)
    with open(path, "w") as fh:
        fh.write("x_1,f,u_1\n")
        for xi, fi, ui in zip(x.tolist(), np.sin(np.pi * x).tolist(), (-x).tolist()):
            fh.write(f"{xi!r},{fi!r},{ui!r}\n")


class Stopwatch:
    """CPU time of this process, all threads together, and wall time.

    Request latencies are CPU seconds (``worker.py`` scales them to a
    reference speed): on a shared host wall time also counts the time other
    tenants hold the cores.  Wall time is kept alongside for the details.
    """

    def __init__(self):
        self.cpu = time.process_time()
        self.wall = time.perf_counter()

    def stop(self) -> tuple[float, float]:
        return time.process_time() - self.cpu, time.perf_counter() - self.wall


@dataclass
class Request:
    """What one request returned: rows are (request, method, n, replication,
    estimate, lambda) and ``failed`` counts rows that failed a check.
    ``latency`` is in CPU seconds and ``wall`` in wall seconds."""

    index: int
    latency: float
    rows: list = field(default_factory=list)
    failed: int = 0
    radius: float | None = None
    wall: float = 0.0


def _finite(value) -> bool:
    return isinstance(value, float) and math.isfinite(value)


def row_ok(method: str, estimate, lam) -> bool:
    """A row passes when its estimate is finite and its lambda is on the grid
    for kernel methods and absent otherwise."""
    if not _finite(estimate):
        return False
    if method in KERNEL_METHODS:
        return lam in LAMBDA_GRID
    return lam is None


def rmse(errors) -> float:
    errors = np.asarray(errors, dtype=float)
    return float(np.sqrt(np.mean(errors * errors))) if errors.size else 0.0


class StudyWorkload:
    """Replicated studies through ``cfmc.bench.run_experiment``, one per request."""

    def __init__(self, config, pool_threads, fixed_requests, warmup_grid, problem_factory, seed,
                 work_dir):
        self.config = config
        self.pool_threads = pool_threads
        self.fixed_requests = fixed_requests
        self.warmup_grid = warmup_grid
        self.problem_factory = problem_factory
        self.seed = seed
        self.work_dir = Path(work_dir)
        self.problem = None
        self.rows_per_request = (
            len(config["methods"]) * len(config["n_grid"]) * config["replications"]
        )

    def setup(self) -> None:
        self.work_dir.mkdir(parents=True, exist_ok=True)
        if self.problem_factory is not None:
            self.problem = self.problem_factory()
        warmup = dict(self.config, n_grid=self.warmup_grid, replications=1)
        self._run(warmup, derive(self.seed, 1))

    def _run(self, config, master_seed):
        import cfmc.bench

        parsed = cfmc.bench.load_config(dict(config, master_seed=master_seed))
        report = cfmc.bench.run_experiment(parsed, threads=self.pool_threads, problem=self.problem)
        cfmc.bench.write_csv(report, self.work_dir / "report.csv")
        cfmc.bench.write_json(report, self.work_dir / "report.json")
        return report

    def request(self, k: int) -> Request:
        watch = Stopwatch()
        report = self._run(self.config, derive(self.seed, 0, k))
        latency, wall = watch.stop()
        rows = [
            (k, r.method, r.n, r.replication, r.estimate, r.lambda_used) for r in report.rows
        ]
        return Request(k, latency, rows, self._failed_rows(rows), wall=wall)

    def _failed_rows(self, rows) -> int:
        """Rows that are missing, fail ``row_ok``, or differ from the written reports."""
        failed = self.rows_per_request - len(rows)
        with open(self.work_dir / "report.csv", newline="") as fh:
            written = list(csv.reader(fh))[1:]
        with open(self.work_dir / "report.json") as fh:
            summary = json.load(fh)
        reported = sum(
            cell["failures"] for cells in summary["cells"].values() for cell in cells.values()
        )
        if reported != sum(row[4] is None for row in rows):
            return self.rows_per_request
        for index, (_, method, n, rep, estimate, lam) in enumerate(rows):
            expected = [method, str(n), str(rep), repr(estimate), "" if lam is None else repr(lam)]
            ok = row_ok(method, estimate, lam) and index < len(written)
            failed += not (ok and written[index][:5] == expected)
        return failed

    def accuracy(self, requests) -> dict:
        """Accuracy against the oracle, pooled over ``requests``."""
        errors = {}
        for req in requests:
            for _, method, n, _, estimate, _ in req.rows:
                if _finite(estimate):
                    errors.setdefault((method, n), []).append(estimate - ORACLE_MEAN)
        n_max = max(self.config["n_grid"])
        cf_rmse = rmse(errors.get(("cf-simplified", n_max), []))
        result = {
            "accuracy.rmse.cf-simplified": cf_rmse,
            "accuracy.rmse.cf-split": rmse(errors.get(("cf-split", n_max), [])),
            "accuracy.mse_slope.cf-simplified": 0.0,
            "accuracy.bound_radius": 0.0,
            # Sanity gate: the control functional must beat the plain mean at
            # the largest n, or a "faster" program has lost the method's point.
            "sane": 0.0 < cf_rmse < rmse(errors.get(("mean", n_max), [])),
        }
        sizes = [n for n in self.config["n_grid"] if errors.get(("cf-simplified", n))]
        if len(sizes) >= 3:
            mse = [rmse(errors[("cf-simplified", n)]) ** 2 for n in sizes]
            result["accuracy.mse_slope.cf-simplified"] = float(
                np.polyfit(np.log(sizes), np.log(mse), 1)[0]
            )
        return result


class BoundWorkload:
    """The analyst's ``cfmc estimate ... --bound`` loop, one file per request."""

    pool_threads = 1
    fixed_requests = 16
    rows_per_request = 1

    def __init__(self, seed, seconds, work_dir):
        self.seed = seed
        self.work_dir = Path(work_dir)
        # Enough files for one each at three requests per second; later
        # requests reuse them in order.
        self.n_files = max(self.fixed_requests, 3 * int(seconds))
        self.files: list[Path] = []

    @staticmethod
    def argv(path) -> list[str]:
        return ["estimate", str(path), "--method", "cf-split", "--bound", "--fnorm", "1",
                "--output", "json"]

    def setup(self) -> None:
        self.work_dir.mkdir(parents=True, exist_ok=True)
        for i in range(self.n_files):
            path = self.work_dir / f"samples_{i}.csv"
            write_gaussian_sample(path, derive(self.seed, 0, i), BOUND_N)
            self.files.append(path)
        warmup = self.work_dir / "warmup.csv"
        write_gaussian_sample(warmup, derive(self.seed, 1), WARMUP_N)
        self._call(-1, warmup, WARMUP_N)

    def request(self, k: int) -> Request:
        return self._call(k, self.files[k % len(self.files)], BOUND_N)

    def _call(self, k: int, path, n: int) -> Request:
        import cfmc.cli

        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            watch = Stopwatch()
            try:
                code = cfmc.cli.main(self.argv(path))
            except SystemExit as exc:
                code = exc.code
            latency, wall = watch.stop()
        try:
            payload = json.loads(out.getvalue()) if code == 0 else {}
        except json.JSONDecodeError:
            payload = {}
        value = payload.get("value")
        lam = payload.get("lambda_used")
        disc = payload.get("discrepancy")
        radius = payload.get("bound_radius")
        ok = (
            code == 0
            and row_ok("cf-split", value, lam)
            and payload.get("n") == n
            and payload.get("m") == n // 2
            and _finite(disc)
            and disc >= 0.0
            and _finite(radius)
            and math.isclose(radius, math.sqrt(disc), rel_tol=1e-12, abs_tol=0.0)
        )
        rows = [(k, "cf-split", n, 0, value, lam)]
        return Request(k, latency, rows, int(not ok), radius if ok else None, wall)

    def accuracy(self, requests) -> dict:
        values = [r.rows[0][4] for r in requests if _finite(r.rows[0][4])]
        radii = [r.radius for r in requests if r.radius is not None]
        radius = statistics.median(radii) if radii else 0.0
        errors = [v - ORACLE_MEAN for v in values]
        return {
            "accuracy.rmse.cf-simplified": 0.0,
            "accuracy.rmse.cf-split": rmse(errors),
            "accuracy.mse_slope.cf-simplified": 0.0,
            "accuracy.bound_radius": radius,
            # The paper's bound holds for f in the hypothesis space; sin(pi x)
            # is not, so only require the radius to be a small positive number.
            "sane": 0.0 < radius < 1e-2,
        }


NAMES = ("study_d1", "bound_n2000", "mcmc_cv_d3")


def make(name: str, seed: int, seconds: int, work_dir):
    if name == "study_d1":
        return StudyWorkload(STUDY_D1, 1, 10, [10, 25, 50], None, seed, work_dir)
    if name == "mcmc_cv_d3":
        return StudyWorkload(MCMC_CV_D3, 1, 20, [25, 30, 40], metropolis_problem, seed, work_dir)
    if name == "bound_n2000":
        return BoundWorkload(seed, seconds, work_dir)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
