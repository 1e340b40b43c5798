"""Replicated convergence experiments with machine-readable reports.

An experiment draws, for every sample size in a grid and every replication,
one dataset from a target problem; every configured method then consumes the
bit-identical dataset.  Per-cell bias/variance/MSE and per-method log-log MSE
slopes are aggregated into a report that serialises to CSV (one row per
method, sample size and replication) and JSON (summary statistics).

Randomness is counter-based: the stream for a cell is keyed by
(master_seed, n, replication), so enlarging the grid or the replication count
never perturbs existing cells, and parallel execution reproduces the
sequential results exactly.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import MISSING, asdict, dataclass, field, fields

import numpy as np

from . import baselines
from .data import ScoredDataset, _split_size, random_split
from .errors import CfmcError, InvalidInputError, _bad, _count, _fraction
from .estimator import (
    Estimate,
    _GramRows,
    _lambda_value,
    cf_multisplit_estimate,
    cf_simplified_estimate,
    cf_split_estimate,
    cross_validate,
)
from .kernel import SteinKernelParams, _cv_grid
from .targets import TargetProblem, gaussian_problem, mixture_problem, oracle_mean

# Version of the report and ``cfmc estimate --output json`` layouts.
SCHEMA_VERSION = 1


@dataclass(frozen=True)
class MethodSpec:
    """One estimator to run in an experiment.

    ``alpha1``/``alpha2`` fix the kernel hyper-parameters unless a non-empty
    ``cv_grid`` is given, in which case they are selected per replication by
    hold-out validation on the fitting samples.  ``label`` names the method
    in reports and defaults to the tag.  Every field is checked here.
    """

    method: str
    alpha1: float = 0.1
    alpha2: float = 1.0
    lambda_: float | None = None
    cv_grid: tuple[SteinKernelParams, ...] | None = None
    label: str | None = None

    def __post_init__(self):
        if not (isinstance(self.method, str) and self.method in METHODS):
            raise _bad("method", f"one of {', '.join(METHODS)}", self.method)
        params = SteinKernelParams(self.alpha1, self.alpha2)
        object.__setattr__(self, "alpha1", params.alpha1)
        object.__setattr__(self, "alpha2", params.alpha2)
        object.__setattr__(self, "lambda_", _lambda_value(self.lambda_))
        if self.cv_grid is not None:
            object.__setattr__(self, "cv_grid", _cv_grid(self.cv_grid))
        if not (self.label is None or isinstance(self.label, str)):
            raise _bad("label", "a string or None", self.label)

    @property
    def name(self) -> str:
        return self.label or self.method

    def kernel_params(self) -> SteinKernelParams:
        return SteinKernelParams(alpha1=self.alpha1, alpha2=self.alpha2)


@dataclass(frozen=True, kw_only=True)
class ExperimentConfig:
    """Full description of a replicated convergence study; checks every field."""

    problem: str
    problem_params: dict = field(default_factory=dict)
    n_grid: tuple[int, ...]
    replications: int
    methods: tuple[MethodSpec, ...]
    master_seed: int
    split_fraction: float = 0.5
    n_splits: int = 1

    def __post_init__(self):
        if not isinstance(self.problem, str):
            raise _bad("problem", "a string", self.problem)
        if not isinstance(self.problem_params, dict):
            raise _bad("problem_params", "a dict (a JSON object)", self.problem_params)
        sizes = enumerate(_items("n_grid", self.n_grid))
        grid = tuple(_count(f"n_grid[{i}]", n, 2) for i, n in sizes)
        if not grid or any(b <= a for a, b in zip(grid, grid[1:])):
            raise _bad("n_grid", "non-empty and strictly ascending", grid)
        for name, minimum in (("replications", 1), ("master_seed", 0), ("n_splits", 1)):
            object.__setattr__(self, name, _count(name, getattr(self, name), minimum))
        methods = _items("methods", self.methods)
        if not methods or not all(isinstance(spec, MethodSpec) for spec in methods):
            raise _bad("methods", "a non-empty sequence of MethodSpec", methods)
        names = [spec.name for spec in methods]
        if len(set(names)) != len(names):
            raise _bad("methods", "uniquely labelled", names)
        object.__setattr__(self, "n_grid", grid)
        object.__setattr__(self, "methods", methods)
        fraction = _fraction("split_fraction", self.split_fraction)
        object.__setattr__(self, "split_fraction", fraction)


def _items(key: str, value) -> tuple:
    """``value`` as a tuple; errors name the setting ``key``."""
    try:
        return tuple(value)
    except TypeError:
        raise _bad(key, "a sequence", value) from None


def _kernel_grid(value) -> tuple[SteinKernelParams, ...]:
    """Kernels from a JSON list of ``[alpha1, alpha2]`` pairs."""
    pairs = _items("cv_grid", value)
    if not all(isinstance(pair, list) and len(pair) == 2 for pair in pairs):
        raise _bad("cv_grid", "a list of [alpha1, alpha2] pairs", value)
    try:
        return tuple(SteinKernelParams(a1, a2) for a1, a2 in pairs)
    except InvalidInputError as exc:
        raise InvalidInputError(f"cv_grid {exc}") from None


def _method(index: int, entry) -> MethodSpec:
    """The method object ``entry``; errors open with its path ``methods[index]``."""
    if not isinstance(entry, dict):
        raise _bad(f"methods[{index}]", "an object", entry)
    try:
        return MethodSpec(**_arguments(MethodSpec, entry))
    except InvalidInputError as exc:
        raise InvalidInputError(f"methods[{index}].{exc}") from None


# The JSON spellings of settings, by config key: how a JSON value becomes the
# value of its field.  Every other value is the field's value as it is.
_SPELLINGS = {
    "lambda": lambda value: None if value == "auto" else value,
    "cv_grid": lambda value: None if value is None else _kernel_grid(value),
    "methods": lambda value: tuple(
        _method(i, entry) for i, entry in enumerate(_items("methods", value))
    ),
}


def _config_keys(cls) -> dict:
    """The config keys of the dataclass ``cls``, each with its field: a key is
    the field's name without a trailing underscore (``lambda`` sets
    ``lambda_``)."""
    return {attr.name.rstrip("_"): attr for attr in fields(cls)}


def _arguments(cls, raw: dict) -> dict:
    """Keyword arguments for ``cls`` from the config object ``raw``, whose
    keys are all known: only the keys it sets, so defaults stay the class's."""
    keys = _config_keys(cls)
    return {
        keys[key].name: _SPELLINGS.get(key, lambda same: same)(value)
        for key, value in raw.items()
    }


def load_config(source) -> ExperimentConfig:
    """Build an :class:`ExperimentConfig` from a JSON file path or a dict.

    The keys are the fields of :class:`ExperimentConfig` and, inside each
    method entry, of :class:`MethodSpec` (``lambda`` sets ``lambda_`` and
    also takes ``"auto"``; a ``cv_grid`` is a list of ``[alpha1, alpha2]``
    pairs); a key left out takes the field's default.  Unknown keys, at the
    top level or inside a method entry, are all listed in a single error,
    and so are missing ones.  The dataclasses check every value; their
    errors are raised with the key's path, as in ``config key
    methods[0].alpha1 must be ...``.
    """
    if isinstance(source, dict):
        raw = source
    else:
        with open(source) as fh:
            try:
                raw = json.load(fh)
            except json.JSONDecodeError as exc:
                raise InvalidInputError(f"{source}: not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise InvalidInputError("config must be a JSON object")
    methods = raw.get("methods")
    objects = [("", ExperimentConfig, raw)] + [
        (f"methods[{i}].", MethodSpec, entry)
        for i, entry in enumerate(methods if isinstance(methods, list) else ())
        if isinstance(entry, dict)
    ]
    unknown, missing = [], []
    for where, cls, obj in objects:
        keys = _config_keys(cls)
        unknown += [where + key for key in sorted(set(obj) - set(keys))]
        missing += [where + key for key, attr in keys.items() if key not in obj
                    and attr.default is MISSING and attr.default_factory is MISSING]
    for kind, listed in (("unknown", unknown), ("missing", missing)):
        if listed:
            raise InvalidInputError(f"{kind} config keys: {', '.join(listed)}")
    try:
        return ExperimentConfig(**_arguments(ExperimentConfig, raw))
    except InvalidInputError as exc:
        raise InvalidInputError(f"config key {exc}") from None


def build_problem(config: ExperimentConfig) -> TargetProblem:
    """The built-in target of ``config``; unknown problem_params keys are listed in one error."""
    params, problem = config.problem_params, config.problem
    takes = {"gaussian": {"d"}, "mixture": {"weights", "means", "scales", "name"}}
    if problem not in takes:
        raise InvalidInputError(f"unknown problem {problem!r}; valid names: gaussian, mixture")
    unknown = sorted(f"problem_params.{key}" for key in set(params) - takes[problem])
    if unknown:
        raise InvalidInputError(f"unknown config keys: {', '.join(unknown)}")
    if not isinstance(params.get("name", ""), str):
        raise _bad("config key problem_params.name", "a string", params["name"])
    try:
        if problem == "gaussian":
            return gaussian_problem(_count("d", params.get("d", 1), 1))
        return mixture_problem(**params)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidInputError(
            f"config key problem_params: bad value {params!r} for {problem}: {exc}"
        ) from None


def _data_stream(master_seed: int, n: int, replication: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(entropy=master_seed, spawn_key=(n, replication, 0))


def _method_stream(master_seed: int, n: int, replication: int, index: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(entropy=master_seed, spawn_key=(n, replication, 1 + index))


def cell_dataset(config: ExperimentConfig, problem: TargetProblem, n: int, replication: int) -> ScoredDataset:
    """The dataset consumed by every method in cell (n, replication)."""
    rng = np.random.Generator(np.random.Philox(_data_stream(config.master_seed, n, replication)))
    return problem.dataset(rng, n)


# The tag of every estimator, in the order `MethodSpec` errors and `--method` list them.
METHODS = ("mean", "zv1", "zv2", "riemann", "cf-split", "cf-simplified", "cf-multisplit")

# The methods that need the normalised density, which sample files do not carry.
DENSITY_METHODS = frozenset({"riemann"})

_KERNEL_METHODS = frozenset({"cf-split", "cf-simplified", "cf-multisplit"})


def _shared_kernels(specs) -> frozenset:
    """The kernels that two or more kernel methods of ``specs`` can fit
    with: the ones worth one Gram of a cell's dataset, from which every
    later block is sliced.  A method can fit with its fixed kernel or with
    any entry of its ``cv_grid``.  (A cf-multisplit of two or more splits
    slices its splits from one Gram of its kernel by itself.)
    """
    uses = Counter()
    for spec in specs:
        if spec.method in _KERNEL_METHODS:
            uses.update(set(spec.cv_grid or (spec.kernel_params(),)))
    return frozenset(params for params, count in uses.items() if count >= 2)


def run_estimator(
    spec: MethodSpec, data: ScoredDataset, *, split_seed, cv_seed, split_fraction: float,
    n_splits: int, density=None, compute_discrepancy: bool = False,
) -> Estimate:
    """Run the method ``spec`` names on ``data``.

    mean, zv1, zv2 and riemann use neither seed; riemann needs ``density``,
    the normalised target density.  cf-split fits on a split of
    ``split_fraction`` of the samples drawn from ``split_seed``;
    cf-multisplit averages ``n_splits`` such splits.  A ``cv_grid`` is
    searched with the ``cv_seed`` stream: cf-split cross-validates on its
    own fitting set, cf-simplified on all samples, and cf-multisplit on the
    fitting set of one extra split drawn from ``cv_seed``.
    ``compute_discrepancy`` attaches D(D0, D1) to a cf-split estimate.
    """
    method = spec.method
    if method in ("zv1", "zv2"):
        return baselines.zv_estimate(data, degree=int(method[-1]))
    if method in ("mean", "riemann"):
        if method == "mean":
            value = baselines.arithmetic_mean(data.f_values)
        elif density is None:
            raise InvalidInputError("riemann baseline needs a d=1 problem with a density")
        else:
            value = baselines.riemann_1d(data, density)
        return Estimate(value=value, method=method, n=data.n, m=data.n, lambda_used=None)
    params = spec.kernel_params()
    if method == "cf-split":
        plan = cv_plan = random_split(data.n, _split_size(data.n, split_fraction), split_seed)
    if spec.cv_grid is not None:
        if method == "cf-multisplit":
            cv_plan = random_split(data.n, _split_size(data.n, split_fraction), cv_seed)
        cv_set = data if method == "cf-simplified" else data.subset(cv_plan.index_d0)
        params = cross_validate(cv_set, spec.cv_grid, seed=cv_seed)
    if method == "cf-split":
        return cf_split_estimate(
            data, plan, params, lambda_=spec.lambda_, compute_discrepancy=compute_discrepancy
        )
    if method == "cf-simplified":
        return cf_simplified_estimate(data, params, lambda_=spec.lambda_)
    return cf_multisplit_estimate(
        data, n_splits, split_fraction, params, seed=split_seed, lambda_=spec.lambda_
    )


def _run_method(
    spec: MethodSpec,
    dataset: ScoredDataset,
    problem: TargetProblem,
    config: ExperimentConfig,
    stream: np.random.SeedSequence | None,
) -> Estimate:
    """Run one method of the study on one dataset, its streams drawn from
    ``stream``; a method that draws none gets None for ``stream`` and both
    seeds."""
    run_stream, cv_stream = (None, None) if stream is None else stream.spawn(2)
    return run_estimator(
        spec, dataset, split_seed=run_stream, cv_seed=cv_stream,
        split_fraction=config.split_fraction, n_splits=config.n_splits,
        density=problem.normalised_density,
    )


@dataclass(frozen=True)
class Row:
    """One CSV row: one method on one replication of one sample size.  The
    fields, in order, are the columns of ``report.csv``."""

    method: str
    n: int
    replication: int
    estimate: float | None
    lambda_used: float | None
    seed: int


@dataclass(frozen=True)
class CellStats:
    """Aggregate statistics of one (method, n) cell.  The fields, in order,
    and ``flagged`` are the keys of a cell in ``report.json``."""

    mean_estimate: float | None
    bias: float | None
    variance: float | None
    mse: float | None
    n_mse: float | None
    failures: int
    replications: int

    @property
    def flagged(self) -> bool:
        return self.failures > 0.1 * self.replications


@dataclass(frozen=True)
class SlopeFit:
    """A log-log MSE slope; its fields, in order, are its ``report.json`` keys."""

    slope: float
    stderr: float
    n_points: int


@dataclass
class ConvergenceReport:
    """Everything an experiment produced, ready for serialisation.  ``cells``
    and ``slopes`` are in the order of the config's methods (and sizes)."""

    problem_name: str
    oracle: float
    config: ExperimentConfig
    rows: list[Row]
    cells: dict[tuple[str, int], CellStats]
    slopes: dict[str, SlopeFit | None]
    notes: list[str] = field(default_factory=list)

    def cell(self, method: str, n: int) -> CellStats:
        return self.cells[(method, n)]


def estimate_slope(points) -> SlopeFit:
    """Least-squares slope of log(MSE) against log(n).

    Non-positive MSE values are excluded with a warning; at least three
    usable points are required.
    """
    usable = []
    for n, mse in points:
        if mse is None or mse <= 0.0 or not np.isfinite(mse):
            warnings.warn(
                f"excluding unusable MSE {mse!r} at n={n} from the slope fit",
                RuntimeWarning,
                stacklevel=2,
            )
            continue
        usable.append((float(n), float(mse)))
    if len(usable) < 3:
        raise InvalidInputError(
            f"slope fit needs at least 3 positive-MSE points, got {len(usable)}"
        )
    x = np.log([n for n, _ in usable])
    y = np.log([m for _, m in usable])
    x_c = x - x.mean()
    sxx = float(x_c @ x_c)
    slope = float(x_c @ y) / sxx
    intercept = float(y.mean() - slope * x.mean())
    residuals = y - (intercept + slope * x)
    dof = len(usable) - 2
    sigma2 = float(residuals @ residuals) / dof
    return SlopeFit(slope=slope, stderr=math.sqrt(max(sigma2, 0.0) / sxx), n_points=len(usable))


def run_experiment(
    config: ExperimentConfig, threads: int = 1, problem: TargetProblem | None = None
) -> ConvergenceReport:
    """Run the full study described by ``config``.

    Each method on each replication of each size gives a :class:`Row`, each
    (method, n) a :class:`CellStats` and each method a :class:`SlopeFit`; a
    failed method leaves an empty row, counted as a failure of its cell,
    rather than aborting the study.  ``threads`` only controls scheduling;
    per-cell streams and a fixed aggregation order make the report identical
    for any thread count.  Passing
    ``problem`` overrides the one named in the config (for custom targets).
    The methods of a cell share its kernel blocks: the cell's dataset is a
    view that shares every kernel two of them can fit with
    (:func:`_shared_kernels`), so such a kernel is assembled once, as the
    Gram of the cell's dataset, and every block of it is a slice.  Any other
    kernel assembles just the blocks asked for.
    """
    if problem is None:
        problem = build_problem(config)
    oracle = oracle_mean(problem)
    tasks = [(n, rep) for n in config.n_grid for rep in range(config.replications)]
    shared = _shared_kernels(config.methods)

    def worker(task):
        n, rep = task
        dataset = _GramRows(cell_dataset(config, problem, n, rep), shared)
        seed_value = int(_data_stream(config.master_seed, n, rep).generate_state(1)[0])
        results = []
        for index, spec in enumerate(config.methods):
            stream = None
            if spec.method in _KERNEL_METHODS:
                stream = _method_stream(config.master_seed, n, rep, index)
            try:
                est = _run_method(spec, dataset, problem, config, stream)
                value, lam = est.value, est.lambda_used
            except (CfmcError, np.linalg.LinAlgError):
                value, lam = None, None
            results.append(
                Row(
                    method=spec.name,
                    n=n,
                    replication=rep,
                    estimate=value,
                    lambda_used=lam,
                    seed=seed_value,
                )
            )
        return results

    if threads <= 1:
        per_task = [worker(task) for task in tasks]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            per_task = list(pool.map(worker, tasks))

    rows = [row for group in per_task for row in group]
    estimates = {(spec.name, n): [] for spec in config.methods for n in config.n_grid}
    for row in rows:
        estimates[(row.method, row.n)].append(row.estimate)
    notes: list[str] = []
    cells: dict[tuple[str, int], CellStats] = {}
    for (name, n), values in estimates.items():
        good = np.array([v for v in values if v is not None], dtype=float)
        failures = len(values) - good.size
        if good.size == 0:
            cells[(name, n)] = CellStats(None, None, None, None, None, failures, len(values))
            notes.append(f"cell ({name}, n={n}): every replication failed")
            continue
        mean_est = float(np.mean(good))
        mse = float(np.mean((good - oracle) ** 2))
        cells[(name, n)] = stats = CellStats(
            mean_estimate=mean_est,
            bias=mean_est - oracle,
            variance=float(np.mean((good - mean_est) ** 2)),
            mse=mse,
            n_mse=n * mse,
            failures=failures,
            replications=len(values),
        )
        if stats.flagged:
            notes.append(f"cell ({name}, n={n}): {failures}/{len(values)} replications failed")

    slopes: dict[str, SlopeFit | None] = {}
    for spec in config.methods:
        points = [(n, cells[(spec.name, n)].mse) for n in config.n_grid]
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                slopes[spec.name] = estimate_slope(points)
        except InvalidInputError as exc:
            slopes[spec.name] = None
            notes.append(f"slope for {spec.name}: {exc}")

    return ConvergenceReport(
        problem_name=problem.name,
        oracle=oracle,
        config=config,
        rows=rows,
        cells=cells,
        slopes=slopes,
        notes=notes,
    )


def _fmt(value: float | None) -> str:
    return "" if value is None else repr(float(value))


def write_csv(report: ConvergenceReport, path) -> None:
    """One row per (method, n, replication) and one column per :class:`Row`
    field; floats use shortest round-trip formatting so identical runs
    produce identical bytes."""
    columns = [attr.name for attr in fields(Row)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in report.rows:
            values = (getattr(row, column) for column in columns)
            writer.writerow(
                _fmt(value) if value is None or isinstance(value, float) else value
                for value in values
            )


def report_summary(report: ConvergenceReport) -> dict:
    """The JSON-serialisable summary; key layout is part of the contract."""
    config = report.config
    names = [spec.name for spec in config.methods]
    cells = {name: {} for name in names}
    for (name, n), stats in report.cells.items():
        cells[name][str(n)] = {**asdict(stats), "flagged": stats.flagged}
    slopes = {name: None if fit is None else asdict(fit) for name, fit in report.slopes.items()}
    return {
        "schema_version": SCHEMA_VERSION,
        "problem": report.problem_name,
        "oracle_mean": report.oracle,
        "n_grid": list(config.n_grid),
        "replications": config.replications,
        "master_seed": config.master_seed,
        "split_fraction": config.split_fraction,
        "n_splits": config.n_splits,
        "methods": names,
        "slopes": slopes,
        "cells": cells,
        "notes": report.notes,
    }


def write_json(report: ConvergenceReport, path) -> None:
    with open(path, "w") as fh:
        json.dump(report_summary(report), fh, indent=2)
        fh.write("\n")
