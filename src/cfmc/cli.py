"""Command-line front end.

Three subcommands:

* ``cfmc estimate`` runs one estimator on a sample file (columns
  ``x_1..x_d, f, u_1..u_d``) and prints the result as text or JSON.
* ``cfmc bench`` runs a replicated convergence study from a JSON config
  (a bundled config name like ``paper_d1`` also works) and writes CSV and
  JSON reports.
* ``cfmc diagnose`` prints numerical health checks for a built-in target.

Exit codes: 0 success, 2 usage error, 3 data error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from dataclasses import replace
from importlib import resources
from pathlib import Path

import numpy as np

from . import bench as bench_mod
from . import diagnostics
from .bench import SCHEMA_VERSION
from .data import read_sample_file, write_sample_file
from .errors import (
    DataFormatError,
    InvalidInputError,
    NumericalError,
    SingularMatrixError,
    _bad,
    _count,
    _fraction,
    _real,
)
from .estimator import Estimate
from .kernel import SteinKernelParams
from .targets import gaussian_problem, mixture_problem


def _lambda_arg(text: str):
    if text == "auto":
        return None
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be auto or a number, got {text!r}") from None


# A refused flag is named by the key that opens its error, dashes stripped
# and underscores read as dashes; these keys name other flags.
_FLAGS = {"n_splits": "splits"}


def _settings(args):
    """The arguments after ``args`` of the subcommand's ``cmd_*`` function,
    once every flag value is judged: the method of ``estimate``, the target
    and kernel of ``diagnose``, nothing for ``bench``.  The
    library's rules judge the numbers (those of ``SteinKernelParams``,
    ``MethodSpec`` and the run settings, ``_count`` for the integer flags,
    and for ``--fnorm`` a non-negative finite number); a refused value raises
    an ``InvalidInputError`` whose message opens with the flag's key."""
    if args.command == "bench":
        _count("threads", args.threads, 1)
        return ()
    _count("seed", args.seed, 0)
    if args.command == "diagnose":
        _count("probes", args.probes, 1)
        _count("sample_size", args.sample_size, 1)
        params = SteinKernelParams(args.alpha1, args.alpha2)
        problem = _builtin_target(args.target)
        if problem is None:
            raise _bad("target", "gaussian-d<k> or bimodal-mixture", args.target)
        return problem, params
    _fraction("split_fraction", args.split_fraction)
    _count("n_splits", args.splits, 1)
    if args.fnorm is not None:
        _real("fnorm", args.fnorm, lambda x: x >= 0.0, "a non-negative finite number")
    spec = bench_mod.MethodSpec(args.method, args.alpha1, args.alpha2, args.lambda_)
    if args.bound and args.fnorm is None:
        raise InvalidInputError("--bound requires --fnorm")
    if args.bound and args.method != "cf-split":
        raise InvalidInputError("--bound is only available with --method cf-split")
    if args.fnorm is not None and not args.bound:
        raise InvalidInputError("--fnorm only makes sense together with --bound")
    return (spec,)


def _load_cv_grid(path) -> tuple[SteinKernelParams, ...]:
    try:
        with open(path) as fh:
            return bench_mod._kernel_grid(json.load(fh))
    except OSError as exc:
        raise DataFormatError(f"{path}: {exc}") from None
    except ValueError as exc:
        raise DataFormatError(
            f"{path}: cv grid must be a JSON list of [alpha1, alpha2] pairs: {exc}"
        ) from None


def _builtin_target(name: str):
    match = re.fullmatch(r"gaussian-d([1-9]\d*)", name)
    if match:
        return gaussian_problem(int(match.group(1)))
    if name == "bimodal-mixture":
        return mixture_problem(
            weights=[0.5, 0.5], means=[-1.0, 1.0], scales=[0.5, 0.5], name="bimodal-mixture"
        )
    return None


def _print_estimate(est: Estimate, args, radius: float | None) -> None:
    payload = {
        "schema_version": SCHEMA_VERSION,
        "value": est.value,
        "method": est.method,
        "lambda_used": est.lambda_used,
        "m": est.m,
        "n": est.n,
    }
    if est.n_splits is not None:
        payload["n_splits"] = est.n_splits
    if est.discrepancy is not None:
        payload["discrepancy"] = est.discrepancy
    if radius is not None:
        payload["bound_radius"] = radius
    if args.output == "json":
        print(json.dumps(payload, indent=2))
        return
    for key, value in payload.items():
        if key == "schema_version":
            continue
        print(f"{key} = {value}")


def cmd_estimate(args, spec) -> int:
    data = read_sample_file(args.input)
    if args.cv_grid:
        spec = replace(spec, cv_grid=_load_cv_grid(args.cv_grid))
    est = bench_mod.run_estimator(
        spec, data, split_seed=args.seed, cv_seed=args.seed + 1,
        split_fraction=args.split_fraction, n_splits=args.splits, compute_discrepancy=args.bound,
    )
    radius = math.sqrt(est.discrepancy) * args.fnorm if args.bound else None
    _print_estimate(est, args, radius)
    return 0


def _resolve_config(token: str) -> Path:
    path = Path(token)
    if path.exists():
        return path
    bundled = resources.files("cfmc") / "configs" / f"{token}.json"
    if bundled.is_file():
        return bundled
    raise DataFormatError(f"no config file or bundled config named {token!r}")


def cmd_bench(args) -> int:
    config = bench_mod.load_config(_resolve_config(args.config))
    problem = bench_mod.build_problem(config)
    n_rows = len(config.n_grid) * config.replications * len(config.methods)
    n_cells = len(config.n_grid) * len(config.methods)
    if args.dry_run:
        print(f"config ok: problem={problem.name}")
        print(f"cells = {n_cells}")
        print(f"rows = {n_rows}")
        return 0
    if args.emit_samples:
        out = Path(args.emit_samples)
        out.mkdir(parents=True, exist_ok=True)
        for n in config.n_grid:
            for rep in range(config.replications):
                dataset = bench_mod.cell_dataset(config, problem, n, rep)
                write_sample_file(out / f"samples_n{n}_rep{rep}.csv", dataset)
        print(f"wrote {len(config.n_grid) * config.replications} sample files to {out}")
    report = bench_mod.run_experiment(config, threads=args.threads)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "report.csv"
    json_path = out_dir / "report.json"
    bench_mod.write_csv(report, csv_path)
    bench_mod.write_json(report, json_path)
    print(f"wrote {csv_path} and {json_path}")
    for name, fit in report.slopes.items():
        if fit is None:
            print(f"{name}: slope unavailable")
        else:
            print(f"{name}: log-log MSE slope = {fit.slope:.3f} (stderr {fit.stderr:.3f})")
    for note in report.notes:
        print(f"note: {note}")
    return 0


def cmd_diagnose(args, problem, params) -> int:
    print(f"target = {problem.name}")
    print(f"alpha1 = {params.alpha1}")
    print(f"alpha2 = {params.alpha2}")
    if problem.dimension == 1 and problem.normalised_density is not None:
        probes = np.linspace(-3.0, 3.0, args.probes)
        residuals = diagnostics.mean_element_residuals(params, probes=probes, problem=problem)
        for x, res in zip(probes, residuals):
            print(f"mean_element_residual[x={x:+.3f}] = {res:.3e}")
        print(f"mean_element_max_abs_residual = {np.max(np.abs(residuals)):.3e}")
    else:
        print("mean_element_residuals = skipped (needs a d=1 target with a density)")
    report = diagnostics.gradient_check(seed=args.seed)
    print(f"gradient_check_max_rel_error = {report['max']:.3e}")
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(args.seed)))
    dataset = problem.dataset(rng, args.sample_size)
    sup = diagnostics.sampled_sup_diag(dataset, params)
    print(f"sampled_sup_k0_diag = {sup:.6g} (over {args.sample_size} draws)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cfmc",
        description="Control-functional post-processing of Monte Carlo samples.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    est = sub.add_parser("estimate", help="estimate an expectation from a sample file")
    est.set_defaults(parser=est, run=cmd_estimate)
    est.add_argument("input", help="sample file with columns x_1..x_d, f, u_1..u_d")
    est.add_argument(
        "--method",
        choices=[tag for tag in bench_mod.METHODS if tag not in bench_mod.DENSITY_METHODS],
        default="cf-simplified",
    )
    spec, config = bench_mod.MethodSpec, bench_mod.ExperimentConfig
    est.add_argument("--alpha1", type=float, default=spec.alpha1)
    est.add_argument("--alpha2", type=float, default=spec.alpha2)
    est.add_argument("--cv-grid", help="JSON file with [alpha1, alpha2] candidate pairs")
    est.add_argument("--split-fraction", type=float, default=config.split_fraction)
    est.add_argument("--splits", type=int, default=config.n_splits)
    est.add_argument("--seed", type=int, default=0)
    est.add_argument("--lambda", dest="lambda_", type=_lambda_arg, default=None,
                     metavar="auto|VALUE", help="regularisation (default: auto rule)")
    est.add_argument("--output", choices=("text", "json"), default="text")
    est.add_argument("--bound", action="store_true",
                     help="also report the worst-case error radius sqrt(D)*fnorm")
    est.add_argument("--fnorm", type=float, default=None,
                     help="hypothesis-space norm of f, required with --bound")

    ben = sub.add_parser("bench", help="run a replicated convergence study")
    ben.set_defaults(parser=ben, run=cmd_bench)
    ben.add_argument("config", help="config file path or bundled name (e.g. paper_d1)")
    ben.add_argument("--out-dir", default="bench_out")
    ben.add_argument("--threads", type=int, default=1)
    ben.add_argument("--dry-run", action="store_true",
                     help="validate the config and print the cell count only")
    ben.add_argument("--emit-samples", metavar="DIR", default=None,
                     help="also write every replication's dataset as a sample file")

    dia = sub.add_parser("diagnose", help="numerical health checks for a built-in target")
    dia.set_defaults(parser=dia, run=cmd_diagnose)
    dia.add_argument("--target", default="gaussian-d1")
    dia.add_argument("--alpha1", type=float, default=spec.alpha1)
    dia.add_argument("--alpha2", type=float, default=spec.alpha2)
    dia.add_argument("--probes", type=int, default=10)
    dia.add_argument("--sample-size", type=int, default=1000)
    dia.add_argument("--seed", type=int, default=0)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        settings = _settings(args)
    except InvalidInputError as exc:
        key = str(exc).split(" ", 1)[0].lstrip("-")
        args.parser.error(f"argument --{_FLAGS.get(key, key.replace('_', '-'))}: {exc}")
    try:
        return args.run(args, *settings)
    except (DataFormatError, InvalidInputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (SingularMatrixError, NumericalError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
