import csv
import dataclasses
import json

import numpy as np
import pytest

from cfmc import (
    InvalidInputError,
    NumericalError,
    SteinKernelParams,
    arithmetic_mean,
    cf_multisplit_estimate,
    cf_simplified_estimate,
    cf_split_estimate,
    cross_validate,
    gaussian_problem,
    random_split,
    riemann_1d,
    zv_estimate,
)
from cfmc import bench
from cfmc.bench import (
    ExperimentConfig,
    MethodSpec,
    build_problem,
    cell_dataset,
    estimate_slope,
    load_config,
    report_summary,
    run_estimator,
    run_experiment,
    write_csv,
    write_json,
)
from cfmc.estimator import _GUARDED_MIN_SIZE
from cfmc.targets import TargetProblem


# A valid mixture's problem_params.
MIXTURE = {"weights": [0.5, 0.5], "means": [-1.0, 1.0], "scales": [0.5, 0.5]}


def small_config(**overrides):
    base = dict(
        problem="gaussian",
        problem_params={"d": 1},
        n_grid=(10, 20, 40),
        replications=8,
        methods=(MethodSpec("mean"), MethodSpec("cf-simplified")),
        master_seed=123,
        split_fraction=0.5,
        n_splits=1,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def constant_problem(c0: float) -> TargetProblem:
    base = gaussian_problem(1)
    return TargetProblem(
        name="constant",
        dimension=1,
        score=base.score,
        sampler=base.sampler,
        integrand=lambda pts: np.full(np.atleast_2d(pts).shape[0], c0),
        true_mean=c0,
        normalised_density=base.normalised_density,
        log_density=base.log_density,
    )


class TestEstimateSlope:
    def test_exact_reciprocal_decay(self):
        points = [(n, 1.0 / n) for n in (10, 20, 40, 80)]
        fit = estimate_slope(points)
        assert fit.slope == pytest.approx(-1.0, abs=1e-12)
        assert fit.stderr == pytest.approx(0.0, abs=1e-10)

    def test_exact_seven_sixths_decay(self):
        points = [(n, n ** (-7.0 / 6.0)) for n in (10, 30, 90, 270)]
        fit = estimate_slope(points)
        assert fit.slope == pytest.approx(-7.0 / 6.0, abs=1e-12)

    def test_recovers_noisy_slope(self):
        rng = np.random.default_rng(0)
        true_slope = -1.5
        points = [
            (n, float(np.exp(true_slope * np.log(n) + 0.01 * rng.standard_normal())))
            for n in (10, 20, 40, 80, 160, 320)
        ]
        fit = estimate_slope(points)
        assert abs(fit.slope - true_slope) < 3 * fit.stderr + 1e-9

    def test_zero_mse_excluded_with_warning(self):
        points = [(10, 0.0), (20, 1e-2), (40, 5e-3), (80, 2e-3)]
        with pytest.warns(RuntimeWarning):
            fit = estimate_slope(points)
        assert fit.n_points == 3

    def test_too_few_points_rejected(self):
        with pytest.raises(InvalidInputError):
            estimate_slope([(10, 1.0), (20, 0.5)])


class TestConfig:
    def test_unknown_keys_listed_exhaustively(self):
        raw = {
            "problem": "gaussian",
            "n_grid": [10, 20, 40],
            "replications": 2,
            "master_seed": 1,
            "bogus_top": 1,
            "another_bad": 2,
            "methods": [{"method": "mean", "bogus_inner": 3}],
        }
        with pytest.raises(InvalidInputError) as err:
            load_config(raw)
        message = str(err.value)
        assert "another_bad" in message
        assert "bogus_top" in message
        assert "methods[0].bogus_inner" in message

    def test_missing_keys_reported(self):
        with pytest.raises(InvalidInputError, match="missing config keys"):
            load_config({"problem": "gaussian"})

    def test_grid_must_ascend(self):
        with pytest.raises(InvalidInputError):
            small_config(n_grid=(40, 20))

    def test_duplicate_labels_rejected(self):
        with pytest.raises(InvalidInputError):
            small_config(methods=(MethodSpec("mean"), MethodSpec("mean")))

    def test_unknown_method_rejected(self):
        with pytest.raises(InvalidInputError):
            MethodSpec("bogus")

    def test_lambda_auto_token(self):
        raw = {
            "problem": "gaussian",
            "problem_params": {"d": 1},
            "n_grid": [10, 20],
            "replications": 2,
            "master_seed": 5,
            "methods": [
                {"method": "cf-simplified", "lambda": "auto"},
                {"method": "cf-split", "lambda": 1e-6},
            ],
        }
        config = load_config(raw)
        assert config.methods[0].lambda_ is None
        assert config.methods[1].lambda_ == 1e-6


    @pytest.mark.parametrize("lam", [-1e-12, float("nan"), float("inf")])
    def test_invalid_lambda_rejected(self, lam):
        with pytest.raises(InvalidInputError, match="lambda"):
            MethodSpec("cf-split", lambda_=lam)

    @pytest.mark.parametrize("fraction", [0.5, 0.75, True, "0.5", None, float("nan")])
    def test_cv_train_fraction_is_an_unknown_key(self, fraction):
        # Cross-validation always trains on half of its set.  The key is
        # refused as unknown before its value is read, valid or not.
        raw = {
            "problem": "gaussian",
            "n_grid": [10, 20],
            "replications": 2,
            "master_seed": 5,
            "methods": [{"method": "cf-split", "cv_train_fraction": fraction}],
        }
        with pytest.raises(
            InvalidInputError, match=r"^unknown config keys: methods\[0\]\.cv_train_fraction$"
        ):
            load_config(raw)

    def test_unset_keys_take_the_dataclass_defaults(self):
        raw = {
            "problem": "gaussian",
            "n_grid": [10, 20],
            "replications": 2,
            "master_seed": 5,
            "methods": [{"method": "cf-split"}],
        }
        config = load_config(raw)
        assert config == ExperimentConfig(
            problem="gaussian", n_grid=(10, 20), replications=2,
            methods=(MethodSpec("cf-split"),), master_seed=5,
        )
        assert config.problem_params == {}

    def test_set_keys_are_converted(self):
        raw = {
            "problem": "mixture",
            "problem_params": {"weights": [1.0], "means": [0.0], "scales": [1.0]},
            "n_grid": [10, 20],
            "replications": 2,
            "master_seed": 5,
            "split_fraction": 0.25,
            "n_splits": 3,
            "methods": [{
                "method": "cf-split", "alpha1": 0.2, "alpha2": 2, "lambda": 1e-6,
                "cv_grid": [[0.1, 1], [0.2, 3.0]], "label": "x",
            }],
        }
        # Every key is set, so a field without a parser would fail here.
        assert set(raw) == set(bench._config_keys(ExperimentConfig))
        assert set(raw["methods"][0]) == set(bench._config_keys(MethodSpec))
        config = load_config(raw)
        assert config.split_fraction == 0.25 and config.n_splits == 3
        assert config.methods == (MethodSpec(
            "cf-split", alpha1=0.2, alpha2=2.0, lambda_=1e-6,
            cv_grid=(SteinKernelParams(0.1, 1.0), SteinKernelParams(0.2, 3.0)),
            label="x",
        ),)
        assert build_problem(config).dimension == 1

    @pytest.mark.parametrize("key, value", [
        ("alpha1", "abc"), ("lambda", "abc"), ("cv_grid", [[0.1]]), ("cv_grid", 5),
        ("label", ["a"]), ("method", ["mean"]), ("cv_train_fraction", None),
    ])
    def test_malformed_method_value_names_its_key(self, key, value):
        raw = {
            "problem": "gaussian",
            "n_grid": [10, 20],
            "replications": 2,
            "master_seed": 5,
            "methods": [{"method": "cf-split", key: value}],
        }
        with pytest.raises(InvalidInputError, match=rf"methods\[0\]\.{key}"):
            load_config(raw)

    @pytest.mark.parametrize("key, value", [
        ("replications", "x"), ("n_grid", 5), ("n_grid", ["a"]), ("master_seed", [1]),
        ("problem", ["gaussian"]), ("problem_params", "d"), ("methods", 5),
    ])
    def test_malformed_value_names_its_key(self, key, value):
        raw = {
            "problem": "gaussian",
            "n_grid": [10, 20],
            "replications": 2,
            "master_seed": 5,
            "methods": [{"method": "mean"}],
        }
        with pytest.raises(InvalidInputError, match=f"config key {key}"):
            load_config(dict(raw, **{key: value}))

    @pytest.mark.parametrize("problem, params", [
        ("gaussian", {"d": "x"}), ("mixture", {"foo": 1}), ("mixture", {"weights": "abc"}),
    ])
    def test_malformed_problem_params_name_the_key(self, problem, params):
        config = small_config(problem=problem, problem_params=params)
        with pytest.raises(InvalidInputError, match="problem_params"):
            build_problem(config)

    @pytest.mark.parametrize("problem, params, message", [
        ("gaussian", {"D": 3}, "unknown config keys: problem_params.D$"),
        ("gaussian", {"e": 1, "D": 3}, "unknown config keys: problem_params.D, problem_params.e$"),
        ("mixture", dict(MIXTURE, integrand=3), "unknown config keys: problem_params.integrand$"),
        ("mixture", dict(MIXTURE, name=7), "config key problem_params.name must be a string"),
    ], ids=["D", "D-and-e", "integrand", "name"])
    def test_problem_params_the_problem_does_not_take_refused(self, problem, params, message):
        config = small_config(problem=problem, problem_params=params)
        with pytest.raises(InvalidInputError, match=f"^{message}"):
            build_problem(config)

    def test_problem_params_each_problem_takes(self):
        assert build_problem(small_config(problem_params={"d": 3})).dimension == 3
        config = small_config(problem="mixture", problem_params=dict(MIXTURE, name="bimodal"))
        assert build_problem(config).name == "bimodal"

    @pytest.mark.parametrize("method", ["cf-split", "cf-multisplit"])
    @pytest.mark.parametrize("fraction", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_split_fraction_rejected(self, method, fraction):
        data = gaussian_problem(1).dataset(np.random.default_rng(0), 20)
        grid = (SteinKernelParams(0.1, 1.0), SteinKernelParams(0.1, 2.0))
        with pytest.raises(InvalidInputError, match="split"):
            run_estimator(
                MethodSpec(method, cv_grid=grid), data,
                split_seed=1, cv_seed=2, split_fraction=fraction, n_splits=2,
            )

    @pytest.mark.parametrize("method", ["cf-simplified", "cf-split"])
    def test_empty_cv_grid_rejected(self, method):
        raw = {
            "problem": "gaussian",
            "n_grid": [10, 20],
            "replications": 2,
            "master_seed": 5,
            "methods": [{"method": method, "cv_grid": []}],
        }
        with pytest.raises(InvalidInputError, match="cv_grid"):
            load_config(raw)

    def test_negative_master_seed_rejected(self):
        with pytest.raises(InvalidInputError, match="master_seed"):
            small_config(master_seed=-1)
        raw = {
            "problem": "gaussian",
            "n_grid": [10, 20],
            "replications": 2,
            "master_seed": -1,
            "methods": [{"method": "mean"}],
        }
        with pytest.raises(InvalidInputError, match="master_seed"):
            load_config(raw)

    @pytest.mark.parametrize(
        "overrides, key",
        [
            ({"n_grid": (10.9, 20, 40), "replications": 2.7}, "n_grid"),
            ({"n_grid": (10, True, 40)}, "n_grid"),
            ({"replications": 2.7}, "replications"),
            ({"replications": True}, "replications"),
            ({"master_seed": 1.5}, "master_seed"),
            ({"master_seed": "1"}, "master_seed"),
            ({"n_splits": 2.5}, "n_splits"),
            ({"n_splits": float("inf")}, "n_splits"),
        ],
    )
    def test_library_route_rejects_non_integral_counts(self, overrides, key):
        # The route that builds the dataclass directly checks what
        # load_config checks: a count is integral and not a boolean.
        settings = dict(
            problem="gaussian", n_grid=(10, 20, 40), replications=2, master_seed=1,
            methods=(MethodSpec("mean"),),
        )
        with pytest.raises(InvalidInputError, match=key):
            ExperimentConfig(**{**settings, **overrides})

    def test_library_route_takes_integral_floats_as_ints(self):
        config = ExperimentConfig(
            problem="gaussian", n_grid=(10.0, 20, 40), replications=2.0, master_seed=1.0,
            n_splits=3.0, methods=(MethodSpec("mean"),),
        )
        assert config.n_grid == (10, 20, 40)
        counts = (config.replications, config.master_seed, config.n_splits)
        assert counts == (2, 1, 3)
        assert all(type(count) is int for count in config.n_grid + counts)
        assert len(run_experiment(config).rows) == 6

    @pytest.mark.parametrize(
        "overrides, named",
        [
            ({"n_grid": 10}, "n_grid"),
            ({"methods": ("mean",)}, "methods"),
            ({"methods": MethodSpec("mean")}, "methods"),
            ({"split_fraction": "0.5"}, "split_fraction"),
        ],
    )
    def test_library_route_rejects_wrong_types(self, overrides, named):
        settings = dict(
            problem="gaussian", n_grid=(10, 20, 40), replications=2, master_seed=1,
            methods=(MethodSpec("mean"),),
        )
        with pytest.raises(InvalidInputError, match=named):
            ExperimentConfig(**{**settings, **overrides})

    @pytest.mark.parametrize(
        "overrides, named",
        [
            ({"cv_grid": 5}, "cv_grid"),
            ({"lambda_": "1e-3"}, "lambda"),
            ({"alpha2": "2"}, "alpha2"),
        ],
    )
    def test_method_spec_rejects_wrong_types(self, overrides, named):
        with pytest.raises(InvalidInputError, match=named):
            MethodSpec("cf-split", **overrides)

    def test_cv_grid_kept_as_a_tuple(self):
        grid = [SteinKernelParams(0.1, 1.0), SteinKernelParams(0.1, 2.0)]
        assert MethodSpec("cf-split", cv_grid=grid).cv_grid == tuple(grid)

    def test_cv_grid_of_pairs_rejected(self):
        with pytest.raises(InvalidInputError, match="cv_grid"):
            MethodSpec("cf-simplified", cv_grid=((0.1, 1.0),))


# One bad value of one setting per row: (owner, config key, value), where
# owner "method" means a key of the method entry.  The first six rows are a
# list label, a string, boolean or negative alpha1 and a problem_params that
# is no object; then every number field gets a boolean, a string, a list,
# None, NaN and inf.  An n_grid row gives the whole grid, whose second size
# is bad.
_NUMBER_FIELDS = [
    ("method", "alpha1"), ("method", "alpha2"), ("method", "lambda"),
    ("config", "split_fraction"),
    ("config", "replications"), ("config", "master_seed"), ("config", "n_splits"),
    ("config", "n_grid"),
]
_BAD_NUMBERS = [True, "0.5", [0.5], None, float("nan"), float("inf")]
_BAD_SETTINGS = [
    ("method", "label", ["a"]),
    ("method", "alpha1", "x"),
    ("method", "alpha1", True),
    ("method", "alpha1", -1.0),
    ("config", "problem_params", "d"),
    ("config", "problem_params", [["d", 3]]),
] + [
    (owner, key, [10, value] if key == "n_grid" else value)
    for owner, key in _NUMBER_FIELDS
    for value in _BAD_NUMBERS
    # A lambda of None is the automatic rule.
    if not (key == "lambda" and value is None)
]


class TestBothRoutesCheckEachSetting:
    """A bad setting is refused with InvalidInputError, never a TypeError or
    AttributeError, whether the dataclasses are built in Python or by
    load_config; the first names the field, the second the key's path."""

    @pytest.mark.parametrize("owner, key, value", _BAD_SETTINGS)
    def test_dataclass_names_the_field(self, owner, key, value):
        setting = {key.replace("lambda", "lambda_"): value}
        settings = dict(problem="gaussian", n_grid=(10, 20), replications=2, master_seed=1)
        with pytest.raises(InvalidInputError) as err:
            if owner == "method":
                methods = (MethodSpec("cf-split", **setting),)
            else:
                methods = (MethodSpec("cf-split"),)
                settings.update(setting)
            ExperimentConfig(**settings, methods=methods)
        assert str(err.value).startswith(key)

    @pytest.mark.parametrize("owner, key, value", _BAD_SETTINGS)
    def test_load_config_names_the_key(self, owner, key, value):
        entry = {"method": "cf-split"}
        raw = {
            "problem": "gaussian", "n_grid": [10, 20], "replications": 2, "master_seed": 1,
            "methods": [entry],
        }
        (entry if owner == "method" else raw)[key] = value
        path = f"methods[0].{key}" if owner == "method" else key
        with pytest.raises(InvalidInputError) as err:
            load_config(raw)
        assert str(err.value).startswith(f"config key {path}")


class TestMethodSpecKernel:
    """A spec's kernel is the one its ``__post_init__`` built to check
    ``alpha1``/``alpha2``, and ``kernel_params`` returns it as it is."""

    def test_kernel_params_is_the_checked_kernel(self):
        spec = MethodSpec("cf-split", alpha1=np.float32(0.5), alpha2=2)
        kernel = spec.kernel_params()
        assert kernel == SteinKernelParams(spec.alpha1, spec.alpha2)
        assert (kernel.alpha1, kernel.alpha2) == (0.5, 2.0)
        assert type(kernel.alpha1) is type(kernel.alpha2) is float
        assert spec.kernel_params() is kernel
        # It is no field: specs compare, print and load as before.
        assert spec == MethodSpec("cf-split", alpha1=0.5, alpha2=2.0)
        assert "_kernel" not in repr(spec)
        with pytest.raises(InvalidInputError, match="unknown config keys: methods\\[0\\]._kernel"):
            load_config({"problem": "gaussian", "n_grid": [10, 20], "replications": 1,
                         "master_seed": 1, "methods": [{"method": "cf-split", "_kernel": 1}]})

    def test_replace_gives_a_spec_its_own_kernel(self):
        spec = MethodSpec("cf-split", alpha1=0.1, alpha2=1.0)
        other = dataclasses.replace(spec, alpha2=2.0)
        assert other.kernel_params() == SteinKernelParams(0.1, 2.0)
        assert spec.kernel_params() == SteinKernelParams(0.1, 1.0)
        with pytest.raises(InvalidInputError, match="alpha1 must be a positive finite"):
            dataclasses.replace(spec, alpha1=-1.0)


class TestRunExperiment:
    def test_constant_integrand_has_zero_mse(self):
        config = small_config(methods=(MethodSpec("mean"),))
        report = run_experiment(config, problem=constant_problem(3.0))
        for n in config.n_grid:
            assert report.cell("mean", n).mse == 0.0
        assert report.slopes["mean"] is None  # all-zero MSEs cannot be fitted
        assert any("slope" in note for note in report.notes)

    def test_mse_decomposition_identity(self):
        report = run_experiment(small_config())
        for (name, n), stats in report.cells.items():
            assert stats.mse == pytest.approx(
                stats.bias**2 + stats.variance, rel=1e-10, abs=1e-18
            )
            assert stats.n_mse == pytest.approx(n * stats.mse, rel=1e-15)

    def test_methods_share_identical_datasets(self):
        # The per-cell data stream does not depend on the method list: the
        # mean column is bit-identical whether run alone or alongside others.
        solo = run_experiment(small_config(methods=(MethodSpec("mean"),)))
        joint = run_experiment(
            small_config(methods=(MethodSpec("zv1"), MethodSpec("mean")))
        )
        solo_rows = [r for r in solo.rows if r.method == "mean"]
        joint_rows = [r for r in joint.rows if r.method == "mean"]
        assert [(r.n, r.replication, r.estimate) for r in solo_rows] == [
            (r.n, r.replication, r.estimate) for r in joint_rows
        ]

    def test_extending_grid_preserves_existing_cells(self):
        short = run_experiment(small_config(n_grid=(10, 20, 40)))
        longer = run_experiment(small_config(n_grid=(10, 20, 40, 80)))
        key = lambda r: (r.method, r.n, r.replication)
        short_map = {key(r): (r.estimate, r.seed) for r in short.rows}
        longer_map = {key(r): (r.estimate, r.seed) for r in longer.rows}
        for k, v in short_map.items():
            assert longer_map[k] == v

    def test_thread_count_does_not_change_results(self, tmp_path):
        config = small_config(
            methods=(MethodSpec("mean"), MethodSpec("cf-split"), MethodSpec("cf-simplified"))
        )
        sequential = run_experiment(config, threads=1)
        threaded = run_experiment(config, threads=4)
        assert report_summary(sequential) == report_summary(threaded)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(sequential, p1)
        write_csv(threaded, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_thread_count_does_not_change_results_above_guarded_size(self, tmp_path):
        # Both kernel systems reach the size from which select_lambda runs
        # a Lanczos iteration and Cholesky tests, here inside the thread pool.
        n = 2 * _GUARDED_MIN_SIZE + 10
        config = small_config(
            n_grid=(n,), replications=4,
            methods=(MethodSpec("cf-split"), MethodSpec("cf-simplified")),
        )
        sequential = run_experiment(config, threads=1)
        threaded = run_experiment(config, threads=4)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(sequential, p1)
        write_csv(threaded, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert all(r.lambda_used is not None for r in sequential.rows)

    def test_dataset_is_replication_dependent(self):
        config = small_config()
        problem = gaussian_problem(1)
        d_a = cell_dataset(config, problem, 10, 0)
        d_b = cell_dataset(config, problem, 10, 1)
        assert not np.array_equal(d_a.points, d_b.points)

    def test_riemann_requires_univariate_problem(self, tmp_path):
        config = small_config(
            problem_params={"d": 2}, methods=(MethodSpec("riemann"), MethodSpec("mean"))
        )
        report = run_experiment(config)
        for n in config.n_grid:
            stats = report.cell("riemann", n)
            assert stats.failures == stats.replications
            assert stats.flagged
        assert any("riemann" in note for note in report.notes)

        # Both reports show the all-failed cells: empty CSV cells, null
        # statistics, and the cell flagged with its note.
        write_csv(report, tmp_path / "report.csv")
        write_json(report, tmp_path / "report.json")
        with open(tmp_path / "report.csv", newline="") as fh:
            rows = [row for row in csv.DictReader(fh) if row["method"] == "riemann"]
        assert len(rows) == len(config.n_grid) * config.replications
        assert all(row["estimate"] == row["lambda_used"] == "" for row in rows)
        payload = json.loads((tmp_path / "report.json").read_text())
        for n in config.n_grid:
            assert payload["cells"]["riemann"][str(n)] == {
                "mean_estimate": None,
                "bias": None,
                "variance": None,
                "mse": None,
                "n_mse": None,
                "failures": config.replications,
                "replications": config.replications,
                "flagged": True,
            }
            assert f"cell (riemann, n={n}): every replication failed" in payload["notes"]
        assert payload["slopes"]["riemann"] is None

    @pytest.mark.parametrize("every, replications, flagged", [(4, 8, True), (10, 10, False)])
    def test_partly_failed_cell_is_noted(self, monkeypatch, every, replications, flagged):
        # cf-simplified fails on every ``every``-th call: 2 of 8 replications
        # of a cell (25%) flag it with a note, 1 of 10 (10%) does not.  Its
        # statistics come from the replications that did not fail.
        config = small_config(n_grid=(10, 20, 40), replications=replications)
        calls = []

        def failing(spec, *args, **kwargs):
            if spec.method == "cf-simplified":
                calls.append(None)
                if len(calls) % every == 0:
                    raise NumericalError("a fit that failed")
            return run_estimator(spec, *args, **kwargs)

        full = run_experiment(config)
        monkeypatch.setattr(bench, "run_estimator", failing)
        report = run_experiment(config)
        failures = replications // every
        for n in config.n_grid:
            stats = report.cell("cf-simplified", n)
            assert (stats.failures, stats.replications) == (failures, replications)
            assert stats.flagged is flagged
            note = f"cell (cf-simplified, n={n}): {failures}/{replications} replications failed"
            assert (note in report.notes) is flagged
            ran, kept = (
                [row.estimate for row in rows if (row.method, row.n) == ("cf-simplified", n)]
                for rows in (report.rows, full.rows)
            )
            failed = [(rep + 1) % every == 0 for rep in range(replications)]
            assert ran == [None if fail else value for value, fail in zip(kept, failed)]
            assert stats.mean_estimate == float(np.mean([v for v in ran if v is not None]))
            assert report.cell("mean", n) == full.cell("mean", n)
        assert not any("every replication failed" in note for note in report.notes)

    def test_non_finite_kernel_system_fails_its_rows_only(self):
        # Scores of 1e200 overflow the kernel system of every cell; the
        # explicit-lambda method fails its rows and the study finishes.
        base = gaussian_problem(1)
        huge = TargetProblem(
            name="huge-scores", dimension=1,
            score=lambda pts: np.full_like(np.atleast_2d(pts), 1e200),
            sampler=base.sampler, integrand=base.integrand, true_mean=0.0,
        )
        config = small_config(
            replications=2,
            methods=(MethodSpec("mean"), MethodSpec("cf-simplified", lambda_=1e-3),
                     MethodSpec("cf-split", lambda_=1e-3)),
        )
        with np.errstate(over="ignore", invalid="ignore"):
            report = run_experiment(config, problem=huge)
        for n in config.n_grid:
            assert report.cell("mean", n).failures == 0
            for name in ("cf-simplified", "cf-split"):
                assert report.cell(name, n).failures == config.replications
        assert all(row.estimate is None for row in report.rows if row.method != "mean")

    def test_cv_grid_method_runs(self):
        grid = ((0.1, 0.5), (0.1, 1.0))
        raw = {
            "problem": "gaussian",
            "problem_params": {"d": 1},
            "n_grid": [16, 32, 64],
            "replications": 3,
            "master_seed": 9,
            "methods": [{"method": "cf-split", "cv_grid": [list(g) for g in grid]}],
        }
        report = run_experiment(load_config(raw))
        for n in (16, 32, 64):
            assert report.cell("cf-split", n).failures == 0


# The study_d1 methods: cf-split and cf-simplified share the kernel (0.1, 1.0).
STUDY_METHODS = tuple(
    MethodSpec(tag) for tag in ("mean", "zv1", "zv2", "riemann", "cf-split", "cf-simplified")
)
GRID = (SteinKernelParams(0.1, 1.0), SteinKernelParams(0.1, 2.0), SteinKernelParams(0.1, 0.5))


def _streams(config, n, rep, index):
    """(split_seed, cv_seed) of method ``index`` in cell (n, rep)."""
    return bench._method_stream(config.master_seed, n, rep, index).spawn(2)


class TestSharedKernels:
    """One Gram per cell and kernel; every block of the cell a slice of it."""

    def test_shared_kernels_counts_uses(self):
        assert bench._shared_kernels(STUDY_METHODS) == {SteinKernelParams(0.1, 1.0)}
        assert bench._shared_kernels((MethodSpec("cf-multisplit"),)) == frozenset()
        both_cv = (
            MethodSpec("cf-simplified", cv_grid=GRID), MethodSpec("cf-multisplit", cv_grid=GRID)
        )
        assert bench._shared_kernels(both_cv) == set(GRID)
        assert bench._shared_kernels(both_cv[1:]) == frozenset()
        mixed = (MethodSpec("cf-split", alpha2=2.0), MethodSpec("cf-simplified", cv_grid=GRID))
        assert bench._shared_kernels(mixed) == {SteinKernelParams(0.1, 2.0)}

    def test_study_cell_assembles_one_gram(self, assembled):
        config = small_config(n_grid=(60,), replications=1, methods=STUDY_METHODS)
        report = run_experiment(config)
        assert all(row.estimate is not None for row in report.rows)
        assert assembled == [(60, 60, True, SteinKernelParams(0.1, 1.0))]

    def test_mixed_cell_shares_only_the_common_kernel(self, assembled):
        # cf-split's fixed kernel is one of cf-simplified's CV candidates, so
        # the cell holds one Gram of it; the other candidates assemble only
        # their training and test blocks, and the pick (not the shared
        # kernel on this cell) its own whole Gram.
        common = SteinKernelParams(0.1, 2.0)
        methods = (MethodSpec("cf-split", alpha2=2.0), MethodSpec("cf-simplified", cv_grid=GRID))
        config = small_config(n_grid=(40,), replications=1, methods=methods)
        report = run_experiment(config)
        assert all(row.estimate is not None for row in report.rows)
        calls = list(assembled)
        data = cell_dataset(config, build_problem(config), 40, 0)
        picked = cross_validate(data, GRID, seed=_streams(config, 40, 0, 1)[1])
        candidates = [
            (20, 20, upper, params) for params in GRID if params != common
            for upper in (True, False)
        ]
        assert picked != common
        assert calls == [(40, 40, True, common)] + candidates + [(40, 40, True, picked)]

    @pytest.mark.parametrize("d", [1, 3])
    def test_cv_cell_assembles_its_shared_grams_in_one_call(self, assembled, d):
        # Both methods search GRID, so the cell shares all three kernels:
        # one pass assembles their Grams, and every block is a slice.
        methods = (
            MethodSpec("cf-simplified", cv_grid=GRID), MethodSpec("cf-multisplit", cv_grid=GRID)
        )
        config = small_config(
            problem_params={"d": d}, n_grid=(50,), replications=1, n_splits=3, methods=methods,
        )
        report = run_experiment(config)
        assert all(row.estimate is not None for row in report.rows)
        calls = list(assembled)
        assert len(calls) == 1 and calls[0][:3] == (50, 50, True)
        assert sorted(map(repr, calls[0][3:])) == sorted(map(repr, GRID))

    @pytest.mark.parametrize("method", ["cf-simplified", "cf-multisplit"])
    def test_lone_cv_method_assembles_no_gram_for_the_others(self, assembled, method):
        data = gaussian_problem(1).dataset(np.random.default_rng(8), 40)
        run_estimator(
            MethodSpec(method, cv_grid=GRID), data, split_seed=1, cv_seed=2, split_fraction=0.5,
            n_splits=4,
        )
        calls = list(assembled)
        cv_set = data if method == "cf-simplified" else data.subset(
            random_split(40, 20, 2).index_d0
        )
        picked = cross_validate(cv_set, GRID, seed=2)
        # A training Gram and a test block per candidate, then the pick's
        # Gram, which all four splits of cf-multisplit slice.
        assert len(calls) == 2 * len(GRID) + 1
        assert [call for call in calls if call[:2] == (40, 40)] == [(40, 40, True, picked)]

    def test_lone_cv_multisplit_cell_assembles_one_gram(self, assembled):
        # No other method can use the grid, so the cell shares nothing; the
        # multisplit still slices its four splits from one Gram of its pick.
        config = small_config(
            n_grid=(40,), replications=1, n_splits=4,
            methods=(MethodSpec("cf-multisplit", cv_grid=GRID),),
        )
        report = run_experiment(config)
        assert report.rows[0].estimate is not None
        calls = list(assembled)
        assert len(calls) == 2 * len(GRID) + 1
        assert [call[:3] for call in calls if call[:2] == (40, 40)] == [(40, 40, True)]

    def test_d1_rows_equal_public_calls(self):
        # Each kernel estimate redone by the public library calls, which
        # assemble every block afresh (cf-multisplit as its mean of splits).
        methods = STUDY_METHODS + (MethodSpec("cf-multisplit", cv_grid=GRID),)
        config = small_config(n_grid=(20, 50), replications=3, methods=methods, n_splits=3)
        problem = build_problem(config)
        report = run_experiment(config)
        fixed = SteinKernelParams(0.1, 1.0)
        assert bench._shared_kernels(methods) == {fixed}
        for row in report.rows:
            index = [spec.name for spec in methods].index(row.method)
            data = cell_dataset(config, problem, row.n, row.replication)
            split_seed, cv_seed = _streams(config, row.n, row.replication, index)
            m = row.n // 2
            if row.method == "cf-split":
                expected = cf_split_estimate(data, random_split(row.n, m, split_seed), fixed)
            elif row.method == "cf-simplified":
                expected = cf_simplified_estimate(data, fixed)
            elif row.method == "cf-multisplit":
                cv_set = data.subset(random_split(row.n, m, cv_seed).index_d0)
                params = cross_validate(cv_set, GRID, seed=cv_seed)
                splits = [
                    cf_split_estimate(data, random_split(row.n, m, split_seed, index=k), params)
                    for k in range(3)
                ]
                values = np.array([est.value for est in splits])
                assert (row.estimate, row.lambda_used) == (
                    float(np.mean(values)), splits[0].lambda_used
                )
                continue
            else:
                expected = run_estimator(
                    methods[index], data, split_seed=split_seed, cv_seed=cv_seed,
                    split_fraction=0.5, n_splits=1, density=problem.normalised_density,
                )
            assert (row.estimate, row.lambda_used) == (expected.value, expected.lambda_used)

    def test_d3_cv_choice_and_lambda_equal_public_path(self, monkeypatch):
        # At d = 3 a slice may differ from a fresh block in the last bit;
        # the CV choices and every lambda must still be those of the public
        # calls, and cf-simplified's whole-Gram estimate its very bytes.
        methods = (
            MethodSpec("cf-simplified", cv_grid=GRID),
            MethodSpec("cf-multisplit", cv_grid=GRID),
        )
        config = small_config(
            problem_params={"d": 3}, n_grid=(30, 60), replications=3, methods=methods,
            n_splits=2,
        )
        choices = []
        original = bench.cross_validate

        def spy(*args, **kwargs):
            choices.append(original(*args, **kwargs))
            return choices[-1]

        monkeypatch.setattr(bench, "cross_validate", spy)
        problem = build_problem(config)
        report = run_experiment(config)
        assert len(choices) == len(report.rows)
        for row, chosen in zip(report.rows, choices):
            index = [spec.name for spec in methods].index(row.method)
            data = cell_dataset(config, problem, row.n, row.replication)
            split_seed, cv_seed = _streams(config, row.n, row.replication, index)
            m = row.n // 2
            if row.method == "cf-simplified":
                assert chosen == cross_validate(data, GRID, seed=cv_seed)
                expected = cf_simplified_estimate(data, chosen)
                assert row.estimate == expected.value
            else:
                cv_set = data.subset(random_split(row.n, m, cv_seed).index_d0)
                assert chosen == cross_validate(cv_set, GRID, seed=cv_seed)
                expected = cf_split_estimate(data, random_split(row.n, m, split_seed), chosen)
            assert row.lambda_used == expected.lambda_used


class TestRunEstimatorStreams:
    """The stream each tag draws from, through :func:`run_estimator`."""

    @pytest.fixture(scope="class")
    def data(self):
        return gaussian_problem(1).dataset(np.random.default_rng(8), 40)

    @staticmethod
    def run(spec, data, split_seed, cv_seed, **extra):
        return run_estimator(
            spec, data, split_seed=split_seed, cv_seed=cv_seed, split_fraction=0.5,
            n_splits=3, density=gaussian_problem(1).normalised_density, **extra,
        )

    def test_split_cross_validates_on_its_fitting_set(self, data):
        split_seed, cv_seed = 0, 3
        plan = random_split(40, 20, split_seed)
        params = cross_validate(data.subset(plan.index_d0), GRID, seed=cv_seed)
        # cf-simplified's and cf-multisplit's rules would pick other kernels.
        assert params != cross_validate(data, GRID, seed=cv_seed)
        cv_plan = random_split(40, 20, cv_seed)
        assert params != cross_validate(data.subset(cv_plan.index_d0), GRID, seed=cv_seed)
        expected = cf_split_estimate(data, plan, params, compute_discrepancy=True)
        got = self.run(
            MethodSpec("cf-split", cv_grid=GRID), data, split_seed, cv_seed,
            compute_discrepancy=True,
        )
        assert (got.value, got.lambda_used, got.discrepancy) == (
            expected.value, expected.lambda_used, expected.discrepancy
        )

    def test_multisplit_without_grid_ignores_cv_seed(self, data):
        expected = cf_multisplit_estimate(data, 3, 0.5, SteinKernelParams(0.1, 1.0), seed=5)
        for cv_seed in (6, 7):
            got = self.run(MethodSpec("cf-multisplit"), data, 5, cv_seed)
            assert (got.value, got.lambda_used) == (expected.value, expected.lambda_used)

    @pytest.mark.parametrize("method", ["mean", "zv1", "zv2", "riemann"])
    def test_baselines_ignore_both_seeds(self, data, method):
        expected = {
            "mean": lambda: arithmetic_mean(data.f_values),
            "zv1": lambda: zv_estimate(data, degree=1).value,
            "zv2": lambda: zv_estimate(data, degree=2).value,
            "riemann": lambda: riemann_1d(data, gaussian_problem(1).normalised_density),
        }[method]()
        for split_seed, cv_seed in ((1, 2), (3, 4)):
            got = self.run(MethodSpec(method), data, split_seed, cv_seed)
            assert (got.value, got.lambda_used) == (expected, None)

    def test_study_draws_streams_for_kernel_methods_only(self, monkeypatch):
        methods = STUDY_METHODS + (MethodSpec("cf-multisplit"),)
        config = small_config(n_grid=(20,), replications=2, methods=methods)
        seeds = []
        original = bench.run_estimator

        def spy(spec, data, *, split_seed, cv_seed, **kwargs):
            seeds.append((spec.method, split_seed, cv_seed))
            return original(spec, data, split_seed=split_seed, cv_seed=cv_seed, **kwargs)

        monkeypatch.setattr(bench, "run_estimator", spy)
        run_experiment(config)
        assert len(seeds) == 2 * len(methods)
        for k, (method, split_seed, cv_seed) in enumerate(seeds):
            if method not in ("cf-split", "cf-simplified", "cf-multisplit"):
                assert (split_seed, cv_seed) == (None, None)
                continue
            expected = _streams(config, 20, k // len(methods), k % len(methods))
            for got, want in zip((split_seed, cv_seed), expected):
                assert (got.entropy, got.spawn_key) == (want.entropy, want.spawn_key)

    def test_kernel_rows_equal_run_estimator_on_method_streams(self):
        # Each kernel method keeps the stream of its index in the config,
        # whatever the methods before it draw.
        methods = (
            MethodSpec("mean"), MethodSpec("cf-split", cv_grid=GRID), MethodSpec("zv1"),
            MethodSpec("cf-simplified"), MethodSpec("riemann"), MethodSpec("cf-multisplit"),
        )
        config = small_config(n_grid=(30,), replications=3, methods=methods, n_splits=2)
        problem = build_problem(config)
        report = run_experiment(config)
        for k, row in enumerate(report.rows):
            index = k % len(methods)
            if methods[index].method not in ("cf-split", "cf-simplified", "cf-multisplit"):
                continue
            split_seed, cv_seed = _streams(config, row.n, row.replication, index)
            expected = run_estimator(
                methods[index], cell_dataset(config, problem, row.n, row.replication),
                split_seed=split_seed, cv_seed=cv_seed, split_fraction=0.5, n_splits=2,
            )
            assert (row.estimate, row.lambda_used) == (expected.value, expected.lambda_used)


class TestSerialisation:
    def test_csv_columns_and_roundtrip_values(self, tmp_path):
        report = run_experiment(small_config())
        path = tmp_path / "report.csv"
        write_csv(report, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "method,n,replication,estimate,lambda_used,seed"
        assert len(lines) == 1 + len(report.rows)
        first = lines[1].split(",")
        row = report.rows[0]
        assert first[0] == row.method
        assert int(first[1]) == row.n
        assert float(first[3]) == row.estimate  # repr round-trips exactly

    def test_json_summary_schema(self, tmp_path):
        report = run_experiment(small_config())
        path = tmp_path / "report.json"
        write_json(report, path)
        payload = json.loads(path.read_text())
        assert payload["schema_version"] == 1
        assert payload["problem"] == "gaussian-d1"
        assert payload["oracle_mean"] == 0.0
        assert set(payload["cells"]) == {"mean", "cf-simplified"}
        cell = payload["cells"]["cf-simplified"]["40"]
        assert list(cell) == [
            "mean_estimate",
            "bias",
            "variance",
            "mse",
            "n_mse",
            "failures",
            "replications",
            "flagged",
        ]
        slope = payload["slopes"]["mean"]
        assert list(slope) == ["slope", "stderr", "n_points"]

    def test_report_holds_its_config(self):
        config = small_config(n_splits=2, split_fraction=0.25)
        report = run_experiment(config)
        assert report.config is config
        payload = report_summary(report)
        assert payload["n_grid"] == [10, 20, 40]
        assert (payload["replications"], payload["master_seed"]) == (8, 123)
        assert (payload["split_fraction"], payload["n_splits"]) == (0.25, 2)
        assert payload["methods"] == ["mean", "cf-simplified"]
        assert list(payload["slopes"]) == list(payload["cells"]) == payload["methods"]
