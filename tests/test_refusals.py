"""Malformed arguments are refused with the package's own errors.

``run_experiment`` and the CLI catch only ``CfmcError``, so an argument that
escaped as an ``AttributeError``, ``TypeError``, ``IndexError`` or a bare
numpy ``ValueError`` would abort a whole study; and every refusal below names
what it refuses.
"""

import contextlib
import dataclasses
import io

import numpy as np
import pytest

from cfmc import (
    InvalidInputError,
    RkhsFunction,
    ScoredDataset,
    SplitPlan,
    SteinKernelParams,
    cf_multisplit_estimate,
    cf_simplified_estimate,
    cf_split_estimate,
    cross_validate,
    gaussian_problem,
    gram_matrix,
    mixture_problem,
    oracle_mean,
    random_split,
    select_lambda,
    stein_kernel_matrix,
    write_sample_file,
)
from cfmc import cli, diagnostics, estimator
from cfmc.bench import build_problem, load_config
from cfmc.data import _split_size

PARAMS = SteinKernelParams(0.1, 1.0)
PAIR = (0.1, 1.0)  # a kernel's numbers, not a SteinKernelParams


@pytest.fixture
def data():
    x = np.random.default_rng(0).standard_normal((20, 1))
    return ScoredDataset(x, -x, np.sin(x[:, 0]))


def _views(data):
    """``data`` itself and a view of it that slices one shared Gram."""
    return [data, estimator._GramRows(data, (PARAMS,))]


class TestMalformedLibraryArguments:
    def test_cross_validate_grid_of_pairs(self, data):
        with pytest.raises(InvalidInputError, match="cv_grid"):
            cross_validate(data, [PAIR])

    @pytest.mark.parametrize("call", [
        lambda d: cf_simplified_estimate(d, PAIR),
        lambda d: gram_matrix(d, PAIR),
        lambda d: stein_kernel_matrix(d.points, d.scores, d.points, d.scores, PAIR),
    ], ids=["cf_simplified_estimate", "gram_matrix", "stein_kernel_matrix"])
    def test_kernel_params_that_are_a_pair(self, data, call):
        with pytest.raises(InvalidInputError, match="params must be a SteinKernelParams"):
            call(data)

    @pytest.mark.parametrize("call", [
        lambda d: random_split(20, 10, -1),
        lambda d: cf_multisplit_estimate(d, 2, 0.5, PARAMS, seed=-1),
        lambda d: cross_validate(d, [PARAMS], seed=-1),
    ], ids=["random_split", "cf_multisplit_estimate", "cross_validate"])
    def test_negative_seed(self, data, call):
        with pytest.raises(InvalidInputError, match="seed must be an integer >= 0"):
            call(data)

    def test_fractional_seed(self, data):
        with pytest.raises(InvalidInputError, match="seed must be an integer >= 0"):
            cross_validate(data, [PARAMS], seed=1.5)

    @pytest.mark.parametrize("view", [0, 1], ids=["dataset", "gram_view"])
    def test_subset_past_the_last_row(self, data, view):
        with pytest.raises(InvalidInputError, match=r"0\.\.19"):
            _views(data)[view].subset([25])

    @pytest.mark.parametrize("view", [0, 1], ids=["dataset", "gram_view"])
    def test_subset_of_a_negative_row(self, data, view):
        with pytest.raises(InvalidInputError, match=r"0\.\.19"):
            _views(data)[view].subset([-1])

    def test_subset_of_a_view_checks_the_view_rows(self, data):
        view = estimator._GramRows(data, (PARAMS,)).subset(np.arange(5))
        assert view.subset([4]).points.tobytes() == data.points[[4]].tobytes()
        with pytest.raises(InvalidInputError, match=r"0\.\.4"):
            view.subset([5])


class TestRefusals:
    """Refusals that the rest of the suite reaches only through a subprocess,
    or not at all."""

    @pytest.mark.parametrize("points, scores, f, match", [
        (np.zeros(3), np.zeros(3), np.zeros(3), "points must be 2-dimensional"),
        ([[0.0], [np.nan]], np.zeros((2, 1)), np.zeros(2), "points contains non-finite"),
        (np.zeros((0, 1)), np.zeros((0, 1)), np.zeros(0), "at least one sample"),
        (np.zeros((2, 0)), np.zeros((2, 0)), np.zeros(2), "dimension must be at least 1"),
        (np.zeros((2, 1)), np.zeros((2, 2)), np.zeros(2), "scores shape"),
        (np.zeros((2, 1)), np.zeros((2, 1)), np.zeros(3), "f_values length"),
    ], ids=["ndim", "non_finite", "no_rows", "no_columns", "scores_shape", "f_values_length"])
    def test_scored_dataset(self, points, scores, f, match):
        with pytest.raises(InvalidInputError, match=match):
            ScoredDataset(points, scores, f)

    def test_random_split_larger_than_the_sample(self):
        with pytest.raises(InvalidInputError, match="m must be at most n=5"):
            random_split(5, 6, 0)

    def test_degenerate_split_size(self):
        with pytest.raises(InvalidInputError, match="degenerate m=2"):
            _split_size(2, 0.9)

    def test_select_lambda_on_a_non_square_matrix(self):
        with pytest.raises(InvalidInputError, match="must be square"):
            select_lambda(np.zeros((2, 3)))

    def test_split_plan_of_another_size(self, data):
        plan = SplitPlan(np.arange(5), np.arange(5, 10))
        with pytest.raises(InvalidInputError, match="plan covers 10 samples, dataset has 20"):
            cf_split_estimate(data, plan, PARAMS)

    def test_rkhs_function_gamma_of_the_wrong_length(self):
        centers = np.zeros((3, 1))
        with pytest.raises(InvalidInputError, match="one coefficient per center"):
            RkhsFunction(0.0, centers, centers, np.zeros(2), PARAMS)

    @pytest.mark.parametrize("text, match", [
        ("{not json", "not valid JSON"), ("[1, 2]", "config must be a JSON object"),
    ], ids=["invalid_json", "not_an_object"])
    def test_load_config_file(self, tmp_path, text, match):
        path = tmp_path / "config.json"
        path.write_text(text)
        with pytest.raises(InvalidInputError, match=match):
            load_config(path)

    def test_load_config_methods_entry_that_is_not_an_object(self):
        raw = {"problem": "gaussian", "n_grid": [10, 20], "replications": 1, "master_seed": 0,
               "methods": ["cf-split"]}
        with pytest.raises(InvalidInputError, match=r"config key methods\[0\] must be an object"):
            load_config(raw)

    def test_unknown_problem(self):
        config = load_config({"problem": "banana", "n_grid": [10, 20], "replications": 1,
                              "master_seed": 0, "methods": [{"method": "mean"}]})
        with pytest.raises(InvalidInputError, match="unknown problem 'banana'"):
            build_problem(config)

    @pytest.mark.parametrize("weights, means, scales, match", [
        ([], [], [], "at least one component"),
        ([1.0], [np.nan], [1.0], "must be finite"),
    ], ids=["no_components", "non_finite"])
    def test_mixture(self, weights, means, scales, match):
        with pytest.raises(InvalidInputError, match=match):
            mixture_problem(weights, means, scales)

    def test_oracle_mean_above_two_dimensions(self):
        problem = dataclasses.replace(gaussian_problem(3), true_mean=None,
                                      normalised_density=lambda x: np.ones(1))
        with pytest.raises(InvalidInputError, match="unsupported for d=3"):
            oracle_mean(problem)

    def test_mean_element_residuals_off_one_dimension(self):
        with pytest.raises(InvalidInputError, match="needs a d=1 problem"):
            diagnostics.mean_element_residuals(PARAMS, problem=gaussian_problem(2))


def _cli(*args):
    """``cfmc`` in this process: (return code, stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(args))
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


class TestCliRefusals:
    @pytest.fixture
    def sample_file(self, tmp_path):
        x = np.random.default_rng(1).standard_normal((12, 1))
        path = tmp_path / "samples.csv"
        write_sample_file(path, ScoredDataset(x, -x, np.sin(x[:, 0])))
        return path

    def test_lambda_that_is_not_a_number(self, sample_file):
        code, err = _cli("estimate", str(sample_file), "--lambda", "abc")
        assert code == 2 and "must be auto or a number, got 'abc'" in err

    def test_unreadable_cv_grid_file(self, sample_file, tmp_path):
        missing = tmp_path / "no_such_grid.json"
        code, err = _cli("estimate", str(sample_file), "--method", "cf-simplified",
                         "--cv-grid", str(missing))
        assert code == 3 and "no_such_grid.json" in err and "Traceback" not in err

    def test_unknown_bundled_config(self, tmp_path):
        code, err = _cli("bench", "no_such_config", "--out-dir", str(tmp_path / "out"))
        assert code == 3 and "no config file or bundled config named 'no_such_config'" in err
