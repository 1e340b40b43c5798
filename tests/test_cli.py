import contextlib
import csv
import io
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from cfmc import cli
from cfmc import (
    DataFormatError,
    ScoredDataset,
    SteinKernelParams,
    cf_multisplit_estimate,
    cf_simplified_estimate,
    cf_split_estimate,
    cross_validate,
    gaussian_problem,
    random_split,
    read_sample_file,
    write_sample_file,
    zv_estimate,
)
from cfmc.bench import ExperimentConfig, MethodSpec
from cfmc.data import sample_file_header


def run_cli(*args):
    """Run ``cfmc`` in this process, as ``python -m cfmc`` would; an argparse
    usage error's ``SystemExit`` becomes the return code, and any other
    exception fails the test."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(args))
        except SystemExit as exc:
            code = exc.code
    return subprocess.CompletedProcess(["cfmc", *args], code, out.getvalue(), err.getvalue())


def run_module(*args):
    """Run ``python -m cfmc`` in a subprocess."""
    return subprocess.run(
        [sys.executable, "-m", "cfmc", *args], capture_output=True, text=True
    )


@pytest.fixture
def constant_file(tmp_path):
    points = np.array([[0.1], [0.4], [-0.2]])
    data = ScoredDataset(points, -points, np.full(3, 7.5))
    path = tmp_path / "constant.csv"
    write_sample_file(path, data)
    return path


@pytest.fixture
def sin_gaussian_file(tmp_path):
    rng = np.random.default_rng(33)
    data = gaussian_problem(1).dataset(rng, 60)
    path = tmp_path / "sin.csv"
    write_sample_file(path, data)
    return path


class TestSampleFileRoundTrip:
    def test_values_identical(self, tmp_path):
        rng = np.random.default_rng(1)
        data = gaussian_problem(2).dataset(rng, 25)
        path = tmp_path / "roundtrip.csv"
        write_sample_file(path, data)
        back = read_sample_file(path)
        np.testing.assert_array_equal(back.points, data.points)
        np.testing.assert_array_equal(back.scores, data.scores)
        np.testing.assert_array_equal(back.f_values, data.f_values)


    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_value_rejected_with_line(self, tmp_path, bad):
        path = tmp_path / "bad.csv"
        path.write_text(f"x_1,f,u_1\n0.5,1.0,-0.5\n0.25,{bad},-0.25\n")
        with pytest.raises(DataFormatError, match=r"bad\.csv: line 3: non-finite value$"):
            read_sample_file(path)


def line_by_line_read(path):
    """The csv-module reader that ``read_sample_file`` must reproduce: the
    result as arrays, or the (class, message) of the error it raises."""
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise DataFormatError(f"{path}: file is empty") from None
            header = [h.strip() for h in header]
            d = (len(header) - 1) // 2
            if len(header) < 3 or len(header) % 2 == 0 or header != sample_file_header(d):
                raise DataFormatError(
                    f"{path}: header must be x_1..x_d, f, u_1..u_d, got {header}"
                )
            points, scores, f_values = [], [], []
            for line_no, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != 2 * d + 1:
                    raise DataFormatError(
                        f"{path}: line {line_no}: expected {2 * d + 1} fields, got {len(row)}"
                    )
                try:
                    values = [float(v) for v in row]
                except ValueError as exc:
                    raise DataFormatError(f"{path}: line {line_no}: {exc}") from None
                if not all(map(math.isfinite, values)):
                    raise DataFormatError(f"{path}: line {line_no}: non-finite value")
                points.append(values[:d])
                f_values.append(values[d])
                scores.append(values[d + 1 :])
        if not points:
            raise DataFormatError(f"{path}: no data rows")
        return np.asarray(points), np.asarray(scores), np.asarray(f_values)
    except DataFormatError as exc:
        return type(exc), str(exc)


HEADER_D1 = "x_1,f,u_1\n"
SAMPLE_FILES = {
    "plain": HEADER_D1 + "0.5,1.0,-0.5\n-1.25,2.0,1.25\n",
    "d2": "x_1,x_2,f,u_1,u_2\n" + "".join(
        f"{0.1 * i!r},{-0.3 * i!r},{i / 7!r},{-0.1 * i!r},{0.3 * i!r}\n" for i in range(40)
    ),
    "no_final_newline": HEADER_D1 + "0.5,1.0,-0.5",
    "blank_lines": HEADER_D1 + "\n0.5,1.0,-0.5\n\n\n-1.25,2.0,1.25\n\n",
    "whitespace_only_line": HEADER_D1 + "0.5,1.0,-0.5\n   \n",
    "tab_only_line": HEADER_D1 + "0.5,1.0,-0.5\n\t\n",
    "crlf": "x_1,f,u_1\r\n0.5,1.0,-0.5\r\n\r\n-1.25,2.0,1.25\r\n",
    "cr_only": "x_1,f,u_1\r0.5,1.0,-0.5\r-1.25,2.0,1.25\r",
    "padded_fields": HEADER_D1 + " 0.5 ,\t1.0, -0.5\n",
    "quoted_fields": HEADER_D1 + '"0.5",1.0,"-0.5"\n',
    "quoted_comma": HEADER_D1 + '"0,5",1.0,-0.5\n',
    "quoted_header_newline": '"x_1\n",f,u_1\n0.5,1.0,-0.5\n',
    "comment_line": HEADER_D1 + "# written by hand\n0.5,1.0,-0.5\n",
    "comment_with_fields": HEADER_D1 + "#0.5,1.0,-0.5\n",
    "nan": HEADER_D1 + "0.5,nan,-0.5\n",
    "inf": HEADER_D1 + "0.5,1.0,inf\n",
    "overflow": HEADER_D1 + "1e999,1.0,-0.5\n",
    "underscore": HEADER_D1 + "1_0,1.0,-1_0\n",
    "arabic_indic_digit": HEADER_D1 + "١,1.0,-0.5\n",
    "signed_zero_subnormal": HEADER_D1 + "-0.0,1e-320,0.0\n",
    "short_row": HEADER_D1 + "0.5,1.0,-0.5\n0.5,1.0\n",
    "long_row": HEADER_D1 + "0.5,1.0,-0.5,2.0\n",
    "trailing_comma": HEADER_D1 + "0.5,1.0,-0.5,\n",
    "empty_field": HEADER_D1 + "0.5,,-0.5\n",
    "text": HEADER_D1 + "a,b,c\n",
    "nul": HEADER_D1 + "0.5,1.0,-0.5\x00\n",
    "header_only": HEADER_D1,
    "header_only_blank_lines": HEADER_D1 + "\n\n",
    "empty": "",
    "bad_header": "x,f,u\n0.5,1.0,-0.5\n",
}


class TestReadSampleFile:
    """read_sample_file parses the body in one np.loadtxt call where it can,
    and otherwise line by line; either way it must give the csv reader's
    arrays bit for bit, or its error class and message."""

    @pytest.mark.parametrize("name", sorted(SAMPLE_FILES))
    def test_same_as_line_by_line(self, name, tmp_path):
        path = tmp_path / f"{name}.csv"
        path.write_bytes(SAMPLE_FILES[name].encode())
        want = line_by_line_read(path)
        try:
            back = read_sample_file(path)
        except DataFormatError as exc:
            assert (type(exc), str(exc)) == want
            return
        assert not isinstance(want[0], type), want
        for got, ref in zip((back.points, back.scores, back.f_values), want):
            assert got.tobytes() == ref.tobytes()
            assert got.shape == ref.shape and got.flags.c_contiguous

    @pytest.mark.parametrize("name", ["plain", "d2", "blank_lines", "crlf", "padded_fields"])
    def test_well_formed_file_read_in_one_call(self, name, tmp_path, monkeypatch):
        def line_by_line(*args):
            raise AssertionError("read line by line")

        monkeypatch.setattr("cfmc.data._parse_rows", line_by_line)
        path = tmp_path / f"{name}.csv"
        path.write_bytes(SAMPLE_FILES[name].encode())
        read_sample_file(path)

    def test_written_file_bits(self, tmp_path):
        data_in = gaussian_problem(3).dataset(np.random.default_rng(4), 300)
        path = tmp_path / "written.csv"
        write_sample_file(path, data_in)
        back = read_sample_file(path)
        for got, ref in zip((back.points, back.scores, back.f_values), line_by_line_read(path)):
            assert got.tobytes() == ref.tobytes()


class TestEstimateCommand:
    def test_mean_of_constant_file(self, constant_file):
        result = run_module("estimate", str(constant_file), "--method", "mean")
        assert result.returncode == 0
        assert "value = 7.5" in result.stdout

    def test_cf_simplified_near_zero(self, sin_gaussian_file):
        result = run_cli(
            "estimate", str(sin_gaussian_file),
            "--method", "cf-simplified", "--alpha1", "0.1", "--alpha2", "1",
            "--output", "json",
        )
        assert result.returncode == 0
        payload = json.loads(result.stdout)
        assert payload["schema_version"] == 1
        assert abs(payload["value"]) < 0.05
        assert payload["m"] == payload["n"] == 60

    def test_split_with_bound_reports_radius(self, sin_gaussian_file):
        result = run_cli(
            "estimate", str(sin_gaussian_file),
            "--method", "cf-split", "--bound", "--fnorm", "2.0",
            "--output", "json",
        )
        assert result.returncode == 0
        payload = json.loads(result.stdout)
        assert payload["discrepancy"] >= 0.0
        assert payload["bound_radius"] == pytest.approx(
            2.0 * np.sqrt(payload["discrepancy"])
        )

    def test_malformed_row_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x_1,f,u_1\n0.1,1.0,-0.1\n0.2,oops,-0.2\n")
        result = run_cli("estimate", str(path), "--method", "mean")
        assert result.returncode == 3
        assert "line 3" in result.stderr

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "bad_header.csv"
        path.write_text("a,b,c\n1,2,3\n")
        result = run_cli("estimate", str(path), "--method", "mean")
        assert result.returncode == 3

    def test_unknown_method_is_usage_error(self, constant_file):
        result = run_module("estimate", str(constant_file), "--method", "bogus")
        assert result.returncode == 2
        assert "argument --method" in result.stderr
        assert "Traceback" not in result.stderr

    def test_density_method_is_usage_error(self, constant_file):
        # A sample file carries no normalised density, so riemann is no choice.
        result = run_cli("estimate", str(constant_file), "--method", "riemann")
        assert result.returncode == 2
        assert "argument --method" in result.stderr

    @pytest.mark.parametrize("degree", [1, 2])
    def test_zv_prints_zv_estimate(self, sin_gaussian_file, degree):
        result = run_cli(
            "estimate", str(sin_gaussian_file), "--method", f"zv{degree}", "--output", "json"
        )
        assert result.returncode == 0, result.stderr
        expected = zv_estimate(read_sample_file(sin_gaussian_file), degree=degree)
        assert json.loads(result.stdout)["value"] == expected.value

    def test_bound_without_fnorm_is_usage_error(self, sin_gaussian_file):
        result = run_cli("estimate", str(sin_gaussian_file), "--method", "cf-split", "--bound")
        assert result.returncode == 2
        assert "usage" in result.stderr.lower()

    def test_bound_with_wrong_method_is_usage_error(self, sin_gaussian_file):
        result = run_cli(
            "estimate", str(sin_gaussian_file),
            "--method", "cf-simplified", "--bound", "--fnorm", "1.0",
        )
        assert result.returncode == 2

    def test_explicit_lambda_accepted(self, sin_gaussian_file):
        result = run_cli(
            "estimate", str(sin_gaussian_file),
            "--method", "cf-simplified", "--lambda", "1e-8", "--output", "json",
        )
        assert result.returncode == 0
        assert json.loads(result.stdout)["lambda_used"] == 1e-8

    @pytest.mark.parametrize("lam", ["auto", "1e-3"])
    @pytest.mark.parametrize("method", ["cf-split", "cf-simplified", "cf-multisplit"])
    def test_non_finite_kernel_system_is_data_error(self, tmp_path, method, lam):
        # Finite scores of 1e200 on seven of twelve rows: every fitting set
        # holds one, and u * u overflows in its kernel system, under any lambda.
        points = np.linspace(-1.0, 1.0, 12)[:, None]
        scores = -points
        scores[:7] = 1e200
        path = tmp_path / "huge.csv"
        write_sample_file(path, ScoredDataset(points, scores, np.sin(points[:, 0])))
        with np.errstate(over="ignore", invalid="ignore"):
            result = run_cli("estimate", str(path), "--method", method, "--lambda", lam)
        assert result.returncode == 3
        assert "non-finite" in result.stderr

    def test_overflowing_bound_is_data_error(self, tmp_path):
        # A score of 1e200 on one evaluation row of the default split keeps
        # the fit finite but overflows 1'K1 1, which would make D NaN.
        points = np.random.default_rng(0).standard_normal((12, 1))
        scores = -points
        scores[random_split(12, 6, seed=0).index_d1[0]] = 1e200
        path = tmp_path / "huge.csv"
        write_sample_file(path, ScoredDataset(points, scores, np.sin(points[:, 0])))
        with np.errstate(over="ignore", invalid="ignore"):
            result = run_cli(
                "estimate", str(path), "--method", "cf-split", "--bound", "--fnorm", "1",
                "--output", "json",
            )
        assert result.returncode == 3
        assert "k1 sums to" in result.stderr
        assert "NaN" not in result.stdout

    def test_multisplit_records_split_count(self, sin_gaussian_file):
        result = run_cli(
            "estimate", str(sin_gaussian_file),
            "--method", "cf-multisplit", "--splits", "3", "--output", "json",
        )
        assert result.returncode == 0
        assert json.loads(result.stdout)["n_splits"] == 3

    def test_singular_system_is_numerical_failure(self, tmp_path):
        # Five copies of one point with no regularisation: the kernel system
        # cannot be factorised, which is exit code 4.
        points = np.repeat([[0.25]], 5, axis=0)
        data = ScoredDataset(points, -points, np.ones(5))
        path = tmp_path / "degenerate.csv"
        write_sample_file(path, data)
        result = run_module(
            "estimate", str(path), "--method", "cf-simplified", "--lambda", "0"
        )
        assert result.returncode == 4
        assert "regularisation" in result.stderr
        assert "Traceback" not in result.stderr


    @pytest.mark.parametrize(
        "args, option",
        [
            (("--method", "cf-split", "--seed", "-1"), "--seed"),
            (("--seed", "1.5"), "--seed"),
            (("--method", "cf-split", "--bound", "--fnorm", "-1"), "--fnorm"),
            (("--method", "cf-split", "--bound", "--fnorm", "nan"), "--fnorm"),
            (("--method", "cf-split", "--bound", "--fnorm", "inf"), "--fnorm"),
            (("--method", "cf-split", "--split-fraction", "nan"), "--split-fraction"),
            (("--method", "cf-split", "--split-fraction", "inf"), "--split-fraction"),
            (("--method", "cf-split", "--split-fraction", "1.5"), "--split-fraction"),
            (("--method", "cf-split", "--split-fraction", "-0.5"), "--split-fraction"),
            (("--method", "cf-split", "--split-fraction", "0"), "--split-fraction"),
            (("--method", "cf-split", "--split-fraction", "1"), "--split-fraction"),
            (("--method", "cf-multisplit", "--splits", "0"), "--splits"),
            (("--method", "cf-multisplit", "--splits", "2.5"), "--splits"),
            (("--alpha1", "-1"), "--alpha1"),
            (("--alpha1", "0"), "--alpha1"),
            (("--alpha2", "nan"), "--alpha2"),
            (("--alpha2", "inf"), "--alpha2"),
            # Finite, but 8*alpha1**2 or alpha2**4 overflows.
            (("--method", "cf-split", "--alpha1", "1e160"), "--alpha1"),
            (("--method", "cf-split", "--alpha2", "1e80"), "--alpha2"),
            # Positive, but alpha2**4 underflows to zero.
            (("--method", "cf-split", "--alpha2", "1e-300"), "--alpha2"),
            (("--method", "cf-simplified", "--alpha2", "1e-100"), "--alpha2"),
        ],
    )
    def test_invalid_number_is_usage_error(self, sin_gaussian_file, args, option):
        result = run_cli("estimate", str(sin_gaussian_file), *args)
        assert result.returncode == 2
        assert f"argument {option}" in result.stderr
        assert "Traceback" not in result.stderr

    def test_zero_fnorm_accepted(self, sin_gaussian_file):
        result = run_cli(
            "estimate", str(sin_gaussian_file), "--method", "cf-split", "--bound",
            "--fnorm", "0", "--output", "json",
        )
        assert result.returncode == 0
        assert json.loads(result.stdout)["bound_radius"] == 0.0


CV_GRID = ((0.1, 0.5), (0.1, 1.0), (0.1, 2.0))


class TestEstimateCvGrid:
    """``--cv-grid`` searches the grid with seed + 1, on the samples each
    method's rule names; results match the library calls bit for bit.  Each
    test's seed is one at which another rule would pick another kernel."""

    @pytest.fixture
    def cv_case(self, sin_gaussian_file, tmp_path):
        grid_path = tmp_path / "grid.json"
        grid_path.write_text(json.dumps([list(pair) for pair in CV_GRID]))
        grid = tuple(SteinKernelParams(alpha1=a1, alpha2=a2) for a1, a2 in CV_GRID)
        return read_sample_file(sin_gaussian_file), grid, grid_path

    @staticmethod
    def run_estimate(sin_gaussian_file, grid_path, method, seed, *extra):
        result = run_cli(
            "estimate", str(sin_gaussian_file), "--method", method, "--cv-grid", str(grid_path),
            "--seed", str(seed), "--output", "json", *extra,
        )
        assert result.returncode == 0, result.stderr
        return json.loads(result.stdout)

    def test_split_cross_validates_on_its_fitting_set(self, cv_case, sin_gaussian_file):
        data, grid, grid_path = cv_case
        seed = 0
        plan = random_split(data.n, 30, seed)
        params = cross_validate(data.subset(plan.index_d0), grid, seed=seed + 1)
        assert params != cross_validate(data, grid, seed=seed + 1)
        expected = cf_split_estimate(data, plan, params)
        payload = self.run_estimate(sin_gaussian_file, grid_path, "cf-split", seed)
        assert payload["value"] == expected.value
        assert payload["lambda_used"] == expected.lambda_used

    def test_multisplit_cross_validates_on_one_extra_split(self, cv_case, sin_gaussian_file):
        data, grid, grid_path = cv_case
        seed = 2
        cv_plan = random_split(data.n, 30, seed + 1)
        params = cross_validate(data.subset(cv_plan.index_d0), grid, seed=seed + 1)
        assert params != cross_validate(data, grid, seed=seed + 1)
        expected = cf_multisplit_estimate(data, 3, 0.5, params, seed=seed)
        payload = self.run_estimate(
            sin_gaussian_file, grid_path, "cf-multisplit", seed, "--splits", "3"
        )
        assert payload["value"] == expected.value
        assert payload["lambda_used"] == expected.lambda_used

    def test_simplified_cross_validates_on_all_samples(self, cv_case, sin_gaussian_file):
        data, grid, grid_path = cv_case
        seed = 0
        params = cross_validate(data, grid, seed=seed + 1)
        assert params != cross_validate(data, grid, seed=seed)
        expected = cf_simplified_estimate(data, params)
        payload = self.run_estimate(sin_gaussian_file, grid_path, "cf-simplified", seed)
        assert payload["value"] == expected.value
        assert payload["lambda_used"] == expected.lambda_used

    @pytest.mark.parametrize("method", ["cf-simplified", "cf-split"])
    def test_empty_grid_is_data_error(self, sin_gaussian_file, tmp_path, method):
        grid_path = tmp_path / "empty.json"
        grid_path.write_text("[]")
        result = run_cli(
            "estimate", str(sin_gaussian_file), "--method", method, "--cv-grid", str(grid_path)
        )
        assert result.returncode == 3
        assert "cv_grid" in result.stderr
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("pair", [[True, 1.0], ["0.1", 1.0], [0.1]])
    def test_malformed_grid_pair_is_data_error(self, sin_gaussian_file, tmp_path, pair):
        grid_path = tmp_path / "grid.json"
        grid_path.write_text(json.dumps([pair]))
        result = run_cli(
            "estimate", str(sin_gaussian_file), "--method", "cf-simplified",
            "--cv-grid", str(grid_path),
        )
        assert result.returncode == 3
        assert "cv grid must be a JSON list of [alpha1, alpha2] pairs" in result.stderr


BENCH_CONFIG = {
    "problem": "gaussian",
    "problem_params": {"d": 1},
    "n_grid": [10, 20, 40],
    "replications": 4,
    "master_seed": 7,
    "methods": [
        {"method": "mean"},
        {"method": "cf-split"},
        {"method": "cf-simplified"},
    ],
}


# A valid mixture's problem_params.
MIXTURE = {"weights": [0.5, 0.5], "means": [-1.0, 1.0], "scales": [0.5, 0.5]}


class TestBenchCommand:
    def test_dry_run_writes_nothing(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(BENCH_CONFIG))
        out_dir = tmp_path / "out"
        result = run_cli("bench", str(config), "--dry-run", "--out-dir", str(out_dir))
        assert result.returncode == 0
        assert "rows = 36" in result.stdout
        assert "cells = 9" in result.stdout
        assert not out_dir.exists()

    def test_reports_written(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(BENCH_CONFIG))
        out_dir = tmp_path / "out"
        result = run_cli("bench", str(config), "--out-dir", str(out_dir))
        assert result.returncode == 0
        assert (out_dir / "report.csv").exists()
        payload = json.loads((out_dir / "report.json").read_text())
        assert payload["schema_version"] == 1

    def test_thread_count_preserves_bytes(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(BENCH_CONFIG))
        out1, out8 = tmp_path / "t1", tmp_path / "t8"
        assert run_cli("bench", str(config), "--out-dir", str(out1), "--threads", "1").returncode == 0
        assert run_cli("bench", str(config), "--out-dir", str(out8), "--threads", "8").returncode == 0
        assert (out1 / "report.csv").read_bytes() == (out8 / "report.csv").read_bytes()
        assert (out1 / "report.json").read_bytes() == (out8 / "report.json").read_bytes()

    def test_emitted_samples_feed_estimate(self, tmp_path):
        config = tmp_path / "config.json"
        small = dict(BENCH_CONFIG, n_grid=[50], replications=1)
        config.write_text(json.dumps(small))
        samples = tmp_path / "samples"
        out_dir = tmp_path / "out"
        result = run_cli(
            "bench", str(config), "--out-dir", str(out_dir), "--emit-samples", str(samples)
        )
        assert result.returncode == 0
        emitted = samples / "samples_n50_rep0.csv"
        assert emitted.exists()
        est = run_cli(
            "estimate", str(emitted),
            "--method", "cf-simplified", "--alpha1", "0.1", "--alpha2", "1",
            "--output", "json",
        )
        assert est.returncode == 0
        assert abs(json.loads(est.stdout)["value"]) < 0.05

    def test_bundled_config_resolves(self, tmp_path):
        result = run_cli("bench", "paper_d1", "--dry-run")
        assert result.returncode == 0
        assert "cells = 36" in result.stdout

    def test_invalid_config_keys_listed(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(dict(BENCH_CONFIG, typo_key=1)))
        result = run_cli("bench", str(config), "--dry-run")
        assert result.returncode == 3
        assert "typo_key" in result.stderr

    def test_negative_master_seed_is_data_error(self, tmp_path):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({
            "problem": "gaussian", "n_grid": [10, 20], "replications": 2,
            "master_seed": -1, "methods": [{"method": "mean"}],
        }))
        result = run_cli("bench", str(config), "--out-dir", str(tmp_path / "out"))
        assert result.returncode == 3
        assert "master_seed" in result.stderr
        assert "Traceback" not in result.stderr

    def test_missing_config_is_data_error(self):
        result = run_module("bench", "no_such_config")
        assert result.returncode == 3
        assert result.stderr.startswith("error: ")
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("top, entry, named", [
        ({}, {"alpha1": "abc"}, "methods[0].alpha1"),
        ({}, {"lambda": "abc"}, "methods[0].lambda"),
        ({"replications": "x"}, {}, "replications"),
        ({"n_grid": 5}, {}, "n_grid"),
        ({}, {"cv_grid": [[0.1]]}, "methods[0].cv_grid"),
        ({}, {"label": ["a"]}, "methods[0].label"),
        ({}, {"method": ["mean"]}, "methods[0].method"),
        ({"problem_params": {"d": "x"}}, {}, "problem_params"),
        ({"problem": "mixture", "problem_params": {"foo": 1}}, {}, "problem_params"),
        # Numbers are checked, not coerced: a fraction or a bool is no
        # integer, and a string or a bool is no number.
        ({"n_grid": [10.9, 20]}, {}, "n_grid"),
        ({"replications": 2.7}, {}, "replications"),
        ({"master_seed": True}, {}, "master_seed"),
        ({"n_splits": 1.5}, {}, "n_splits"),
        ({"split_fraction": "0.5"}, {}, "split_fraction"),
        ({}, {"lambda": True}, "methods[0].lambda"),
        ({}, {"alpha1": "0.1"}, "methods[0].alpha1"),
        ({}, {"alpha2": False}, "methods[0].alpha2"),
        ({}, {"cv_train_fraction": True}, "methods[0].cv_train_fraction"),
        ({}, {"cv_grid": [[True, 1.0]]}, "methods[0].cv_grid"),
        ({}, {"cv_grid": [["0.1", 1.0]]}, "methods[0].cv_grid"),
        # Finite numbers whose kernel constants overflow.
        ({}, {"alpha1": 1e160}, "methods[0].alpha1"),
        ({}, {"alpha2": 1e80}, "methods[0].alpha2"),
        ({}, {"cv_grid": [[0.1, 1e80]]}, "methods[0].cv_grid"),
        # A length-scale whose fourth power underflows to zero.
        ({}, {"alpha2": 1e-300}, "methods[0].alpha2"),
        ({}, {"cv_grid": [[0.1, 1.0], [0.1, 1e-81]]}, "methods[0].cv_grid"),
        ({"problem_params": {"d": 1.5}}, {}, "problem_params"),
        ({"problem_params": {"d": True}}, {}, "problem_params"),
        # Keys the problem does not take, refused before a d = 1 study, a
        # crash in the oracle or "problem": 7 in report.json.
        ({"problem_params": {"D": 3}}, {}, "unknown config keys: problem_params.D"),
        ({"problem": "mixture", "problem_params": dict(MIXTURE, integrand=3)}, {},
         "unknown config keys: problem_params.integrand"),
        ({"problem": "mixture", "problem_params": dict(MIXTURE, name=7)}, {},
         "problem_params.name must be a string"),
    ])
    def test_malformed_config_value_is_data_error(self, tmp_path, top, entry, named):
        raw = {
            "problem": "gaussian", "n_grid": [10, 20], "replications": 2, "master_seed": 1,
            "methods": [dict({"method": "cf-split"}, **entry)],
        }
        config = tmp_path / "bad.json"
        config.write_text(json.dumps(dict(raw, **top)))
        result = run_cli("bench", str(config), "--dry-run")
        assert result.returncode == 3
        assert result.stderr.startswith("error: ")
        assert named in result.stderr
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("threads", ["0", "-3", "1.5"])
    def test_invalid_threads_is_usage_error(self, threads):
        result = run_cli("bench", "paper_d1", "--dry-run", "--threads", threads)
        assert result.returncode == 2
        assert "argument --threads" in result.stderr
        assert "Traceback" not in result.stderr


def _mean_element_residuals(stdout: str) -> list[float]:
    return [
        float(line.rsplit("=", 1)[1])
        for line in stdout.splitlines()
        if line.startswith("mean_element_residual[")
    ]


class TestDiagnoseCommand:
    def test_gaussian_defaults(self):
        result = run_cli("diagnose", "--target", "gaussian-d1", "--sample-size", "200")
        assert result.returncode == 0
        residuals = _mean_element_residuals(result.stdout)
        assert len(residuals) == 10
        assert max(abs(r) for r in residuals) < 1e-8
        grad_line = next(
            line for line in result.stdout.splitlines()
            if line.startswith("gradient_check_max_rel_error")
        )
        assert float(grad_line.rsplit("=", 1)[1]) < 1e-6
        assert "sampled_sup_k0_diag" in result.stdout

    def test_mixture_target_has_zero_mean_element_residuals(self):
        # The d = 1 mixture has a density, so its score (softmax) runs under
        # the quadrature at every probe.
        result = run_cli("diagnose", "--target", "bimodal-mixture", "--sample-size", "100")
        assert result.returncode == 0
        residuals = _mean_element_residuals(result.stdout)
        assert len(residuals) == 10
        assert max(abs(r) for r in residuals) < 1e-8
        assert "skipped" not in result.stdout

    def test_d2_target_skips_the_mean_element_check(self):
        result = run_cli("diagnose", "--target", "gaussian-d2", "--sample-size", "100")
        assert result.returncode == 0
        assert _mean_element_residuals(result.stdout) == []
        assert (
            "mean_element_residuals = skipped (needs a d=1 target with a density)"
            in result.stdout.splitlines()
        )

    @pytest.mark.parametrize(
        "args, option",
        [
            (("--probes", "0"), "--probes"),
            (("--seed", "-1"), "--seed"),
            (("--sample-size", "-3"), "--sample-size"),
            (("--alpha1", "0"), "--alpha1"),
            (("--alpha2", "-1"), "--alpha2"),
            (("--alpha1", "nan"), "--alpha1"),
            (("--alpha2", "1e80"), "--alpha2"),
        ],
    )
    def test_invalid_count_is_usage_error(self, args, option):
        result = run_cli("diagnose", *args)
        assert result.returncode == 2
        assert f"argument {option}" in result.stderr
        assert "Traceback" not in result.stderr

    def test_unknown_target_is_usage_error(self):
        result = run_cli("diagnose", "--target", "nope")
        assert result.returncode == 2


def test_parser_defaults_are_the_dataclass_defaults():
    parser = cli.build_parser()
    estimate = parser.parse_args(["estimate", "samples.csv"])
    diagnose = parser.parse_args(["diagnose"])
    for args in (estimate, diagnose):
        assert (args.alpha1, args.alpha2) == (MethodSpec.alpha1, MethodSpec.alpha2)
    assert estimate.lambda_ == MethodSpec.lambda_
    assert estimate.split_fraction == ExperimentConfig.split_fraction
    assert estimate.splits == ExperimentConfig.n_splits


@pytest.mark.parametrize(
    "command, args, flag",
    [
        ("estimate", ("--alpha1", "-1"), "--alpha1"),
        ("estimate", ("--lambda", "-1"), "--lambda"),
        ("estimate", ("--split-fraction", "1.5"), "--split-fraction"),
        ("estimate", ("--splits", "0"), "--splits"),
        ("estimate", ("--seed", "-1"), "--seed"),
        ("estimate", ("--bound",), "--bound"),
        ("estimate", ("--fnorm", "1"), "--fnorm"),
        ("estimate", ("--method", "cf-simplified", "--bound", "--fnorm", "1"), "--bound"),
        ("bench", ("paper_d1", "--dry-run", "--threads", "0"), "--threads"),
        ("diagnose", ("--alpha2", "0"), "--alpha2"),
        ("diagnose", ("--alpha2", "1e-300"), "--alpha2"),
        ("diagnose", ("--probes", "0"), "--probes"),
        ("diagnose", ("--target", "nope"), "--target"),
        ("diagnose", ("--target", "gaussian-d0"), "--target"),
    ],
)
def test_refused_flag_prints_the_subcommand_usage(sin_gaussian_file, command, args, flag):
    # A value refused after parsing reads like one argparse refuses itself.
    inputs = (str(sin_gaussian_file),) if command == "estimate" else ()
    result = run_cli(command, *inputs, *args)
    assert result.returncode == 2
    assert f"argument {flag}" in result.stderr
    assert result.stderr.startswith(f"usage: cfmc {command}")
