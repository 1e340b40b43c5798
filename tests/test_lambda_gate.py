"""The rules of ``tools/lambda_gate.py``, the base-against-head output gate,
on small report files written here."""

import csv
import json
import math
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "tools"))
from lambda_gate import ESTIMATE_RTOL, check, check_json, deviation, leaves  # noqa: E402

FIELDS = ("method", "n", "replication", "estimate", "lambda_used")
ROWS = (
    ("mean", "10", "0", "0.125", ""),
    ("cf-split", "10", "0", "0.0625", "1e-06"),
    ("cf-split", "10", "1", "", ""),
)


def write_csv(path: Path, rows) -> Path:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(FIELDS)
        writer.writerows(rows)
    return path


def write_json(path: Path, report) -> Path:
    path.write_text(json.dumps(report))
    return path


def with_cell(row, field, value):
    row = list(row)
    row[FIELDS.index(field)] = value
    return tuple(row)


class TestDeviation:
    def test_empty_cells(self):
        assert deviation("", "") == 0.0
        assert deviation("", "0.5") == math.inf
        assert deviation("0.5", "") == math.inf

    @pytest.mark.parametrize("base, head", [("nan", "0.5"), ("0.5", "nan"), ("nan", "nan")])
    def test_nan_matches_nothing(self, base, head):
        assert deviation(base, head) == math.inf

    def test_equal_and_relative(self):
        assert deviation("0.5", "0.5") == 0.0
        assert deviation("2.0", "-2.0") == 2.0
        dev = deviation("1.0", repr(1.0 + 1e-13))
        assert 0.0 < dev < ESTIMATE_RTOL


class TestCheck:
    def run(self, tmp_path, head_rows):
        base = write_csv(tmp_path / "base.csv", ROWS)
        return check("study", base, write_csv(tmp_path / "head.csv", head_rows))

    def test_identical_reports_pass(self, tmp_path):
        assert self.run(tmp_path, ROWS)

    @pytest.mark.parametrize("rows", [
        ROWS[:2],
        ROWS + (("zv1", "10", "0", "0.125", ""),),
        (ROWS[0], ROWS[1], with_cell(ROWS[2], "replication", "2")),
        (with_cell(ROWS[0], "method", "zv2"), *ROWS[1:]),
    ], ids=["row_removed", "row_added", "replication", "method"])
    def test_different_row_keys_fail(self, tmp_path, rows):
        assert not self.run(tmp_path, rows)

    @pytest.mark.parametrize("lam", ["1e-05", ""])
    def test_changed_lambda_fails(self, tmp_path, lam):
        assert not self.run(tmp_path, (ROWS[0], with_cell(ROWS[1], "lambda_used", lam), ROWS[2]))

    def test_deviation_within_tolerance_passes(self, tmp_path):
        moved = repr(0.0625 * (1.0 + 1e-13))
        assert self.run(tmp_path, (ROWS[0], with_cell(ROWS[1], "estimate", moved), ROWS[2]))

    @pytest.mark.parametrize("estimate", [repr(0.0625 * (1.0 + 2e-12)), "", "nan"])
    def test_deviation_beyond_tolerance_fails(self, tmp_path, estimate):
        assert not self.run(tmp_path, (ROWS[0], with_cell(ROWS[1], "estimate", estimate), ROWS[2]))


REPORT = {
    "schema_version": 3,
    "n_grid": [10, 20],
    "master_seed": 7,
    "cells": {"cf-split": {"n=10": {"rmse": 0.25, "failures": 0, "notes": "ok"}}},
}


REMOVED = object()


def with_leaf(report, path, value):
    """A deep copy of ``report`` with the value at ``path`` set, or removed
    when ``value`` is ``REMOVED``."""
    report = json.loads(json.dumps(report))
    node = report
    for name in path[:-1]:
        node = node[name]
    if value is REMOVED:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return report


class TestCheckJson:
    def run(self, tmp_path, base, head):
        return check_json("study", write_json(tmp_path / "base.json", base),
                          write_json(tmp_path / "head.json", head))

    def test_identical_reports_pass(self, tmp_path):
        assert self.run(tmp_path, REPORT, REPORT)

    def test_schema_bump_passes_with_any_layout(self, tmp_path):
        assert self.run(tmp_path, REPORT, {"schema_version": 4, "rows": ["a"]})

    def test_schema_downgrade_fails(self, tmp_path):
        assert not self.run(tmp_path, REPORT, with_leaf(REPORT, ("schema_version",), 2))

    @pytest.mark.parametrize("path, value", [
        (("cells", "cf-split", "n=10", "bias"), 0.5),
        (("cells", "cf-split", "n=10", "notes"), REMOVED),
        (("cells", "cf-split", "n=10"), {"rmse": 0.25}),
    ], ids=["added", "removed", "object_shrunk"])
    def test_changed_key_paths_fail(self, tmp_path, path, value):
        assert not self.run(tmp_path, REPORT, with_leaf(REPORT, path, value))

    def test_changed_float_passes(self, tmp_path):
        path = ("cells", "cf-split", "n=10", "rmse")
        assert self.run(tmp_path, REPORT, with_leaf(REPORT, path, 0.25000001))

    @pytest.mark.parametrize("path, value", [
        (("master_seed",), 8),
        (("n_grid",), [10, 40]),
        (("cells", "cf-split", "n=10", "notes"), "flagged"),
        (("cells", "cf-split", "n=10", "failures"), 0.0),
        (("cells", "cf-split", "n=10", "rmse"), None),
    ], ids=["int", "list", "str", "int_to_float", "float_to_null"])
    def test_changed_non_float_fails(self, tmp_path, path, value):
        assert not self.run(tmp_path, REPORT, with_leaf(REPORT, path, value))


def test_leaves_are_the_non_object_values():
    assert dict(leaves(REPORT)) == {
        ("schema_version",): 3,
        ("n_grid",): [10, 20],
        ("master_seed",): 7,
        ("cells", "cf-split", "n=10", "rmse"): 0.25,
        ("cells", "cf-split", "n=10", "failures"): 0,
        ("cells", "cf-split", "n=10", "notes"): "ok",
    }
