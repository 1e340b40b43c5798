"""Compare the per-row outputs of two benchmark result files.

    python3 perfbench/compare.py BEFORE.json AFTER.json

Result files are written by ``run.py`` under ``perfbench/results/``.  Rows are
matched on (request, method, n, replication); rows present in only one file
(a faster program completes more requests in the same time) are counted but
not compared.  Prints a JSON summary with the maximum relative deviation of
the estimates and whether every lambda is identical, and exits 0 only when
the lambdas are identical, no row failed on one side only, and every estimate
agrees within ``RTOL``: the gate for a change that claims to keep outputs.
"""

from __future__ import annotations

import argparse
import json
import sys

RTOL = 1e-12


def load_rows(path) -> dict:
    with open(path) as fh:
        result = json.load(fh)
    return {tuple(row[:4]): (row[4], row[5]) for row in result["rows"]}


def relative_deviation(a: float, b: float) -> float:
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale else 0.0


def compare(before: dict, after: dict) -> dict:
    shared = sorted(set(before) & set(after), key=repr)
    max_dev = 0.0
    lambda_diffs = 0
    missing_on_one_side = 0
    for key in shared:
        (est_a, lam_a), (est_b, lam_b) = before[key], after[key]
        if lam_a != lam_b:
            lambda_diffs += 1
        if (est_a is None) != (est_b is None):
            missing_on_one_side += 1
        elif est_a is not None:
            max_dev = max(max_dev, relative_deviation(float.fromhex(est_a), float.fromhex(est_b)))
    return {
        "compared_rows": len(shared),
        "only_before": len(set(before) - set(after)),
        "only_after": len(set(after) - set(before)),
        "max_relative_deviation": max_dev,
        "lambda_identical": lambda_diffs == 0,
        "lambda_differences": lambda_diffs,
        "failed_on_one_side": missing_on_one_side,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("before")
    parser.add_argument("after")
    args = parser.parse_args(argv)
    summary = compare(load_rows(args.before), load_rows(args.after))
    summary["within_rtol"] = summary["max_relative_deviation"] <= RTOL
    print(json.dumps(summary, indent=2))
    ok = (
        summary["compared_rows"] > 0
        and summary["lambda_identical"]
        and summary["failed_on_one_side"] == 0
        and summary["within_rtol"]
    )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
