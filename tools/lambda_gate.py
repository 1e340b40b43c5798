"""Output gate: the ``lambda_used`` column of two studies must not change,
and no estimate may move by more than 1e-12 relative.

    python tools/lambda_gate.py BASE_CHECKOUT [--out-dir DIR]

Runs ``python -m cfmc bench CONFIG --threads 1`` once from
``BASE_CHECKOUT/src`` and once from this checkout's ``src``, with every
BLAS/OpenMP thread count pinned to 1, for two configs: the bundled paper_d1
(d = 1) and ``D3_STUDY``, a small d = 3 study written to a temporary JSON
file.  It exits 1 unless, for both, the ``lambda_used`` columns of the two
``report.csv`` files are identical and every ``estimate`` agrees with the
base to 1e-12 relative; an estimate that is empty on one side only counts as
a difference.  The two ``report.json`` files must have the same
``schema_version``, or head a larger one, whose layout may differ; at the
same version they must have the same key paths and identical values apart
from floats (``n_grid``, ``replications``, ``master_seed``, ``methods``,
``failures``, ``flagged``, ``notes``, ...).  It prints the worst estimate
deviation of each study and says whether each pair of reports is
byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
ESTIMATE_RTOL = 1e-12

# At d >= 2 a block sliced from a cell's Gram can differ from one assembled
# on its own in the last bits, which paper_d1 (d = 1) cannot show.  All three
# kernel methods here share one kernel, so every block they use is a slice.
# The study has no cross-validation, so a change to how CV is done does not
# move it.
D3_STUDY = {
    "problem": "gaussian",
    "problem_params": {"d": 3},
    "n_grid": [20, 50, 100, 200],
    "replications": 5,
    "master_seed": 20170903,
    "split_fraction": 0.5,
    "n_splits": 3,
    "methods": [
        {"method": "cf-split", "alpha1": 0.1, "alpha2": 1.0},
        {"method": "cf-simplified", "alpha1": 0.1, "alpha2": 1.0},
        {"method": "cf-multisplit", "alpha1": 0.1, "alpha2": 1.0},
    ],
}


def run_bench(checkout: Path, config: str, out_dir: Path) -> Path:
    """Run the study from ``checkout``; returns the directory of its reports."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), **{v: "1" for v in THREAD_VARS})
    subprocess.run(
        [sys.executable, "-m", "cfmc", "bench", config, "--threads", "1",
         "--out-dir", str(out_dir)],
        cwd=checkout, env=env, check=True, stdout=subprocess.DEVNULL,
    )
    return out_dir


def read_rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def key(row: dict[str, str]) -> tuple[str, str, str]:
    return row["method"], row["n"], row["replication"]


def deviation(base: str, head: str) -> float:
    """Relative difference of two estimate cells.  An empty cell matches only
    an empty cell, and NaN matches nothing."""
    if not base or not head:
        return 0.0 if base == head else math.inf
    a, b = float(base), float(head)
    if a == b:
        return 0.0
    dev = abs(a - b) / max(abs(a), abs(b))
    return math.inf if math.isnan(dev) else dev


def check(study: str, base: Path, head: Path) -> bool:
    """Print how the two reports of ``study`` differ; True if they pass."""
    old, new = read_rows(base), read_rows(head)
    if [key(row) for row in old] != [key(row) for row in new]:
        print(f"{study}: report rows differ: {len(old)} vs {len(new)} rows")
        return False
    changed = [(a, b) for a, b in zip(old, new) if a["lambda_used"] != b["lambda_used"]]
    if changed:
        print(f"{study}: lambda_used differs on {len(changed)} of {len(new)} rows")
        for a, b in changed[:10]:
            print(f"  {key(a)}: base {a['lambda_used']!r}  head {b['lambda_used']!r}")
    else:
        same_bytes = base.read_bytes() == head.read_bytes()
        print(f"{study}: lambda_used identical on {len(new)} rows; "
              f"report.csv byte-identical: {same_bytes}")
    deviations = [(deviation(a["estimate"], b["estimate"]), a, b) for a, b in zip(old, new)]
    beyond = [entry for entry in deviations if entry[0] > ESTIMATE_RTOL]
    worst = max(deviations, key=lambda entry: entry[0])
    print(f"{study}: estimate: worst relative deviation {worst[0]:.3g} at {key(worst[1])}; "
          f"{len(beyond)} of {len(new)} rows beyond {ESTIMATE_RTOL:g}")
    for dev, a, b in beyond[:10]:
        print(f"  {key(a)}: base {a['estimate']!r}  head {b['estimate']!r}  ({dev:.3g})")
    return not (changed or beyond)


def leaves(node, path=()):
    """(key path, value) of every non-object value in a JSON document."""
    if isinstance(node, dict):
        for name, value in node.items():
            yield from leaves(value, path + (name,))
    else:
        yield path, node


def differs(base, head) -> bool:
    """Whether two report values differ: floats only if one side is not a
    float, every other value if it is not equal."""
    if isinstance(base, float) or isinstance(head, float):
        return not (isinstance(base, float) and isinstance(head, float))
    return base != head


def check_json(study: str, base: Path, head: Path) -> bool:
    """Print how the two ``report.json`` files of ``study`` differ; True if
    they pass."""
    old, new = json.loads(base.read_text()), json.loads(head.read_text())
    same_bytes = base.read_bytes() == head.read_bytes()
    if old["schema_version"] != new["schema_version"]:
        bumped = new["schema_version"] > old["schema_version"]
        print(f"{study}: report.json schema_version {old['schema_version']} -> "
              f"{new['schema_version']}" + ("; layout not compared" if bumped else ""))
        return bumped
    old_leaves, new_leaves = dict(leaves(old)), dict(leaves(new))
    if old_leaves.keys() != new_leaves.keys():
        moved = sorted(".".join(path) for path in old_leaves.keys() ^ new_leaves.keys())
        print(f"{study}: report.json key paths differ: {moved[:10]}")
        return False
    changed = [path for path in old_leaves if differs(old_leaves[path], new_leaves[path])]
    for path in changed[:10]:
        print(f"  {'.'.join(path)}: base {old_leaves[path]!r}  head {new_leaves[path]!r}")
    print(f"{study}: report.json non-float values differ at {len(changed)} of "
          f"{len(old_leaves)} key paths; byte-identical: {same_bytes}")
    return not changed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path, help="checkout of the base commit")
    parser.add_argument("--out-dir", type=Path, help="where the reports go (default: a temp dir)")
    args = parser.parse_args(argv)
    passed = True
    with tempfile.TemporaryDirectory() as tmp:
        out = args.out_dir or Path(tmp)
        d3_config = Path(tmp) / "d3_study.json"
        d3_config.write_text(json.dumps(D3_STUDY))
        for study, config in (("paper_d1", "paper_d1"), ("d3_study", str(d3_config))):
            base = run_bench(args.base.resolve(), config, out / study / "base")
            head = run_bench(HERE, config, out / study / "head")
            passed = check(study, base / "report.csv", head / "report.csv") and passed
            passed = check_json(study, base / "report.json", head / "report.json") and passed
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
