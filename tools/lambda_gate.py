"""Output gate: the ``lambda_used`` column of three studies must not change,
no estimate may move by more than 1e-12 relative, and ``cfmc estimate``
must print the same bytes for every method and for ``--bound``.

    python tools/lambda_gate.py BASE_CHECKOUT [--out-dir DIR]

Runs ``python -m cfmc bench CONFIG --threads 1`` once from
``BASE_CHECKOUT/src`` and once from this checkout's ``src``, with every
BLAS/OpenMP thread count pinned to 1, for three configs: the bundled
paper_d1 (d = 1), ``D3_STUDY``, a small d = 3 study, and ``CV_STUDY``, a
small cross-validated d = 2 study, the last two written to temporary JSON
files.  It exits 1 unless, for each, the ``lambda_used`` columns of the two
``report.csv`` files are identical and every ``estimate`` agrees with the
base to 1e-12 relative; an estimate that is empty on one side only counts as
a difference.  The two ``report.json`` files must have the same
``schema_version``, or head a larger one, whose layout may differ; at the
same version they must have the same key paths and identical values apart
from floats (``n_grid``, ``replications``, ``master_seed``, ``methods``,
``failures``, ``flagged``, ``notes``, ...).  It prints the worst estimate
deviation of each study and says whether each pair of reports is
byte-identical.

It also writes the sample files of ``BOUND_SAMPLES`` (standard normal draws
from a fixed seed: 400 rows at d = 2, and 2000 rows at d = 1, whose
1000-row kernel system takes the lambda rule's pivoted-factor path) and runs
``python -m cfmc estimate FILE --method cf-split --bound --fnorm 1 --output
json`` on each from both checkouts; the two outputs of each, which hold the
discrepancy D and the bound radius, must be byte-identical.  On the d = 2
file it also runs ``--output json`` for every method of ``METHOD_COMMANDS``
(``mean``, ``zv1``, ``zv2``, ``cf-split``, ``cf-simplified`` and
``cf-multisplit --splits 3``), and the last three again with ``--cv-grid`` on
``CV_STUDY``'s first grid; the two outputs of each must be byte-identical
too.

Last it runs ``python -m cfmc diagnose`` with ``DIAGNOSE_COMMAND`` (the
bimodal mixture, 200 draws) from both checkouts and requires byte-identical
stdout.  No study above uses a mixture or a quadrature, so this is the one
check of the mixture score's ``softmax`` and of the mean-element check's
quadrature (``quad_vec``).  All three ``diagnose`` outputs, the
mean-element residuals, the gradient check and the sampled sup of k0(x, x),
evaluate the Stein kernel by the assembly of ``stein_kernel_matrix``, the
path every estimate uses.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import random
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
# The study has no cross-validation; CV_STUDY gates that.
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

# Each kernel method cross-validates on the samples its own rule names
# (cf-split its fitting set, cf-simplified all samples, cf-multisplit one
# extra split); the grids share two kernels, so the cell shares their Grams.
# alpha2 = 1.5 is the one length-scale that is not a power of two, so the
# kernel's scalar divisions stay divisions there instead of multiplies.
CV_STUDY = {
    "problem": "gaussian",
    "problem_params": {"d": 2},
    "n_grid": [20, 40, 80],
    "replications": 4,
    "master_seed": 20140917,
    "split_fraction": 0.5,
    "n_splits": 2,
    "methods": [
        {"method": "cf-split", "cv_grid": [[0.1, 0.5], [0.1, 1.0], [0.1, 2.0]]},
        {"method": "cf-simplified", "cv_grid": [[0.1, 1.0], [0.1, 2.0], [0.05, 1.5]]},
        {"method": "cf-multisplit", "cv_grid": [[0.1, 1.0], [0.1, 2.0], [0.3, 1.0]]},
    ],
}

# The sample files of the --bound check, as (rows, dimension): x ~ N(0, I_d),
# u = -x and f = sin((x_1 + ... + x_d) pi / d), the gaussian problem's
# integrand.
BOUND_SAMPLES = ((400, 2), (2000, 1))
BOUND_COMMAND = ("--method", "cf-split", "--bound", "--fnorm", "1", "--output", "json")
# The per-method runs on the d = 2 sample file, which passes through the
# CLI's flag judge and every estimator, the baselines too.
METHODS = (("mean",), ("zv1",), ("zv2",), ("cf-split",), ("cf-simplified",),
           ("cf-multisplit", "--splits", "3"))
METHOD_COMMANDS = tuple(("--method", *method, "--output", "json") for method in METHODS)
# The kernel methods, the last three, run once more with --cv-grid on the
# d = 2 file.  On a plain sample, cross-validation assembles each
# candidate's blocks one by one, and cf-multisplit then fits the chosen
# kernel in a Gram-rows view of its own; no study runs either.  The grid is
# CV_STUDY's first, written to CV_GRID_FILE in the temp directory.
CV_GRID_FILE = "cv_grid.json"

# The diagnose run: a d = 1 mixture, whose mean-element residuals integrate
# its score by quadrature.
DIAGNOSE_COMMAND = ("diagnose", "--target", "bimodal-mixture", "--sample-size", "200")


def checkout_env(src: Path) -> dict[str, str]:
    """The environment that runs ``cfmc`` from the source directory ``src`` on
    one thread."""
    return dict(os.environ, PYTHONPATH=str(src), **{v: "1" for v in THREAD_VARS})


def run_bench(checkout: Path, config: str, out_dir: Path) -> Path:
    """Run the study from ``checkout``; returns the directory of its reports."""
    subprocess.run(
        [sys.executable, "-m", "cfmc", "bench", config, "--threads", "1",
         "--out-dir", str(out_dir)],
        cwd=checkout, env=checkout_env(checkout / "src"), check=True, stdout=subprocess.DEVNULL,
    )
    return out_dir


def write_bound_sample(path: Path, rows: int, d: int) -> None:
    """Write a --bound check's sample file; the same bytes on every run."""
    rng = random.Random(20140917)
    names = [f"x_{j + 1}" for j in range(d)] + ["f"] + [f"u_{j + 1}" for j in range(d)]
    lines = [",".join(names)]
    for _ in range(rows):
        x = [rng.gauss(0.0, 1.0) for _ in range(d)]
        f = math.sin((math.pi / d) * sum(x))
        lines.append(",".join(repr(v) for v in (*x, f, *(-v for v in x))))
    path.write_text("\n".join(lines) + "\n")


def run_cfmc(checkout: Path, command: tuple[str, ...]) -> bytes:
    """What ``cfmc COMMAND`` prints from ``checkout``."""
    return subprocess.run(
        [sys.executable, "-m", "cfmc", *command],
        cwd=checkout, env=checkout_env(checkout / "src"), check=True, stdout=subprocess.PIPE,
    ).stdout


def check_output(label: str, base: bytes, head: bytes) -> bool:
    """Print whether the two ``cfmc`` outputs are byte-identical; True if
    so."""
    same = base == head
    print(f"{label}: cfmc output byte-identical: {same}")
    if not same:
        print(f"  base {base.decode()!r}\n  head {head.decode()!r}")
    return same


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
        studies = {"paper_d1": "paper_d1"}
        for study, raw in (("d3_study", D3_STUDY), ("cv_study", CV_STUDY)):
            studies[study] = str(Path(tmp) / f"{study}.json")
            Path(studies[study]).write_text(json.dumps(raw))
        for study, config in studies.items():
            base = run_bench(args.base.resolve(), config, out / study / "base")
            head = run_bench(HERE, config, out / study / "head")
            passed = check(study, base / "report.csv", head / "report.csv") and passed
            passed = check_json(study, base / "report.json", head / "report.json") and passed
        grid = Path(tmp) / CV_GRID_FILE
        grid.write_text(json.dumps(CV_STUDY["methods"][0]["cv_grid"]))
        cv_commands = tuple(("--method", *method, "--cv-grid", str(grid), "--output", "json")
                            for method in METHODS[3:])
        for rows, d in BOUND_SAMPLES:
            sample = Path(tmp) / f"bound_n{rows}_d{d}.csv"
            write_bound_sample(sample, rows, d)
            commands = (BOUND_COMMAND,) + (METHOD_COMMANDS + cv_commands if d == 2 else ())
            for command in commands:
                outputs = [run_cfmc(checkout, ("estimate", str(sample), *command))
                           for checkout in (args.base.resolve(), HERE)]
                label = f"{sample.stem} {' '.join(command[1:-2]).replace(str(grid), CV_GRID_FILE)}"
                passed = check_output(label, *outputs) and passed
        outputs = [run_cfmc(checkout, DIAGNOSE_COMMAND) for checkout in (args.base.resolve(), HERE)]
        passed = check_output(" ".join(DIAGNOSE_COMMAND), *outputs) and passed
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
