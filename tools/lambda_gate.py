"""Output gate: paper_d1's ``lambda_used`` column must not change, and no
estimate may move by more than 1e-12 relative.

    python tools/lambda_gate.py BASE_CHECKOUT [--out-dir DIR]

Runs ``python -m cfmc bench paper_d1 --threads 1`` once from
``BASE_CHECKOUT/src`` and once from this checkout's ``src``, with every
BLAS/OpenMP thread count pinned to 1.  It exits 1 unless the ``lambda_used``
columns of the two ``report.csv`` files are identical and every ``estimate``
agrees with the base to 1e-12 relative; an estimate that is empty on one side
only counts as a difference.  It prints the worst estimate deviation and says
whether the two reports are byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
ESTIMATE_RTOL = 1e-12


def run_paper_d1(checkout: Path, out_dir: Path) -> Path:
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), **{v: "1" for v in THREAD_VARS})
    subprocess.run(
        [sys.executable, "-m", "cfmc", "bench", "paper_d1", "--threads", "1",
         "--out-dir", str(out_dir)],
        cwd=checkout, env=env, check=True, stdout=subprocess.DEVNULL,
    )
    return out_dir / "report.csv"


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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path, help="checkout of the base commit")
    parser.add_argument("--out-dir", type=Path, help="where both reports go (default: a temp dir)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        out = args.out_dir or Path(tmp)
        base = run_paper_d1(args.base.resolve(), out / "base")
        head = run_paper_d1(HERE, out / "head")
        old, new = read_rows(base), read_rows(head)
        same_bytes = base.read_bytes() == head.read_bytes()
    if [key(row) for row in old] != [key(row) for row in new]:
        print(f"report rows differ: {len(old)} vs {len(new)} rows")
        return 1
    changed = [(a, b) for a, b in zip(old, new) if a["lambda_used"] != b["lambda_used"]]
    if changed:
        print(f"lambda_used differs on {len(changed)} of {len(new)} rows")
        for a, b in changed[:10]:
            print(f"  {key(a)}: base {a['lambda_used']!r}  head {b['lambda_used']!r}")
    else:
        print(f"lambda_used identical on {len(new)} rows; report.csv byte-identical: {same_bytes}")
    deviations = [(deviation(a["estimate"], b["estimate"]), a, b) for a, b in zip(old, new)]
    beyond = [entry for entry in deviations if entry[0] > ESTIMATE_RTOL]
    worst = max(deviations, key=lambda entry: entry[0])
    print(f"estimate: worst relative deviation {worst[0]:.3g} at {key(worst[1])}; "
          f"{len(beyond)} of {len(new)} rows beyond {ESTIMATE_RTOL:g}")
    for dev, a, b in beyond[:10]:
        print(f"  {key(a)}: base {a['estimate']!r}  head {b['estimate']!r}  ({dev:.3g})")
    return 1 if changed or beyond else 0


if __name__ == "__main__":
    sys.exit(main())
