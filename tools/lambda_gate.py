"""Output gate: the paper_d1 ``lambda_used`` column must not change.

    python tools/lambda_gate.py BASE_CHECKOUT [--out-dir DIR]

Runs ``python -m cfmc bench paper_d1 --threads 1`` once from
``BASE_CHECKOUT/src`` and once from this checkout's ``src``, with every
BLAS/OpenMP thread count pinned to 1, and exits 1 unless the
``lambda_used`` columns of the two ``report.csv`` files are identical.  It
also says whether the two reports are byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def run_paper_d1(checkout: Path, out_dir: Path) -> Path:
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), **{v: "1" for v in THREAD_VARS})
    subprocess.run(
        [sys.executable, "-m", "cfmc", "bench", "paper_d1", "--threads", "1",
         "--out-dir", str(out_dir)],
        cwd=checkout, env=env, check=True, stdout=subprocess.DEVNULL,
    )
    return out_dir / "report.csv"


def lambda_column(path: Path) -> list[tuple[str, str, str, str]]:
    with open(path, newline="") as fh:
        return [
            (row["method"], row["n"], row["replication"], row["lambda_used"])
            for row in csv.DictReader(fh)
        ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path, help="checkout of the base commit")
    parser.add_argument("--out-dir", type=Path, help="where both reports go (default: a temp dir)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        out = args.out_dir or Path(tmp)
        base = run_paper_d1(args.base.resolve(), out / "base")
        head = run_paper_d1(HERE, out / "head")
        old, new = lambda_column(base), lambda_column(head)
        same_bytes = base.read_bytes() == head.read_bytes()
    changed = [(a, b) for a, b in zip(old, new) if a != b]
    if len(old) != len(new) or changed:
        print(f"lambda_used differs: {len(old)} vs {len(new)} rows, {len(changed)} changed")
        for a, b in changed[:10]:
            print(f"  base {a}  head {b}")
        return 1
    print(f"lambda_used identical on {len(new)} rows; report.csv byte-identical: {same_bytes}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
