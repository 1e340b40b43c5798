"""cfmc benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout that holds ``src/cfmc``.  Each workload runs
in a fresh worker process (``worker.py``) with OPENBLAS_NUM_THREADS,
OMP_NUM_THREADS and MKL_NUM_THREADS set to 1 before numpy is imported.  With
``--trace 0`` the last line of output holds every end-to-end metric named in
BENCHMARK.json; with ``--trace 1`` it holds every per-layer metric.  The line
before it is a JSON object of details (environment, request counts, the
latency percentile used), and the full result, including every row's estimate
and lambda, is saved under ``perfbench/results/`` for ``compare.py``.

Every time reported is CPU time of the worker process, all its threads
together (``workloads.Stopwatch``), scaled to a fixed reference speed of the
host (``worker.Reference``); raw CPU times and wall times are in the details.
Set-up time is the CPU time the worker has used when it is set up.  The
untraced run sets up ``SETUP_REPEATS`` times (the extra workers stop after
set-up) and reports the median.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5
DEADLINE_S = 170.0


class BenchmarkError(Exception):
    pass


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def worker_env() -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return env


class Worker:
    """One worker process; ``setup_s`` is its scaled CPU time up to ``ready``,
    ``cpu_setup_s`` the same unscaled, and ``wall_setup_s`` the wall time from
    start to ``ready``."""

    def __init__(self, args, work_dir: Path, result: Path | None, deadline: float):
        cmd = [
            sys.executable, str(HERE / "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--work-dir", str(work_dir),
        ]
        cmd += ["--result", str(result)] if result else ["--setup-only"]
        self.deadline = deadline
        start = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=worker_env())
        guard = threading.Timer(max(1.0, deadline - time.monotonic()), self.proc.kill)
        guard.start()
        line = self.proc.stdout.readline().split()
        self.wall_setup_s = time.perf_counter() - start
        guard.cancel()
        if len(line) != 3 or line[0] != "ready":
            self.proc.kill()
            self.proc.communicate()
            raise BenchmarkError(f"worker did not get ready (exit {self.proc.returncode})")
        self.cpu_setup_s = float(line[1])
        self.setup_s = self.cpu_setup_s * float(line[2])

    def finish(self) -> None:
        """Wait for the worker to exit, killing it past the deadline."""
        try:
            self.proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
            raise BenchmarkError("worker ran past the deadline and was killed") from None
        if self.proc.returncode != 0:
            raise BenchmarkError(f"worker exited with code {self.proc.returncode}")


def run(args, spec: dict) -> tuple[dict, dict]:
    deadline = time.monotonic() + DEADLINE_S
    results_dir = HERE / "results"
    results_dir.mkdir(exist_ok=True)
    result_path = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    work_root = HERE / "_work" / f"{args.workload}-{os.getpid()}"
    workers = []
    try:
        if not args.trace:
            for i in range(SETUP_REPEATS - 1):
                workers.append(Worker(args, work_root / f"setup{i}", None, deadline))
                workers[-1].finish()
        workers.append(Worker(args, work_root / "main", result_path, deadline))
        workers[-1].finish()
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
    result = json.loads(result_path.read_text())
    metrics = dict(result["metrics"])
    if not args.trace:
        metrics["setup_s"] = statistics.median(w.setup_s for w in workers)
        metrics["peak_rss_mb"] = result["peak_rss_mb"]
        result["details"]["setup_samples_s"] = [w.setup_s for w in workers]
        result["details"]["cpu_setup_samples_s"] = [w.cpu_setup_s for w in workers]
        result["details"]["wall_setup_samples_s"] = [w.wall_setup_s for w in workers]
        result["metrics"] = metrics
        result_path.write_text(json.dumps(result))
    declared = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        raise BenchmarkError(f"worker did not report {', '.join(missing)}")
    summary = {
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {
            m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]} for m in declared
        },
    }
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "result_file": str(result_path.relative_to(ROOT)),
        "environment": result["environment"],
        **result["details"],
    }
    return details, summary


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "cfmc" / "__init__.py").is_file():
        print(f"error: no cfmc sources at {ROOT / 'src' / 'cfmc'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(names)}",
              file=sys.stderr)
        return 2
    try:
        details, summary = run(args, spec)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(details))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
