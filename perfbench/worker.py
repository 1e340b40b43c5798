"""Run one workload in this process: set up, say ``ready``, measure, write the result.

``run.py`` starts this script in a fresh interpreter with the BLAS thread
variables already set to 1, so numpy and scipy never see another value.  On
standard output it prints ``ready S F`` once set-up is done, where ``S`` is the
CPU time the process has used since it started and ``F`` the factor that
scales it to the reference speed; everything else goes to the
result file named by ``--result``.  Times are CPU seconds of the process (see
``workloads.Stopwatch``) scaled to a fixed reference speed of the host (see
``Reference``); raw CPU times and wall times are kept in the details.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Reference rounds timed before and after set-up; their median scales the
# set-up time, from which the rounds before it are taken out.
SETUP_ROUNDS_BEFORE = 3
SETUP_ROUNDS_AFTER = 3


class Reference:
    """A fixed round of interpreter, LAPACK and elementwise numpy work.

    The host's cores are shared with other tenants, and whether a neighbour
    is busy on the same physical core changes the CPU time of the same work
    by up to 2x, in spells from a fraction of a second to minutes.  One round
    is timed in CPU time before the first request and after each one, and a
    request's CPU time is scaled by ``NOMINAL_S`` over the mean of the rounds
    on either side of it.  That reports every request as if the host ran at
    one fixed speed: the one at which a round takes ``NOMINAL_S``.  The round
    mixes the three kinds of work the requests do because each slows by its
    own factor (the interpreter loop most, LAPACK least).  It is the
    benchmark's own code, so no change to ``cfmc`` can move it.
    """

    NOMINAL_S = 0.0075

    def __init__(self):
        import numpy as np
        import scipy.linalg

        rng = np.random.default_rng(0)
        a = rng.standard_normal((200, 200))
        self.spd = a @ a.T + 200.0 * np.eye(200)
        self.points = rng.standard_normal((200, 3))
        self.v = rng.standard_normal(8)
        self.np, self.cho_factor = np, scipy.linalg.cho_factor

    def sample(self) -> float:
        """CPU seconds of one round."""
        np = self.np
        start = time.process_time()
        total = 0.0
        for i in range(400):
            total += float(np.sum(self.v * self.v)) + i
        np.linalg.eigvalsh(self.spd)
        self.cho_factor(self.spd, lower=True)
        x = self.points
        diff = x[:, None, :] - x[None, :, :]
        r2 = (diff * diff).sum(axis=-1)
        (np.exp(-0.5 * r2) * (3.0 - r2 + x @ x.T)).sum()
        return time.process_time() - start


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--result")
    parser.add_argument("--setup-only", action="store_true")
    return parser.parse_args(argv)


def environment(pool_threads: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "pool_threads": pool_threads,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
    }


def run_request(workload, k: int):
    """One request; an exception fails every row the request should have made."""
    import workloads

    watch = workloads.Stopwatch()
    try:
        return workload.request(k)
    except Exception:
        traceback.print_exc()
        latency, wall = watch.stop()
        return workloads.Request(k, latency, [], workload.rows_per_request, wall=wall)


def tail_latency(latencies: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten requests beyond it.

    Returns (value, percentile, requests beyond).  With ten or fewer requests
    no percentile qualifies, and the slowest request is reported instead.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, 0
    index = n - 11
    return ordered[index], 100.0 * (index + 1) / n, n - 1 - index


def fingerprint(requests) -> list:
    """Rows with floats as hex strings, for bitwise comparison."""
    def exact(value):
        return value.hex() if isinstance(value, float) else value

    return [[exact(v) for v in row] for req in requests for row in req.rows]


def timed_run(workload, seconds: int, reference: Reference) -> dict:
    """Requests back to back until ``seconds`` of wall time have passed and
    at least the workload's fixed number of requests (the accuracy sample) is
    done.  Each request's CPU time is scaled by the reference rounds timed
    right before and right after it."""
    requests = []
    refs = [reference.sample()]
    start = time.perf_counter()
    while len(requests) < workload.fixed_requests or time.perf_counter() - start < seconds:
        requests.append(run_request(workload, len(requests)))
        refs.append(reference.sample())
    wall = time.perf_counter() - start
    latencies = [
        r.latency * Reference.NOMINAL_S / (0.5 * (before + after))
        for r, before, after in zip(requests, refs, refs[1:])
    ]
    walls = [r.wall for r in requests]
    attempted = workload.rows_per_request * len(requests)
    failed = sum(r.failed for r in requests)
    busy = sum(latencies)
    tail, percentile, beyond = tail_latency(latencies)
    accuracy = workload.accuracy(requests[: workload.fixed_requests])
    return {
        "correct": failed == 0 and accuracy.pop("sane"),
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "estimates_per_s": (attempted - failed) / busy,
            "latency_p50_ms": 1e3 * statistics.median(latencies),
            "latency_tail_ms": 1e3 * tail,
        },
        "details": {
            "requests": len(requests),
            "wall_s": wall,
            "scaled_busy_s": busy,
            "latency_tail_percentile": percentile,
            "latency_tail_beyond": beyond,
            "cpu_latency_p50_ms": 1e3 * statistics.median(r.latency for r in requests),
            "wall_latency_p50_ms": 1e3 * statistics.median(walls),
            "cpu_latencies_ms": [1e3 * r.latency for r in requests],
            "wall_latencies_ms": [1e3 * x for x in walls],
            "reference_ms": [1e3 * x for x in refs],
            "accuracy": accuracy,
        },
        "rows": fingerprint(requests),
    }


def traced_run(workload) -> dict:
    """The workload's fixed requests untraced, then the same requests traced.

    The traced outputs must equal the untraced ones bit for bit; the
    difference in time spent is the tracing overhead.
    """
    import spans

    k_max = workload.fixed_requests
    plain = [run_request(workload, k) for k in range(k_max)]
    tracer = spans.Tracer()
    traced = []
    with spans.installed(tracer):
        for k in range(k_max):
            tracer.request = k
            traced.append(run_request(workload, k))
    identical = fingerprint(plain) == fingerprint(traced)
    attempted = 2 * workload.rows_per_request * k_max
    failed = sum(r.failed for r in plain + traced)
    accuracy = workload.accuracy(traced)
    sane = accuracy.pop("sane")
    layers = spans.layer_metrics(tracer, workload.pool_threads)
    layers.update(accuracy)
    layers["trace.overhead_s"] = sum(r.latency for r in traced) - sum(r.latency for r in plain)
    layers["bench.failed_rows"] = sum(row[4] is None for r in traced for row in r.rows)
    layers["failed_share"] = failed / attempted
    return {
        "correct": failed == 0 and sane and identical,
        "attempted": attempted,
        "failed": failed,
        "metrics": layers,
        "details": {
            "requests": k_max,
            "traced_equals_untraced": identical,
            "errors_by_class": dict(tracer.errors),
        },
        "rows": fingerprint(traced),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    unpinned = [var for var in BLAS_VARS if os.environ.get(var) != "1"]
    if unpinned:
        print(f"error: {', '.join(unpinned)} must be 1 before numpy is imported",
              file=sys.stderr)
        return 2
    import workloads

    reference = Reference()
    rounds = [reference.sample() for _ in range(SETUP_ROUNDS_BEFORE)]
    workload = workloads.make(args.workload, args.seed, args.seconds, args.work_dir)
    workload.setup()
    setup_cpu = time.process_time() - sum(rounds)
    rounds += [reference.sample() for _ in range(SETUP_ROUNDS_AFTER)]
    print(f"ready {setup_cpu!r} {Reference.NOMINAL_S / statistics.median(rounds)!r}", flush=True)
    if args.setup_only:
        return 0
    if args.trace:
        result = traced_run(workload)
    else:
        result = timed_run(workload, args.seconds, reference)
    result["environment"] = environment(workload.pool_threads)
    # ru_maxrss is in KiB on Linux.
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
