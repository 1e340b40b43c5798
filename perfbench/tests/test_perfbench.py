"""Tests of the benchmark's own machinery: tracing, self time, inputs.

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

import inspect
from collections import Counter

import numpy as np
import pytest

import cfmc
import cfmc.cli
import cfmc.diagnostics
import compare
import spans
import workloads
import worker

SMALL_STUDY = {
    "problem": "metropolis-gaussian-d3",
    "problem_params": {},
    "n_grid": [12, 16, 20],
    "replications": 2,
    "split_fraction": 0.5,
    "n_splits": 2,
    "methods": [
        {"method": "mean"},
        {"method": "zv2"},
        {"method": "cf-split"},
        {"method": "cf-simplified", "cv_grid": workloads.CV_GRID},
        {"method": "cf-multisplit", "cv_grid": workloads.CV_GRID},
    ],
}


@pytest.fixture
def study(tmp_path):
    wl = workloads.StudyWorkload(
        SMALL_STUDY, 2, 1, [12, 14, 16], workloads.metropolis_problem, 7, tmp_path
    )
    wl.setup()
    return wl


def snapshot():
    """Identity of every attribute the tracer may replace."""
    owners = [cfmc] + [getattr(cfmc, name) for name in spans.LAYER_MODULES + ("diagnostics",)]
    owners += [cfmc.data.ScoredDataset, cfmc.targets.TargetProblem]
    return {(id(owner), key): value for owner in owners for key, value in vars(owner).items()}


def traced(wl, k=0):
    tracer = spans.Tracer()
    with spans.installed(tracer):
        request = wl.request(k)
    return tracer, request


def test_wrappers_are_restored_after_a_traced_run(study):
    before = snapshot()
    tracer = spans.Tracer()
    with pytest.raises(RuntimeError):
        with spans.installed(tracer) as replaced:
            assert cfmc.estimator.select_lambda is not before[(id(cfmc.estimator), "select_lambda")]
            study.request(0)
            raise RuntimeError("leave the block early")
    assert replaced, "nothing was wrapped"
    after = snapshot()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []


def test_traced_and_untraced_estimates_are_bitwise_equal(study):
    plain = study.request(0)
    tracer, request = traced(study)
    assert tracer.spans
    assert plain.failed == request.failed == 0
    assert worker.fingerprint([plain]) == worker.fingerprint([request])


def test_self_time_is_duration_minus_time_covered_by_children():
    parent = spans.Span("a.parent", 0.0, None, 0)
    parent.end = 10.0
    children = []
    # Two children overlap (as on two pool threads), one runs past the parent.
    for start, end in ((1.0, 3.0), (2.0, 5.0), (8.0, 12.0)):
        child = spans.Span("a.child", start, parent, 0)
        child.end = end
        children.append(child)
    grandchild = spans.Span("a.grandchild", 2.5, children[0], 0)
    grandchild.end = 3.0
    own = spans.self_times([parent, *children, grandchild])
    assert own[id(parent)] == pytest.approx(10.0 - (4.0 + 2.0))
    assert own[id(children[0])] == pytest.approx(2.0 - 0.5)
    assert own[id(children[1])] == pytest.approx(3.0)
    assert own[id(grandchild)] == pytest.approx(0.5)


def test_self_times_of_a_single_threaded_run_add_up_to_its_root_spans(tmp_path):
    wl = workloads.StudyWorkload(
        dict(SMALL_STUDY, problem="gaussian", problem_params={"d": 1}), 1, 1, [12, 14, 16], None,
        3, tmp_path,
    )
    wl.setup()
    tracer, _ = traced(wl)
    own = spans.self_times(tracer.spans)
    roots = sum(s.end - s.start for s in tracer.spans if s.parent is None)
    assert all(t >= 0.0 for t in own.values())
    assert sum(own.values()) == pytest.approx(roots, rel=1e-9)


def test_span_counts_repeat_exactly_across_runs(study):
    first, _ = traced(study)
    second, _ = traced(study)
    assert Counter(s.name for s in first.spans) == Counter(s.name for s in second.spans)
    assert first.counts == second.counts
    a = spans.layer_metrics(first, study.pool_threads)
    b = spans.layer_metrics(second, study.pool_threads)
    counted = [name for name in a if not name.endswith(("_s", ".s", "_share"))]
    assert {n: a[n] for n in counted} == {n: b[n] for n in counted}
    assert a["kernel.stein_matrix_calls"] > 0 and a["estimator.cv_candidates"] > 0


def test_every_wrapped_name_is_a_callable_of_its_layer():
    for owner, attr, name, _ in spans._targets(cfmc):
        assert callable(vars(owner)[attr])
        assert name.split(".", 1)[0] in spans.LAYER_MODULES
        assert inspect.ismodule(owner) or inspect.isclass(owner)


def test_metropolis_chain_is_deterministic_per_seed_and_repeats_about_55_percent():
    def chain(seed, n=20000):
        rng = np.random.Generator(np.random.Philox(seed))
        return workloads.metropolis_chain(rng, n, workloads.MCMC_DIMENSION,
                                          workloads.METROPOLIS_STEP)

    assert np.array_equal(chain(5), chain(5))
    assert not np.array_equal(chain(5), chain(6))
    share = spans.duplicate_share([chain(5)])
    assert 0.5 < share < 0.6
    # The share the traced run reports is the one seen by the program.
    problem = workloads.metropolis_problem()
    data = problem.dataset(np.random.Generator(np.random.Philox(5)), 20000)
    assert spans.duplicate_share([data.points]) == share


def test_tail_latency_leaves_ten_requests_beyond_it():
    value, percentile, beyond = worker.tail_latency([float(i) for i in range(40)])
    assert (value, beyond) == (29.0, 10)
    assert percentile == pytest.approx(75.0)
    assert worker.tail_latency([3.0, 1.0]) == (3.0, 100.0, 0)


def test_each_request_is_scaled_by_the_reference_rounds_on_either_side():
    class Rounds:
        """Rounds of 7.5, 15 and 15 ms: the host halves its speed after request 0 starts."""

        def __init__(self):
            self.times = iter([0.0075, 0.015, 0.015])

        def sample(self):
            return next(self.times)

    class TwoRequests:
        fixed_requests = 2
        rows_per_request = 1

        def request(self, k):
            return workloads.Request(k, 0.1, [(k, "mean", 10, 0, 0.5, None)], wall=0.1)

        def accuracy(self, requests):
            return {"sane": True}

    assert worker.Reference.NOMINAL_S == 0.0075
    result = worker.timed_run(TwoRequests(), 0, Rounds())
    # 100 ms of CPU time at a mean round of 11.25 ms, then at 15 ms.
    scaled = [0.1 * 0.0075 / 0.01125, 0.1 * 0.0075 / 0.015]
    assert result["correct"] and result["details"]["cpu_latencies_ms"] == [100.0, 100.0]
    assert result["metrics"]["latency_p50_ms"] == pytest.approx(1e3 * sum(scaled) / 2)
    assert result["metrics"]["estimates_per_s"] == pytest.approx(2 / sum(scaled))


def test_compare_reports_estimate_deviation_and_lambda_identity():
    def rows(estimate, lam):
        return {(0, "cf-split", 10, 0): (estimate.hex(), lam.hex()), (0, "mean", 10, 0): (None, None)}

    same = compare.compare(rows(1.0, 1e-10), rows(1.0, 1e-10))
    assert same["max_relative_deviation"] == 0.0 and same["lambda_identical"]
    moved = compare.compare(rows(1.0, 1e-10), rows(1.0 + 1e-9, 1e-9))
    assert moved["max_relative_deviation"] == pytest.approx(1e-9, rel=1e-6)
    assert moved["lambda_differences"] == 1
