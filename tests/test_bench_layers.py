"""``tools/bench_layers.py`` measures every case alike, each in a worker
process of its own."""

import collections
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "tools"))
import bench_layers  # noqa: E402

# A wrapper that adds a topic of three cases to TOPICS and runs the tool; its
# workers run the same script, so they find the topic too.  Each case logs
# the worker's pid the first time it is called at a size, and every worker
# logs its pid when it builds the cases.
FAKE_TOPIC = """
import os, sys
sys.path.insert(0, {tools!r})
import numpy as np
import bench_layers

logged = set()


def log(entry):
    if entry not in logged:
        logged.add(entry)
        with open({log!r}, "a") as fh:
            fh.write(f"{{os.getpid()}} {{entry}}\\n")


def cases(size):
    log("build")

    def array():
        log(f"array/{{size}}")
        return np.arange(float(size))

    def number():
        log(f"float/{{size}}")
        return 0.5 * size

    built = {{"array": array, "float": number}}
    if size == 1:
        built["print_one"] = (sys.executable, "-c", "print(1)")
    return built


bench_layers.TOPICS["fake"] = {{
    "topic": "fake", "layer": "none", "sizes": (1, 2), "cases": cases, "method": "fake",
}}
sys.exit(bench_layers.main())
"""
CALL_KEYS = ("array/1", "array/2", "float/1", "float/2")


def test_every_case_in_a_worker_of_its_own(tmp_path):
    script, log, out = tmp_path / "fake.py", tmp_path / "pids.log", tmp_path / "fake.json"
    script.write_text(FAKE_TOPIC.format(tools=str(REPO / "tools"), log=str(log)))
    subprocess.run(
        [sys.executable, str(script), "--topic", "fake", "--before", "src", "--after", "src",
         "--repeats", "2", "--out", str(out)],
        cwd=REPO, check=True, timeout=120,
    )
    report = json.loads(out.read_text())
    assert report["result_bytes_identical"] is True
    for side in ("before", "after"):
        summary = report[side]
        for label in ("median_ms", "raw_cpu_median_ms", "minor_faults_median",
                      "timed_calls_median", "tracemalloc_peak_mib", "kernel_entries",
                      "cholesky_test_sizes"):
            assert set(CALL_KEYS) <= set(summary[label]), label
        assert set(summary["tracemalloc_peak_over_result"]) == {"array/1", "array/2"}
        for label in ("median_ms", "wall_median_ms", "maxrss_median_mb", "minor_faults_median"):
            assert "print_one" in summary[label], label
    calls, builders = collections.defaultdict(set), set()
    for line in log.read_text().splitlines():
        pid, entry = line.split()
        if entry == "build":
            builders.add(pid)
        else:
            calls[pid].add(entry)
    # Two sides times two repeats for each case, one pid each, and each
    # worker calls one case at both its sizes.
    assert sorted(calls.values(), key=sorted) == (
        [{"array/1", "array/2"}] * 4 + [{"float/1", "float/2"}] * 4
    )
    # Besides those eight, one survey worker per side and four workers of
    # the child command, which call no case.
    assert len(builders) == 8 + 2 + 4
    assert set(calls) <= builders


def test_every_call_record_has_the_same_fields():
    reference = bench_layers.Reference()
    array = bench_layers._call_record(lambda: np.arange(4.0), reference)
    number = bench_layers._call_record(lambda: 0.5, reference)
    assert array.keys() == number.keys()
    assert array["peak_over_result"] > 0 and number["peak_over_result"] is None
    assert array["calls"] >= bench_layers.MIN_CALLS


def test_row_deviation_with_an_estimate_empty_on_one_side_only():
    before = [["cf-split", 10, 1.0, 0.1], ["cf-split", 20, None, None], ["zv1", 20, None, None]]
    after = [["cf-split", 10, 1.0, 0.1], ["cf-split", 20, 2.0, 0.1], ["zv1", 20, None, None]]
    for old, new in ((before, after), (after, before)):
        deviation = bench_layers._row_deviation(old, new)
        assert deviation["max_relative_deviation"] == {
            "n=10": {"cf-split": 0.0}, "n=20": {"cf-split": 1.0, "zv1": 0.0},
        }
        assert deviation["lambda_identical"] is False
        assert deviation["rows"] == 3


def test_one_topic_per_layer_and_each_case_in_one_topic(monkeypatch, tmp_path):
    # The builders only draw samples and Grams; no case is called.
    monkeypatch.setenv(bench_layers.SAMPLES, str(tmp_path))
    topics = bench_layers.TOPICS
    assert set(topics) == {"cold_start", "assembly", "lambda_select", "fit_solve", "cell"}
    owners = collections.defaultdict(set)
    for topic, spec in topics.items():
        for size in spec["sizes"]:
            cases = spec["cases"](size)
            assert cases, (topic, size)
            for name in cases:
                owners[name].add(topic)
    assert {name: t for name, t in owners.items() if len(t) > 1} == {}
