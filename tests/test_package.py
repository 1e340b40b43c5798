import importlib.util
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

import cfmc
import cfmc.cli


def test_every_public_name_is_exported():
    public = {
        name
        for name, value in vars(cfmc).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert public <= set(cfmc.__all__), sorted(public - set(cfmc.__all__))


def test_every_exported_name_resolves():
    missing = [name for name in cfmc.__all__ if not hasattr(cfmc, name)]
    assert not missing, missing
    namespace = {}
    exec("from cfmc import *", namespace)
    assert set(cfmc.__all__) <= set(namespace)


def test_readme_example_runs():
    root = Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text()
    (example,) = re.findall(r"^```python\n(.*?)^```$", readme, flags=re.S | re.M)
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    result = subprocess.run(
        [sys.executable, "-c", example], env=env, capture_output=True, text=True, timeout=300
    )
    assert result.returncode == 0, result.stderr


def test_every_name_the_benchmark_traces_resolves():
    # perfbench/spans.py finds the callables it wraps by name, private ones
    # included (_fit_coefficients, cho_factor, cho_solve, bench._run_method);
    # a renamed one would fail only the traced benchmark run, not this suite.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    targets = spans._targets(cfmc)
    missing = [(owner.__name__, attr) for owner, attr, _, _ in targets if attr not in vars(owner)]
    assert not missing, missing
    names = {name for _, _, name, _ in targets}
    assert {"estimator.cholesky", "estimator.solve", "estimator.fit", "bench.run_method"} <= names


# Loaded only by the quadrature oracle, mixture targets and ``cfmc diagnose``;
# importing them at module level costs every ``cfmc`` process about 0.3 s.
DEFERRED_MODULES = ("scipy.integrate", "scipy.optimize", "scipy.special", "scipy.sparse")

IMPORT_GUARD = """
import json, sys
import cfmc, cfmc.cli
code = cfmc.cli.main(["estimate", sys.argv[1], "--method", "cf-split", "--bound",
                      "--fnorm", "1", "--output", "json"])
print(json.dumps({"code": code, "loaded": [m for m in sys.argv[2:] if m in sys.modules]}))
"""


def test_estimate_loads_no_deferred_scipy_module(tmp_path):
    root = Path(__file__).resolve().parents[1]
    sample = tmp_path / "sample.csv"
    cfmc.write_sample_file(sample, cfmc.gaussian_problem(1).dataset(np.random.default_rng(5), 60))
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    result = subprocess.run(
        [sys.executable, "-c", IMPORT_GUARD, str(sample), *DEFERRED_MODULES],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    *estimate, guard = result.stdout.splitlines()
    assert "discrepancy" in json.loads("\n".join(estimate))
    assert json.loads(guard) == {"code": 0, "loaded": []}
