import importlib.util
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

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
