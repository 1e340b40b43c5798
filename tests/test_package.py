import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import cfmc


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
