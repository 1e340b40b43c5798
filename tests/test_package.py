import inspect

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
