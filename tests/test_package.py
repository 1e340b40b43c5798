import inspect

import cfmc


def test_every_public_name_is_exported():
    public = {
        name
        for name, value in vars(cfmc).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert public <= set(cfmc.__all__), sorted(public - set(cfmc.__all__))
