"""The package's public surface: `__all__` and the names `__init__.py` binds."""

import types

import triadnet


def test_all_lists_exactly_the_public_names_the_package_binds():
    names = triadnet.__all__
    assert names == sorted(set(names))
    bound = {
        name
        for name, value in vars(triadnet).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(names) == bound
