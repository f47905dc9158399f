"""The package's ``__all__`` and its import block name the same things."""

import types

import jacograph


def test_all_names_each_public_non_module_name_once():
    public = {
        name for name, value in vars(jacograph).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(jacograph.__all__) == sorted(public)
