"""Every name in a module's ``__all__`` resolves, so a name moved between modules cannot leave a stale export.

The package root has no ``__all__``: each public name is imported from its
own module, whose ``__all__`` is its API.
"""

import importlib
import pkgutil

import pytest

import tourbench

MODULES = ["tourbench"] + [
    f"tourbench.{info.name}" for info in pkgutil.iter_modules(tourbench.__path__)
]


@pytest.mark.parametrize("module_name", MODULES)
def test_all_names_resolve(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []
