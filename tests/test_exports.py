"""Every exported name resolves, so a name moved between modules cannot leave a stale export."""

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
