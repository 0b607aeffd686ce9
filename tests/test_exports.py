import importlib
import pkgutil

import pytest

import xdgdl

MODULES = ["xdgdl", *(f"xdgdl.{m.name}" for m in pkgutil.iter_modules(xdgdl.__path__))]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_exists(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
