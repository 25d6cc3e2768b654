"""Every name a module exports exists, so a deleted function cannot stay
listed in ``__all__``."""

import importlib
import pkgutil

import pytest

import impdag

MODULES = sorted(m.name for m in pkgutil.iter_modules(impdag.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_star_import_and_all(name):
    module = importlib.import_module(f"impdag.{name}")
    for exported in getattr(module, "__all__", ()):
        assert hasattr(module, exported), f"impdag.{name} exports missing {exported!r}"
    exec(f"from impdag.{name} import *", {})
