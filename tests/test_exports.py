"""Every name a spladapt module exports through __all__ exists in it."""

import importlib
import pkgutil

import pytest

import spladapt

MODULES = sorted(m.name for m in pkgutil.iter_modules(spladapt.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_exists(name):
    module = importlib.import_module(f"spladapt.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == [], f"spladapt.{name}.__all__ names missing attributes"
