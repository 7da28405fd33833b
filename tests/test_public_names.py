"""Every name that ghne or one of its modules lists in __all__ exists."""

import importlib
import pkgutil

import pytest

import ghne

_MODULES = ["ghne"] + [f"ghne.{m.name}" for m in pkgutil.iter_modules(ghne.__path__)]


@pytest.mark.parametrize("module_name", _MODULES)
def test_all_names_resolve(module_name):
    module = importlib.import_module(module_name)
    names = getattr(module, "__all__", [])
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(module, n)] == []
