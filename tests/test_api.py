"""Every public name listed in a module's __all__ resolves."""

import importlib
import pkgutil

import pytest

import bcjacobi

MODULES = sorted(
    m.name for m in pkgutil.iter_modules(bcjacobi.__path__) if m.name != "__main__"
)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"bcjacobi.{name}")
    missing = [attr for attr in getattr(module, "__all__", []) if not hasattr(module, attr)]
    assert missing == []
