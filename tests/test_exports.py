"""The package's export surface: every name listed in an ``__all__`` exists."""

import importlib
import pkgutil

import pytest

import ergolab

MODULES = sorted(m.name for m in pkgutil.iter_modules(ergolab.__path__))


def test_package_exports_resolve():
    missing = [name for name in ergolab.__all__ if not hasattr(ergolab, name)]
    assert missing == []


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    mod = importlib.import_module(f"ergolab.{name}")
    missing = [n for n in mod.__all__ if not hasattr(mod, n)]
    assert missing == []
