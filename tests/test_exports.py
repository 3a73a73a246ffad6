"""The package's export surface: every name listed in an ``__all__`` exists,
and every one of them is reached by the package itself or by an acceptance
criterion, so no public name lives on for its unit tests alone."""

import ast
import importlib
import pathlib
import pkgutil

import pytest

import ergolab

MODULES = sorted(m.name for m in pkgutil.iter_modules(ergolab.__path__))
PACKAGE_DIR = pathlib.Path(ergolab.__file__).parent
ACCEPTANCE = pathlib.Path(__file__).parent / "test_acceptance.py"


def _loaded_names() -> set[str]:
    """Names read as ``name`` or ``x.name`` in the package's modules, not
    counting the re-exports in ``__init__.py``."""
    names = set()
    for path in PACKAGE_DIR.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
    return names


def _acceptance_imports() -> set[str]:
    tree = ast.parse(ACCEPTANCE.read_text())
    return {alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def test_package_exports_resolve():
    missing = [name for name in ergolab.__all__ if not hasattr(ergolab, name)]
    assert missing == []


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    mod = importlib.import_module(f"ergolab.{name}")
    missing = [n for n in mod.__all__ if not hasattr(mod, n)]
    assert missing == []


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_are_reached(name):
    mod = importlib.import_module(f"ergolab.{name}")
    reached = _loaded_names() | _acceptance_imports()
    unreached = [n for n in mod.__all__ if n not in reached]
    assert unreached == []
