"""The package's export surface: every name listed in an ``__all__`` exists,
and every one of them, like every public method of a package class, is
reached by the package itself or by an acceptance criterion, so no public
name lives on for its unit tests alone.

The guards match by name: a method counts as reached when its name is
loaded anywhere outside its own definition, so they cannot see an unreached
method whose name another class also uses (``describe``)."""

import ast
import collections
import importlib
import pathlib
import pkgutil

import pytest

import ergolab

MODULES = sorted(m.name for m in pkgutil.iter_modules(ergolab.__path__))
PACKAGE_DIR = pathlib.Path(ergolab.__file__).parent
ACCEPTANCE = pathlib.Path(__file__).parent / "test_acceptance.py"


#: public methods reached by neither the package nor an acceptance criterion
#: that stay anyway, each with its reason
KEEP_METHODS = {
    "log_value": "log-space twin of WeightExpr.__call__, the oracle the "
                 "asymptotic_class tests compare composed classes against",
    "distribution": "m_sigma(u) of the paper's rearrangement, which pins "
                    "what RearrangementResult.sigma_bar means",
}


def _package_trees() -> list[ast.Module]:
    """The package's modules, not counting the re-exports in ``__init__.py``."""
    return [ast.parse(path.read_text()) for path in sorted(PACKAGE_DIR.glob("*.py"))
            if path.name != "__init__.py"]


def _loads(tree: ast.AST) -> collections.Counter:
    """How often each name is read as ``name`` or ``x.name`` in ``tree``."""
    counts = collections.Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            counts[node.id] += 1
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            counts[node.attr] += 1
    return counts


def _loaded_names() -> set[str]:
    return set(sum(map(_loads, _package_trees()), collections.Counter()))


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


def test_public_methods_are_reached():
    trees = _package_trees()
    loads = sum(map(_loads, trees), collections.Counter())
    reached = set(_loads(ast.parse(ACCEPTANCE.read_text()))) | set(KEEP_METHODS)
    unreached = []
    for tree in trees:
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for fn in cls.body:
                if (isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not fn.name.startswith("_") and fn.name not in reached
                        and loads[fn.name] - _loads(fn)[fn.name] <= 0):
                    unreached.append(f"{cls.name}.{fn.name}")
    assert unreached == []
