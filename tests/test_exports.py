"""The package's export surface: every name listed in an ``__all__`` exists,
and every one of them, like every public method of a package class, is
reached by the package itself or by an acceptance criterion, so no public
name lives on for its unit tests alone.

The guards match by name: a method counts as reached when its name is
loaded anywhere outside its own definition, so they cannot see an unreached
method whose name another class also uses (``values``)."""

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
    "explicit": "ModulationSeq.explicit, the list form of an arbitrary bounded "
                "a_k for users and tests; no package code calls it, but the "
                "name guard counts the loads of Schedule.explicit as reaching it",
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


def test_math_fsum_is_called_only_in_accum():
    """Every exact sum goes through ``accum.fsum``, which reads a float64
    buffer; ``math.fsum`` on an ndarray boxes every element."""
    callers = [path.name for path in sorted(PACKAGE_DIR.glob("*.py"))
               if path.name != "accum.py" and "math.fsum(" in path.read_text()]
    assert callers == []


def test_extraction_is_reached_only_in_accum():
    """One extraction rule: ``accum._extracted_parts`` is reached through
    ``fsum``, ``PieceSums`` and ``block_sums``, never called directly."""
    callers = [path.name for path in sorted(PACKAGE_DIR.glob("*.py"))
               if path.name != "accum.py" and "_extracted_parts" in path.read_text()]
    assert callers == []


def test_every_phase_goes_through_the_circle_kernel():
    """One phase kernel: circle values come from ``circle_prefix_rows`` on
    exact residues, never from sines or cosines of rounded products t n_k."""
    callers = [path.name for path in sorted(PACKAGE_DIR.glob("*.py"))
               if any(call in path.read_text()
                      for call in ("np.sin(", "np.cos(", "np.outer("))]
    assert callers == []


def test_only_the_circle_kernel_calls_the_fft():
    """One sampled kernel: every FFT is in ``transforms.circle_prefix_rows``;
    a stacked group of Monte Carlo samples is one call of it, not a second
    FFT path in ``stochastics.py`` or elsewhere."""
    callers = [path.name for path in sorted(PACKAGE_DIR.glob("*.py"))
               if path.name != "transforms.py" and "np.fft." in path.read_text()]
    assert callers == []


def test_pointwise_norms_go_through_operators():
    """One pointwise-norm rule: |v(w)|_H is ``operators.pointwise_norms``,
    bit-equal to ``np.linalg.norm`` along the last axis but without its
    reduction over a short axis; ``operator_norm`` is the other norm."""
    sites = [f"{path.name}:{i}" for path in sorted(PACKAGE_DIR.glob("*.py"))
             if path.name != "operators.py"
             for i, line in enumerate(path.read_text().splitlines(), 1)
             if "linalg.norm(" in line]
    assert sites == []


def test_operator_powers_are_read_only_through_blocks():
    """One block source: every operator series takes its terms T^{n_k} f
    from ``LinearOperator.blocks``, the only caller of ``powers``."""
    callers = []

    def visit(node, scope, name):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = scope + (child.name,)
            elif (isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                    and child.func.attr == "powers"):
                callers.append(f"{name}:{'.'.join(scope)}")
            visit(child, inner, name)

    for path in sorted(PACKAGE_DIR.glob("*.py")):
        visit(ast.parse(path.read_text()), (), path.name)
    assert callers == ["operators.py:LinearOperator.blocks"]


def test_admissibility_makes_no_prefix_call():
    """Every admissibility check is one chunked pass that evaluates and
    audits its weights per chunk; the whole-range ``prefix`` serves
    transforms, stochastics and the twisted weight only."""
    tree = ast.parse((PACKAGE_DIR / "admissibility.py").read_text())
    calls = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr == "prefix"]
    assert calls == []


def _importers(banned: set[str]) -> list[str]:
    """The package modules that import a top-level package in ``banned``."""
    importers = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                roots = {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module:
                roots = {node.module.split(".")[0]}
            else:
                continue
            if roots & banned:
                importers.append(path.name)
    return importers


def test_no_module_imports_a_thread_or_process_pool():
    """Monte Carlo samples run in ordered groups, each group one stacked
    series; a pool of per-sample numpy calls that hold the GIL gained
    nothing."""
    assert _importers({"concurrent", "threading", "multiprocessing"}) == []


def test_no_module_imports_scipy():
    """numpy is the only runtime dependency: the class tails are closed forms
    or one exp-sinh rule, the circle refinement a golden-section search and
    erfc is math.erfc.  The tests keep scipy as an independent reference."""
    assert _importers({"scipy"}) == []


def _private_definitions(tree: ast.Module) -> set[str]:
    """The private names a module defines: functions, classes, assigned
    names and attributes it stores (``self._memo = ...``)."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            names.add(node.attr)
    return {name for name in names if name.startswith("_") and not name.endswith("__")}


def test_no_module_reads_another_modules_private_attributes():
    """A module reads ``x._name`` only when it defines ``_name`` itself; the
    state of another module's objects is reached through their methods."""
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(PACKAGE_DIR.glob("*.py"))}
    defined = {name: _private_definitions(tree) for name, tree in trees.items()}
    reads = []
    for name, tree in trees.items():
        foreign = set().union(*(d for other, d in defined.items() if other != name))
        foreign -= defined[name]
        reads += [f"{name}:{ast.unparse(node)}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                  and node.attr in foreign]
    assert reads == []


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


#: every private name a package module imports from another, as
#: (importer, module, name); each is a coupling between two modules' insides
PRIVATE_IMPORTS = {
    ("admissibility.py", "weights", "_CHUNK"),
    ("registry.py", "admissibility", "_t21_terms"),
    ("transforms.py", "admissibility", "_gamma_class"),
    ("transforms.py", "admissibility", "_index_chunks"),
    ("transforms.py", "admissibility", "_t21_class"),
    ("transforms.py", "admissibility", "_t21_terms"),
    ("transforms.py", "admissibility", "_tail_estimate"),
    ("transforms.py", "operators", "_stacks"),
}


def test_private_imports_are_the_known_set():
    """``from .module import _name`` reaches into another module without an
    attribute read, so the ``x._name`` guard above cannot see it; a new
    private coupling has to be added here by name, or made public."""
    found = set()
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level:
                found |= {(path.name, node.module, alias.name) for alias in node.names
                          if alias.name.startswith("_") and not alias.name.endswith("__")}
    assert found == PRIVATE_IMPORTS
