"""Every module-level import and private helper of the package is used.

pyflakes and ruff are not dependencies, so this walks each module of
``src/dyadic_carleson`` (not ``__init__.py``, whose imports are the
public surface) with ``ast``.  A name bound by a top-level import counts
as used when the module reads it as a name, names it in ``__all__``, or
names it in a string annotation.  ``from __future__`` imports are
compiler directives and are skipped.  A module-level function or class
whose name starts with one underscore must be read, as a name or as an
attribute, somewhere in the package outside its own definition.  No
module tests ``isinstance(..., CarlesonError)``: a stack kernel raises a
failing trial's error, and never returns it among its results.  The
package exports a pinned set of public names.
"""

import ast
import types
from pathlib import Path

import pytest

import dyadic_carleson

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "dyadic_carleson"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _imported_names(module: ast.Module) -> dict[str, int]:
    """Name bound by each top-level import, with its line number."""
    names = {}
    for node in module.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                names[bound] = node.lineno
    return names


def _annotations(module: ast.Module):
    for node in ast.walk(module):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            found = [node.returns] + [
                arg.annotation
                for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                            args.vararg, args.kwarg)
                if arg is not None
            ]
        elif isinstance(node, ast.AnnAssign):
            found = [node.annotation]
        else:
            continue
        yield from (annotation for annotation in found if annotation is not None)


def _used_names(module: ast.Module) -> set[str]:
    used = {node.id for node in ast.walk(module) if isinstance(node, ast.Name)}
    for node in module.body:
        targets = getattr(node, "targets", [])
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            used.update(ast.literal_eval(node.value))
    for annotation in _annotations(module):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                parsed = ast.parse(node.value, mode="eval")
                used.update(n.id for n in ast.walk(parsed) if isinstance(n, ast.Name))
    return used


def unused_imports(source: str) -> list[str]:
    module = ast.parse(source)
    used = _used_names(module)
    return [f"line {line}: {name}"
            for name, line in _imported_names(module).items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_are_used(path):
    assert unused_imports(path.read_text()) == []


def test_finds_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os, sys as system\n"
        "from collections.abc import Sequence, Iterable\n"
        "__all__ = ['Iterable']\n"
        "def f(x: 'dict[str, int]') -> 'Sequence':\n"
        "    return os.sep\n"
    )
    assert unused_imports(source) == ["line 2: system"]


def _private_definitions(module: ast.Module):
    """Module-level functions and classes whose names start with one underscore."""
    for node in module.body:
        if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and node.name.startswith("_") and not node.name.startswith("__")):
            yield node


def _references(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Names read or attributes taken in ``tree``, outside the subtree ``skip``."""
    found, todo = set(), [tree]
    while todo:
        node = todo.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        todo.extend(ast.iter_child_nodes(node))
    return found


def unreferenced_helpers(sources: dict[str, str]) -> list[str]:
    """Private module-level helpers that no module references outside their own body."""
    modules = {name: ast.parse(source) for name, source in sources.items()}
    unused = []
    for name, module in modules.items():
        for node in _private_definitions(module):
            if not any(node.name in _references(other, skip=node)
                       for other in modules.values()):
                unused.append(f"{name}: {node.name}")
    return unused


def test_private_helpers_are_referenced():
    sources = {p.name: p.read_text() for p in PACKAGE.glob("*.py")}
    assert unreferenced_helpers(sources) == []


def test_finds_an_unreferenced_helper():
    sources = {
        "a.py": (
            "def _used(n):\n    return _used(n - 1) if n else 0\n"
            "def _recursive(n):\n    return _recursive(n - 1) if n else 0\n"
            "class _Unused:\n    pass\n"
            "def __getattr__(name):\n    raise AttributeError(name)\n"
        ),
        "b.py": "from . import a\nvalue = a._used(3)\n",
    }
    assert unreferenced_helpers(sources) == ["a.py: _recursive", "a.py: _Unused"]


def error_type_tests(source: str) -> list[int]:
    """Lines that call ``isinstance`` with ``CarlesonError`` among its types."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance" and len(node.args) == 2
            and "CarlesonError" in _references(node.args[1])]


def test_no_module_tests_for_library_errors():
    found = {p.name: error_type_tests(p.read_text()) for p in PACKAGE.glob("*.py")}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_finds_a_test_for_library_errors():
    source = (
        "from . import errors\n"
        "from .errors import CarlesonError\n"
        "def f(x):\n"
        "    if isinstance(x, CarlesonError):\n"
        "        raise x\n"
        "    return isinstance(x, (int, errors.CarlesonError)) or isinstance(x, ValueError)\n"
    )
    assert error_type_tests(source) == [4, 6]


# the package's public names; a change to this set changes the public API
PUBLIC_NAMES = {
    'ALL_NODES', 'AlphaSequence', 'BOUNDARY_ONLY', 'BellmanPoint', 'BiMeasure',
    'BiTreeShape', 'CarlesonError', 'CertificateRow', 'DomainError', 'EmbeddingReport',
    'GapProbeConfig', 'GapProbeReport', 'MODES', 'NodeVector', 'PreconditionError',
    'SamplerStats', 'ShapeMismatchError', 'SizeError', 'StoppingDecomposition',
    'TreeCertificate', 'TreeMeasure', 'TreeShape', 'ValidationError',
    'alpha_test_constant', 'bellman_gradient', 'bellman_value', 'bellman_values',
    'bi_embedding_constant', 'bi_embedding_constant_dense', 'bitree_bellman_certify',
    'boundary_set_ratio', 'box_average', 'box_integral', 'box_squared_alpha',
    'build_bitree', 'build_tree', 'carleson_normalized', 'carleson_ratios',
    'cell_point_mass', 'certify_tree_embedding',
    'cube_embedding_check', 'embedding_constant', 'embedding_constant_dense',
    'embedding_constants', 'embedding_lhs', 'embedding_pair_check',
    'embedding_pair_checks', 'gap_probe', 'hardy_down',
    'hardy_up', 'leaf_point_mass', 'load_measure', 'martingale_split_slack',
    'maximal_checks', 'maximal_ratios', 'maximal_theorem_check', 'measure_to_dict',
    'one_box_constant', 'one_box_constants', 'parse_measure_file', 'potential',
    'random_bimeasure', 'random_cell_values', 'random_node_values',
    'random_tree_measure', 'sample_admissible', 'sample_batch', 'save_measure',
    'set_test_constant', 'split_compensation', 'stopping_decomposition',
    'tree_split_slack', 'uniform_bimeasure', 'uniform_boundary_measure',
    'unit_box_certificates', 'verify_stopping_invariants',
}


def test_public_names_are_pinned():
    exported = dyadic_carleson.__all__
    assert len(exported) == len(set(exported)) and set(exported) == PUBLIC_NAMES
    assert set(exported) == {
        name for name in dir(dyadic_carleson) if not name.startswith("_")
        and not isinstance(getattr(dyadic_carleson, name), types.ModuleType)
    }
