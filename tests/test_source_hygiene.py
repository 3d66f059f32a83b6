"""Every module-level import of a package module is used by that module.

pyflakes and ruff are not dependencies, so this walks each module of
``src/dyadic_carleson`` (not ``__init__.py``, whose imports are the
public surface) with ``ast``.  A name bound by a top-level import counts
as used when the module reads it as a name, names it in ``__all__``, or
names it in a string annotation.  ``from __future__`` imports are
compiler directives and are skipped.
"""

import ast
from pathlib import Path

import pytest

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
