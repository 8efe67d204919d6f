"""Every name a module of the package imports is used, and the module graph is acyclic.

No linter runs in CI, so this stdlib ``ast`` check stands in for the
unused-import rule.  A name counts as used when the module reads it, lists
it in ``__all__`` (a re-export) or names it in a string annotation.

Every import sits at the top of its module, never in a function body,
where it could hide a cycle; each module imports only modules before it in
``_MODULE_ORDER``, and each imports cleanly as the first import of a fresh
interpreter.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

_PACKAGE = Path(__file__).resolve().parent.parent / "src" / "liecoh"
_MODULES = sorted(_PACKAGE.glob("*.py"))
# the module graph, in import order: each module imports only modules before it
_MODULE_ORDER = ("ratlin", "liealg", "volumes", "files", "gmod", "cecomplex", "cohomology",
                 "extensions", "suite", "cli", "__init__")


def _imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns
        elif isinstance(node, ast.arg) and node.annotation:
            yield node.annotation
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used_names(tree):
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= _used_names(ast.parse(node.value, mode="eval"))
    return used


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    used = _used_names(tree)
    return [name for name in _imported_names(tree) if name != "*" and name not in used]


@pytest.mark.parametrize("path", sorted(_PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_sees_an_unused_import_and_the_uses_that_count():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from fractions import Fraction\n"
        "from typing import Sequence\n"
        "from .ratlin import Matrix, vector\n"
        "__all__ = ['vector']\n"
        "def f(x: 'Sequence[int]') -> 'Matrix':\n"
        "    return os.path\n"
    )
    assert unused_imports(source) == ["Fraction"]


def _function_body_imports(tree):
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(func):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    yield f"{func.name}:{node.lineno}"


def _package_imports(tree):
    """The modules of the package a module imports, from ``from . import m`` or ``from .m``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:
                yield from (alias.name for alias in node.names)
            else:
                yield node.module


@pytest.mark.parametrize("path", _MODULES, ids=lambda p: p.name)
def test_no_function_body_imports(path):
    assert list(_function_body_imports(ast.parse(path.read_text()))) == []


def test_the_check_sees_an_import_inside_a_function():
    source = "import os\ndef f():\n    from . import files\n    return files\n"
    assert list(_function_body_imports(ast.parse(source))) == ["f:3"]


@pytest.mark.parametrize("path", _MODULES, ids=lambda p: p.name)
def test_modules_import_only_modules_before_them(path):
    assert sorted(p.stem for p in _MODULES) == sorted(_MODULE_ORDER)
    earlier = _MODULE_ORDER[: _MODULE_ORDER.index(path.stem)]
    later = [m for m in _package_imports(ast.parse(path.read_text())) if m not in earlier]
    assert later == []


@pytest.mark.parametrize("name", [p.stem for p in _MODULES if p.stem != "__init__"])
def test_each_module_imports_first_in_a_fresh_interpreter(name):
    env = {**os.environ, "PYTHONPATH": str(_PACKAGE.parent)}
    run = subprocess.run([sys.executable, "-c", f"import liecoh.{name}"], env=env,
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
