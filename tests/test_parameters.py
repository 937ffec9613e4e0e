"""epkit reads every input it accepts.

Every parameter of every ``def`` and ``lambda`` in every module under
``src/epkit`` is read somewhere in its body, nested functions included.  A
parameter that nothing reads is a setting a caller can pass to no effect.
The diagonals of ``models._DIAGONALS`` are exempt: they share the table's
``(k, n)`` signature, and not every diagonal needs n.

Every name a module imports is read in it too; a name nothing reads is a
dependency the module does not have.  ``__init__.py`` is exempt, since its
imports are the package's re-exports, and so is ``from __future__``.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "epkit").rglob("*.py"))
EXEMPT_TABLES = {"_DIAGONALS"}


def _parameters(args: ast.arguments):
    every = [*args.posonlyargs, *args.args, args.vararg, *args.kwonlyargs, args.kwarg]
    return [arg.arg for arg in every if arg is not None]


def _exempt_lambdas(tree: ast.AST) -> set:
    """The lambdas in the value of an assignment to a name in EXEMPT_TABLES."""
    exempt = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(getattr(t, "id", None) in EXEMPT_TABLES for t in targets):
                exempt |= {n for n in ast.walk(node.value) if isinstance(n, ast.Lambda)}
    return exempt


def unread_parameters(source: str):
    """``(line, function, parameter)`` for every parameter its body never loads."""
    tree = ast.parse(source)
    exempt = _exempt_lambdas(tree)
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name, body = node.name, node.body
        elif isinstance(node, ast.Lambda) and node not in exempt:
            name, body = "<lambda>", [node.body]
        else:
            continue
        loaded = {
            n.id
            for stmt in body
            for n in ast.walk(stmt)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        for param in _parameters(node.args):
            if param not in loaded:
                yield node.lineno, name, param


def test_every_module_is_walked():
    assert {p.name for p in MODULES} >= {"core.py", "pinv.py", "harness.py", "models.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_parameter_is_read(path):
    unread = [
        f"{path.name}:{line} {name}() never reads {param!r}"
        for line, name, param in unread_parameters(path.read_text())
    ]
    assert unread == []


def test_the_walk_finds_unread_parameters():
    source = (
        "_DIAGONALS = {'a': lambda k, n: k}\n"
        "OTHER = {'b': lambda k, n: k}\n"
        "def f(a, b=1, *rest, c, **extra):\n"
        "    def g(d):\n"
        "        return a + c\n"
        "    return g\n"
        "class C:\n"
        "    def m(self, x):\n"
        "        return self\n"
    )
    found = sorted((name, param) for _, name, param in unread_parameters(source))
    assert found == [
        ("<lambda>", "n"), ("f", "b"), ("f", "extra"), ("f", "rest"), ("g", "d"), ("m", "x"),
    ]


def unread_imports(source: str):
    """``(line, name)`` for every name an import binds and the module never loads."""
    tree = ast.parse(source)
    loaded = {
        n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # ``import a.b`` binds a.
                name = alias.asname or alias.name.split(".")[0]
                if name not in loaded:
                    yield node.lineno, name


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "__init__.py"], ids=lambda p: p.name
)
def test_every_import_is_read(path):
    unread = [
        f"{path.name}:{line} imports {name!r} and never reads it"
        for line, name in unread_imports(path.read_text())
    ]
    assert unread == []


def test_the_walk_finds_unread_imports():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from .core import svd, singular_values as sv, DEFAULT_TOL\n"
        "def f():\n"
        "    import json\n"
        "    return np.eye(2), svd\n"
        "x: DEFAULT_TOL\n"
    )
    assert sorted(unread_imports(source)) == [(2, "os"), (4, "sv"), (6, "json")]
