"""epkit's runtime depends on numpy alone.

Every import in every module under ``src/epkit``, nested ones inside a
function or a ``try`` included, names the standard library, numpy or epkit
itself, and ``pyproject.toml`` declares numpy as the only runtime
dependency.  scipy, mpmath and sympy serve the test oracles only.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "epkit").rglob("*.py"))
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "epkit"}


def imported_names(source: str):
    """``(line, top-level module)`` for every import statement in ``source``.

    A relative import names epkit; so does a literal ``import_module`` or
    ``__import__`` argument that starts with a dot.
    """
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = ["epkit" if node.level else node.module]
        elif (
            isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None))
            in ("import_module", "__import__")
            and node.args
            and isinstance(node.args[0], ast.Constant)
            and isinstance(node.args[0].value, str)
        ):
            literal = node.args[0].value
            names = ["epkit" if literal.startswith(".") else literal]
        else:
            continue
        for name in names:
            yield node.lineno, name.split(".")[0]


def test_every_module_is_walked():
    assert {p.name for p in MODULES} >= {"__init__.py", "core.py", "harness.py", "cli.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_only_the_standard_library_numpy_and_epkit(path):
    foreign = [
        f"{path.name}:{line} imports {name}"
        for line, name in imported_names(path.read_text())
        if name not in ALLOWED
    ]
    assert foreign == []


def test_the_walk_finds_nested_and_dynamic_imports():
    source = (
        "import numpy as np\n"
        "from . import core\n"
        "def f():\n"
        "    try:\n"
        "        from scipy.optimize import linear_sum_assignment\n"
        "    except ImportError:\n"
        "        import mpmath.libmp\n"
        "    return importlib.import_module('sympy'), import_module('.harness')\n"
    )
    names = [name for _, name in imported_names(source)]
    assert sorted(names) == ["epkit", "epkit", "mpmath", "numpy", "scipy", "sympy"]


def test_pyproject_names_numpy_as_the_only_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]

    def names(requirements):
        return [re.match(r"[A-Za-z0-9_.-]+", req).group(0).lower() for req in requirements]

    assert names(project["dependencies"]) == ["numpy"]
    assert "scipy" in names(project["optional-dependencies"]["test"])
