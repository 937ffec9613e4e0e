"""``core`` is the only module that calls a LAPACK kernel of ``np.linalg``.

Every singular value in ``src/epkit`` comes from ``core.svd``,
``core.singular_values`` or ``core.norm2``, or from a request to
``core._lockstep``, or, for a model row, from
``core._diagonal_singular_values`` on the truncation's diagonals, which
calls no LAPACK routine.  Every eigenvalue of a general matrix comes from
``core.eigenvalues``, every eigenvalue of a Hermitian one from
``core.hermitian_eig`` or ``core._hermitian_eigenvalues``, every inverse
from ``core._inverse``, and every Haar unitary from a "haar" request.  So
none bypasses the diagonal route of ``singular_values``, the mapping of
``LinAlgError`` to ``ConvergenceFailure`` or the ``svd_calls`` count of
the tests.  An AST walk finds every reference to ``np.linalg.svd``,
``eigvals``, ``eig``, ``qr``, ``eigh``, ``eigvalsh`` and ``inv``, under any
alias, outside ``core.py``.

Inside ``core``, the per-call kernels that hand LAPACK a stack are named
only by ``_lockstep``'s table of request kinds and by the one-matrix
function of each kernel, so ``_lockstep`` is the one code path that
stacks matrices.

A verifier body in ``harness`` asks ``core._lockstep`` for its SVDs and
norms by yielding requests; a second walk fails when a ``_check_*`` body,
or a harness function it reaches, calls an SVD kernel or a function that
runs one itself.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "epkit").rglob("*.py"))
KERNEL_MODULE = "core.py"
KERNELS = {"svd", "eigvals", "eig", "qr", "eigh", "eigvalsh", "inv"}


def lapack_references(source: str) -> list[int]:
    """Sorted lines that name one of KERNELS: ``<...>linalg.svd``, an alias's
    ``.eigvals`` or ``from numpy.linalg import eig``."""
    tree = ast.parse(source)
    aliases = {"linalg"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases |= {a.asname for a in node.names if a.name == "numpy.linalg" and a.asname}
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
            aliases |= {a.asname or a.name for a in node.names if a.name == "linalg"}
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in KERNELS:
            if getattr(node.value, "attr", getattr(node.value, "id", None)) in aliases:
                lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg":
            if any(alias.name in KERNELS for alias in node.names):
                lines.append(node.lineno)
    return sorted(lines)


def test_every_module_is_walked():
    assert {p.name for p in MODULES} >= {KERNEL_MODULE, "harness.py", "models.py", "pinv.py"}


def test_the_kernel_module_calls_it():
    assert lapack_references((ROOT / "src" / "epkit" / KERNEL_MODULE).read_text())


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != KERNEL_MODULE], ids=lambda p: p.name
)
def test_no_other_module_calls_lapack_svd_or_eig(path):
    lines = lapack_references(path.read_text())
    assert lines == [], (
        f"{path.name} calls np.linalg.{'/'.join(sorted(KERNELS))} at lines {lines}; use core"
    )


def test_core_calls_lapack_svd_on_stacks_only():
    # Two call sites, one with vectors and one for values only.  Each hands
    # LAPACK the ``stack`` its function takes: ``core._lockstep`` cuts a
    # group at the cap, and a single matrix is a stack of one.
    tree = ast.parse((ROOT / "src" / "epkit" / KERNEL_MODULE).read_text())
    sites = [
        (fn, node)
        for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "np.linalg.svd"
    ]
    # Nothing else names it: no alias, no call outside a function.
    names = [n for n in ast.walk(tree) if isinstance(n, ast.Attribute) and n.attr == "svd"]
    assert len(sites) == len(names) == 2
    for fn, call in sites:
        assert fn.args.args[0].arg == "stack"
        assert ast.unparse(call.args[0]) == "stack"
    kinds = sorted(ast.unparse(kw) for _, call in sites for kw in call.keywords)
    assert kinds == ["compute_uv=False", "full_matrices=True"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_core_defines_the_stack_cap(path):
    tree = ast.parse(path.read_text())
    targets = [
        target.id
        for node in ast.walk(tree) if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Name)
    ]
    assert ("_STACK_ENTRIES" in targets) == (path.name == KERNEL_MODULE)


def test_the_walk_finds_every_spelling():
    source = (
        "import numpy as np\n"
        "import numpy.linalg as la\n"
        "from numpy import linalg\n"
        "from numpy.linalg import svd as factor\n"
        "s = np.linalg.svd(a, compute_uv=False)\n"
        "f = linalg.svd\n"
        "u = la.svd(a)\n"
        "ok = np.linalg.svdvals, obj.svd(a), np.linalg.pinv(a), np.linalg.LinAlgError\n"
        "w = np.linalg.eigvals(a)\n"
        "w, v = la.eig(a)\n"
        "g = linalg.eigvals\n"
        "from numpy.linalg import eigh, eig\n"
        "from numpy.linalg import eigvals as spectrum\n"
        "ok = obj.eig(a), obj.eigvals(a)\n"
        "q, r = np.linalg.qr(z)\n"
        "from numpy.linalg import qr as factor_qr\n"
        "ok = obj.qr(a), np.linalg.qrx\n"
        "h = np.linalg.eigvalsh(a)\n"
        "w, v = la.eigh(a)\n"
        "i = linalg.inv(a)\n"
        "from numpy.linalg import eigvalsh as hermitian_values\n"
        "from numpy.linalg import inv as invert\n"
        "ok = obj.eigh(a), obj.eigvalsh(a), obj.inv(a), np.linalg.invx\n"
    )
    assert lapack_references(source) == [4, 5, 6, 7, 9, 10, 11, 12, 13, 15, 16, 18, 19, 20, 21, 22]


# Each per-call kernel of ``core``, with the one-matrix function that may
# also name it (None for the generators' QR, which has none).
PER_CALL_KERNELS = {
    "_svd_call": "svd",
    "_singular_values_call": "singular_values",
    "_norm2_call": "norm2",
    "_haar_call": None,
}


def kernel_references(source: str) -> set[tuple]:
    """``(owner, kernel)`` for each name, attribute or import of a PER_CALL_KERNELS
    entry; owner is the top-level function that holds it, or None."""
    refs = set()
    for top in ast.parse(source).body:
        owner = top.name if isinstance(top, ast.FunctionDef) else None
        for node in ast.walk(top):
            name = getattr(node, "id", None) or getattr(node, "attr", None)
            if isinstance(node, ast.alias):
                name = node.name
            if name in PER_CALL_KERNELS:
                refs.add((owner, name))
    return refs


def test_only_lockstep_and_the_one_matrix_functions_name_a_per_call_kernel():
    allowed = {("_lockstep", kernel) for kernel in PER_CALL_KERNELS}
    allowed |= {(single, kernel) for kernel, single in PER_CALL_KERNELS.items() if single}
    for path in MODULES:
        refs = kernel_references(path.read_text())
        if path.name == KERNEL_MODULE:
            # ``_lockstep``'s table names every kernel.
            assert refs == allowed
        else:
            assert refs == set(), f"{path.name} names a per-call kernel of core: {refs}"


def test_the_kernel_walk_finds_every_spelling():
    source = (
        "from .core import _norm2_call as norm_call\n"
        "def _lockstep(steps):\n"
        "    return {'svd': _svd_call}\n"
        "def helper(x):\n"
        "    return core._haar_call(x), _svd_call_like(x)\n"
        "table = {'norm': _norm2_call}\n"
    )
    assert kernel_references(source) == {
        (None, "_norm2_call"), ("_lockstep", "_svd_call"), ("helper", "_haar_call"),
    }


# What a verifier body asks ``core._lockstep`` for instead of calling: the
# one-matrix SVD kernels and the functions that run one.
STEP_KERNELS = {
    "svd", "singular_values", "norm2", "operator_norm", "pseudoinverse",
    "polar_decomposition", "projector_gap", "classify",
}


def direct_kernel_calls(source: str) -> list[str]:
    """``function:line`` wherever a ``_check_*`` body, or a function of its module
    that one reaches, names one of STEP_KERNELS or calls a method of that name."""
    tree = ast.parse(source)
    functions = {fn.name: fn for fn in tree.body if isinstance(fn, ast.FunctionDef)}
    todo = [name for name in functions if name.startswith("_check_")]
    seen, hits = set(), []
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        for node in ast.walk(functions[name]):
            if isinstance(node, ast.Name):
                todo += [node.id] if node.id in functions else []
                if node.id in STEP_KERNELS:
                    hits.append(f"{name}:{node.lineno}")
            elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) in STEP_KERNELS:
                hits.append(f"{name}:{node.lineno}")
    return sorted(hits)


def test_verifier_bodies_yield_their_svd_requests():
    # A body that calls a kernel itself makes one LAPACK call per trial
    # again, outside the lockstep of its run.
    source = (ROOT / "src" / "epkit" / "harness.py").read_text()
    bodies = [n for n in ast.parse(source).body
              if isinstance(n, ast.FunctionDef) and n.name.startswith("_check_")]
    assert len(bodies) == 15
    assert direct_kernel_calls(source) == []


def test_the_body_walk_finds_every_spelling():
    source = (
        "def _check_a(ctx, drawn):\n"
        "    fact = svd(drawn.m)\n"
        "    s = fact.singular_values[0]\n"
        "    return core.norm2(s), _helper(drawn)\n"
        "def _helper(drawn):\n"
        "    return list(map(operator_norm, drawn.ms))\n"
        "def _check_b(ctx, drawn):\n"
        "    (fact,) = yield 'svd', (drawn.m,)\n"
        "    return epkit.classify(fact)\n"
        "def unreached(m):\n"
        "    return svd(m)\n"
    )
    assert direct_kernel_calls(source) == ["_check_a:2", "_check_a:4", "_check_b:9", "_helper:6"]
