from collections import Counter

import numpy as np
import pytest

from epkit import DEFAULT_TOL, harness


@pytest.fixture
def tol():
    return DEFAULT_TOL


@pytest.fixture
def rng():
    return np.random.default_rng(0xEC0FFEE)


@pytest.fixture
def corrupt_ep_generation(monkeypatch):
    """Make the ep family return a non-EP matrix after drawing its usual instance.

    Verifiers that generate through the family table then see genuine
    counterexamples; the patch is undone when the test ends.
    """
    real = harness._GENERATORS["ep"]

    def non_ep(rng, dim, rank, cond, tol):
        real(rng, dim, rank, cond, tol)
        m = np.zeros((dim, dim), dtype=np.complex128)
        m[0, min(1, dim - 1)] = 1.0
        return m

    monkeypatch.setitem(harness._GENERATORS, "ep", non_ep)


@pytest.fixture
def svd_calls(monkeypatch):
    """Count np.linalg.svd calls made while the test runs.

    ``svd_calls["full"]`` counts calls that return singular vectors and
    ``svd_calls["values"]`` those with compute_uv=False (every norm2); a
    stacked call counts once.  ``svd_calls["full_matrices"]`` and
    ``svd_calls["values_matrices"]`` count the matrices those calls factor,
    every matrix of a stack.  ``svd_calls.clear()`` starts a fresh count.
    """
    counts = Counter()
    real = np.linalg.svd

    def counting(a, *args, **kwargs):
        compute_uv = kwargs.get("compute_uv", args[1] if len(args) > 1 else True)
        kind = "full" if compute_uv else "values"
        counts[kind] += 1
        counts[f"{kind}_matrices"] += int(np.prod(np.shape(a)[:-2]))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    return counts
