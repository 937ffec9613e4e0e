from collections import Counter

import numpy as np
import pytest

import golden_corpus
from epkit import DEFAULT_TOL


@pytest.fixture
def tol():
    return DEFAULT_TOL


@pytest.fixture
def rng():
    return np.random.default_rng(0xEC0FFEE)


@pytest.fixture
def corrupt_ep_generation():
    """The ep family corrupted for the test (``golden_corpus.corrupt_ep_generation``)."""
    with golden_corpus.corrupt_ep_generation():
        yield


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
