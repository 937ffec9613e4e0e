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
    """Count np.linalg.svd calls, and inverses and eigenvalue calls, made while the test runs.

    ``svd_calls["full"]`` counts calls that return singular vectors and
    ``svd_calls["values"]`` those with compute_uv=False (every norm2), and
    ``svd_calls["real_matrices"]`` those of either kind whose matrix is
    float64, so takes the real LAPACK kernel.
    ``svd_calls["inv_matrices"]`` counts the matrices np.linalg.inv inverts
    and ``svd_calls["eigvals"]`` the np.linalg.eigvals calls.
    ``svd_calls["qr"]`` counts np.linalg.qr calls and ``svd_calls["qr_matrices"]``
    the matrices in them: the generators hand qr a stack of Gaussian blocks.
    ``svd_calls.clear()`` starts a fresh count.  Every other wrapped call
    asserts that it gets one matrix: epkit hands those kernels no stacks.
    """
    counts = Counter()
    real_svd, real_inv, real_eigvals = np.linalg.svd, np.linalg.inv, np.linalg.eigvals
    real_qr = np.linalg.qr

    def svd(a, *args, **kwargs):
        assert np.ndim(a) == 2
        compute_uv = kwargs.get("compute_uv", args[1] if len(args) > 1 else True)
        counts["full" if compute_uv else "values"] += 1
        if np.asarray(a).dtype == np.float64:
            counts["real_matrices"] += 1
        return real_svd(a, *args, **kwargs)

    def inv(a):
        assert np.ndim(a) == 2
        counts["inv_matrices"] += 1
        return real_inv(a)

    def eigvals(a):
        assert np.ndim(a) == 2
        counts["eigvals"] += 1
        return real_eigvals(a)

    def qr(a, *args, **kwargs):
        counts["qr"] += 1
        counts["qr_matrices"] += int(np.prod(np.shape(a)[:-2]))
        return real_qr(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", svd)
    monkeypatch.setattr(np.linalg, "inv", inv)
    monkeypatch.setattr(np.linalg, "eigvals", eigvals)
    monkeypatch.setattr(np.linalg, "qr", qr)
    return counts
