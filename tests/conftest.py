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
    """Count the matrices np.linalg.svd factors, inverses and eigenvalue calls, during the test.

    ``svd_calls["full"]`` counts the matrices factored with singular vectors
    and ``svd_calls["values"]`` those with compute_uv=False (every norm2),
    and ``svd_calls["real_matrices"]`` those of either kind that are
    float64, so take the real LAPACK kernel.  ``svd_calls["svd"]`` counts
    the np.linalg.svd calls: ``core`` hands it a stack of matrices per call.
    ``svd_calls["inv_matrices"]`` counts the matrices np.linalg.inv inverts
    and ``svd_calls["eigvals"]`` the np.linalg.eigvals calls.
    ``svd_calls["qr"]`` counts np.linalg.qr calls and ``svd_calls["qr_matrices"]``
    the matrices in them: ``core`` hands qr a stack of the generators'
    Gaussian blocks per call.
    ``svd_calls.clear()`` starts a fresh count.  inv and eigvals assert
    that they get one matrix: epkit hands those kernels no stacks.
    """
    counts = Counter()
    real_svd, real_inv, real_eigvals = np.linalg.svd, np.linalg.inv, np.linalg.eigvals
    real_qr = np.linalg.qr

    def matrices(a) -> int:
        return int(np.prod(np.shape(a)[:-2]))

    def svd(a, *args, **kwargs):
        compute_uv = kwargs.get("compute_uv", args[1] if len(args) > 1 else True)
        counts["svd"] += 1
        counts["full" if compute_uv else "values"] += matrices(a)
        if np.asarray(a).dtype == np.float64:
            counts["real_matrices"] += matrices(a)
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
        counts["qr_matrices"] += matrices(a)
        return real_qr(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", svd)
    monkeypatch.setattr(np.linalg, "inv", inv)
    monkeypatch.setattr(np.linalg, "eigvals", eigvals)
    monkeypatch.setattr(np.linalg, "qr", qr)
    return counts
