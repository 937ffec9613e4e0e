"""core.norm2_at_most gives the verdict of the exact test norm2(x) <= bound.

Every comparison is with == against that exact test, computed here from
np.linalg.norm(x, 2): the Frobenius bracket may save an SVD, never change
an answer.  The same holds for the checks built on it (the EP decision,
is_normal, the Hermitian check of hermitian_eig), each compared with a
reference kept in this file that uses the exact spectral norm.
"""

import numpy as np
import pytest

from epkit import NotHermitian, ToleranceConfig, hermitian_eig, is_normal, svd
from epkit.classify import range_corange_test
from epkit.core import norm2_at_most


def complex_normal(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def exact(x, bound):
    return bool(np.linalg.norm(x, 2) <= bound)


def frobenius(x):
    """||x||_F without overflow or underflow, for entries far from 1."""
    scale = np.abs(x).max()
    return float(np.linalg.norm(x / scale) * scale) if scale else 0.0


def thresholds(x):
    """Bounds at and beside the spectral norm and both edges of the factor-2 band.

    ||x||_F <= bound / 2 proves the test and ||x||_F > 2 sqrt(k) bound
    disproves it, so the band's edges sit at 2 F and F / (2 sqrt(k)).
    """
    s = float(np.linalg.norm(x, 2))
    f = frobenius(x)
    k = min(x.shape)
    edges = (s, 2.0 * f, f / (2.0 * np.sqrt(k)))
    return [e * m for e in edges for m in (1.0 - 1e-3, 1.0, 1.0 + 1e-3)] + [0.0, -1.0]


def rank_one(rng, rows, cols):
    return np.outer(complex_normal(rng, rows), complex_normal(rng, cols).conj())


class TestAgreesWithExactNorm:
    @pytest.mark.parametrize("shape", [(1, 1), (8, 8), (32, 32), (16, 3), (3, 16)])
    def test_dense(self, rng, shape):
        x = complex_normal(rng, shape)
        for bound in thresholds(x):
            got = norm2_at_most(x, bound)
            assert type(got) is bool
            assert got == exact(x, bound)

    @pytest.mark.parametrize("shape", [(1, 1), (8, 8), (32, 32), (16, 3)])
    def test_rank_one_where_frobenius_equals_spectral(self, rng, shape):
        x = rank_one(rng, *shape)
        for bound in thresholds(x):
            assert norm2_at_most(x, bound) == exact(x, bound)

    @pytest.mark.parametrize("rows,cols", [(1, 1), (8, 8), (32, 32), (5, 9)])
    def test_scaled_identity_where_frobenius_is_sqrt_k_times(self, rows, cols):
        x = (0.75 - 0.5j) * np.eye(rows, cols)
        for bound in thresholds(x):
            assert norm2_at_most(x, bound) == exact(x, bound)

    def test_zero_matrix(self):
        z = np.zeros((6, 4), dtype=np.complex128)
        for bound in (0.0, 1e-300, 1e-8, 1.0, -1e-300):
            assert norm2_at_most(z, bound) == exact(z, bound)

    @pytest.mark.parametrize("scale", [1e150, 1e-150, 1e160, 1e-160, 1e170, 1e-170])
    def test_entries_far_from_one(self, rng, scale):
        # Around 1e+-160 the sum of squared entries overflows (to inf, or to
        # NaN when real and imaginary parts are both large) or underflows.
        cases = (
            complex_normal(rng, (8, 8)) * scale,
            rng.standard_normal((8, 8)).astype(np.complex128) * scale,
            rank_one(rng, 8, 3) * scale,
        )
        for x in cases:
            for bound in thresholds(x):
                assert norm2_at_most(x, bound) == exact(x, bound)

    def test_real_input(self, rng):
        x = rng.standard_normal((7, 7))
        for bound in thresholds(x):
            assert norm2_at_most(x, bound) == exact(x, bound)


class TestSvdOnlyWhenOpen:
    def test_mixed_matrices_run_the_svd_on_the_open_ones_only(self, rng, svd_calls):
        x = complex_normal(rng, (6, 8, 8))
        x[0] = 0.0
        x[1] *= 1e-12  # proved
        x[2] *= 1e3  # disproved
        x[3] *= 1e-8 / np.linalg.norm(x[3], 2)  # open: at the bound
        x[4] = rank_one(rng, 8, 8) * 1e-10  # proved
        x[5] *= 1.5e-8 / np.linalg.norm(x[5], 2)  # open: beside the bound
        want = [exact(m, 1e-8) for m in x]
        assert want == [True, True, False, True, True, False]
        for m, verdict, svds in zip(x, want, [0, 0, 0, 1, 0, 1]):
            svd_calls.clear()
            assert norm2_at_most(m, 1e-8) is verdict
            assert svd_calls["values"] == svds

    def test_settled_matrices_run_no_svd(self, rng, svd_calls):
        x = complex_normal(rng, (5, 8, 8))
        x[:2] *= 1e-12
        x[2:] *= 10.0
        svd_calls.clear()
        assert [norm2_at_most(m, 1e-8) for m in x] == [True, True, False, False, False]
        assert svd_calls["values"] == 0

    @pytest.mark.parametrize("shape", [(9, 4), (4, 9)])
    def test_rectangular_at_every_threshold(self, rng, shape):
        x = complex_normal(rng, shape)
        for bound in thresholds(x):
            assert norm2_at_most(x, bound) == exact(x, bound)


class TestDecidedWithoutSvd:
    def test_far_thresholds_run_no_svd(self, rng, svd_calls):
        x = complex_normal(rng, (32, 32))
        f = frobenius(x)
        svd_calls.clear()
        assert norm2_at_most(x, 2.01 * f) is True
        assert norm2_at_most(x, f / (2.01 * np.sqrt(32))) is False
        assert svd_calls["values"] == 0

    def test_threshold_at_the_norm_runs_the_svd(self, rng, svd_calls):
        x = complex_normal(rng, (32, 32))
        s = float(np.linalg.norm(x, 2))
        svd_calls.clear()
        assert norm2_at_most(x, s) is True
        assert svd_calls["values"] == 1


class TestBoundFromAnotherNorm:
    def test_hermitian_style_bound(self, rng):
        h = complex_normal(rng, (8, 8))
        d = complex_normal(rng, (8, 8))
        atol = 1e-8
        threshold = atol * (1.0 + np.linalg.norm(h, 2)) / np.linalg.norm(d, 2)
        for t in threshold * np.geomspace(1e-3, 1e3, 121):
            got = norm2_at_most(t * d, lambda norm: atol * (1.0 + norm), h)
            assert type(got) is bool
            assert got == bool(
                np.linalg.norm(t * d, 2) <= atol * (1.0 + np.linalg.norm(h, 2))
            )


# -- the checks built on the helper, against exact-norm references ----------


def is_normal_reference(m, tol):
    # The rule holds at unit scale: the largest real or imaginary part in [1/2, 1).
    _, e = np.frexp(max(np.abs(m.real).max(), np.abs(m.imag).max()))
    m = np.ldexp(m.real, -e) + 1j * np.ldexp(m.imag, -e)
    madj = m.conj().T
    residual = np.linalg.norm(m @ madj - madj @ m, 2)
    norm = np.linalg.norm(m, 2)
    return bool(residual <= tol.eq_atol * (1.0 + norm * norm))


def range_corange_reference(fact, tol):
    """The EP decision by an exact-norm inclusion; the reverse one must agree."""
    r = fact.numerical_rank
    if r == 0:
        return True
    u = fact.left_vectors[:, :r]
    v = fact.right_vectors[:, :r]
    forward = bool(np.linalg.norm(u - v @ (v.conj().T @ u), 2) <= tol.eq_atol)
    backward = bool(np.linalg.norm(v - u @ (u.conj().T @ v), 2) <= tol.eq_atol)
    assert forward == backward
    return forward


def is_hermitian_reference(h, tol):
    return bool(
        np.linalg.norm(h - h.conj().T, 2) <= tol.eq_atol * (1.0 + np.linalg.norm(h, 2))
    )


TOLS = [ToleranceConfig(), ToleranceConfig(eq_atol=1e-3)]


def normal(rng, n, scale):
    q, _ = np.linalg.qr(complex_normal(rng, (n, n)))
    return (q * (scale * complex_normal(rng, n))) @ q.conj().T


class TestIsNormalNearThreshold:
    @pytest.mark.parametrize("tol", TOLS)
    @pytest.mark.parametrize("n,scale", [(2, 1.0), (8, 1.0), (8, 1e3), (32, 1e-2)])
    def test_sweep_across_the_threshold(self, rng, tol, n, scale):
        base = normal(rng, n, scale)
        e = complex_normal(rng, (n, n)) * scale
        verdicts = []
        for t in np.geomspace(1e-14, 1.0, 241):
            m = base + t * e
            got = is_normal(m, tol)
            assert got == is_normal_reference(m, tol)
            verdicts.append(got)
        assert True in verdicts and False in verdicts


class TestRangeCorangeNearThreshold:
    @pytest.mark.parametrize("tol", TOLS)
    @pytest.mark.parametrize("n,r", [(4, 2), (8, 6), (32, 20)])
    def test_tilted_range_sweep(self, rng, tol, n, r):
        # M = Q diag(d) Q* is EP; (I + tK) M keeps range(M*) but tilts
        # range(M) by about t, so the forward residual crosses eq_atol.
        q, _ = np.linalg.qr(complex_normal(rng, (n, n)))
        d = np.zeros(n)
        d[:r] = rng.uniform(0.5, 2.0, r)
        m = (q * d) @ q.conj().T
        k = q[:, r:] @ complex_normal(rng, (n - r, r)) @ q[:, :r].conj().T
        k /= np.linalg.norm(k, 2)
        ts = tol.eq_atol * np.geomspace(1e-3, 1e3, 121)
        facts = [svd((np.eye(n) + t * k) @ m, tol) for t in ts]
        want = [range_corange_reference(f, tol) for f in facts]
        assert [range_corange_test(f, tol) for f in facts] == want
        assert True in want and False in want

    def test_zero_rank_is_ep(self, tol):
        fact = svd(np.zeros((3, 3)), tol)
        assert range_corange_test(fact, tol) is range_corange_reference(fact, tol) is True


class TestHermitianCheckNearThreshold:
    @pytest.mark.parametrize("tol", TOLS)
    @pytest.mark.parametrize("n", [1, 8, 32])
    def test_sweep_across_the_threshold(self, rng, tol, n):
        a = complex_normal(rng, (n, n))
        h = a + a.conj().T
        skew = complex_normal(rng, (n, n))
        skew -= skew.conj().T
        if n == 1:
            skew = np.array([[1j]])
        verdicts = []
        for t in tol.eq_atol * np.geomspace(1e-3, 1e3, 121):
            m = h + t * skew
            want = is_hermitian_reference(m, tol)
            try:
                hermitian_eig(m, tol)
                got = True
            except NotHermitian:
                got = False
            assert got == want
            verdicts.append(got)
        assert True in verdicts and False in verdicts
