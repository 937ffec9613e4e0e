"""One rule per question: the shared checks give the verdicts of the exact rules.

``subspace_leq`` and ``subspace_eq`` decide inclusion with
``columns_included``, the residual the EP test uses; ``psd_dominates`` and
``hermitian_eig`` share ``core.require_hermitian``; ``polar_decomposition_of``
reads the polar factors from a factorization the caller already holds.  Each
is compared with == against a reference kept in this file that computes the
exact spectral norm, or the factorization, itself.
"""

import numpy as np
import pytest

from epkit import (
    DimensionMismatch,
    NotHermitian,
    ToleranceConfig,
    polar_decomposition,
    psd_dominates,
    subspace_eq,
    subspace_leq,
    svd,
)
from epkit.classify import range_corange_test
from epkit.pinv import polar_decomposition_of
from epkit.subspace import projector_gap

TOLS = [ToleranceConfig(), ToleranceConfig(eq_atol=1e-3)]


def complex_normal(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def unitary(rng, n):
    q, _ = np.linalg.qr(complex_normal(rng, (n, n)))
    return q


def empty(n):
    return np.zeros((n, 0), dtype=np.complex128)


# -- subspace inclusion and equality ---------------------------------------


def leq_reference(a, b, tol):
    """||(I - B B*) A|| <= eq_atol with the exact spectral norm."""
    if a.shape[1] == 0:
        return True
    outside = a - b @ (b.conj().T @ a)
    return bool(np.linalg.norm(outside, 2) <= tol.eq_atol)


def tilted(q, k, angle):
    """span(q[:, :k]) with its first column turned by angle towards q[:, k].

    Its inclusion residual against span(q[:, :k]), either way, is sin(angle).
    """
    cols = q[:, :k].copy()
    cols[:, 0] = np.cos(angle) * q[:, 0] + np.sin(angle) * q[:, k]
    return cols


def angles_across(tol):
    return np.arcsin(tol.eq_atol * np.geomspace(1e-2, 1e2, 121))


# The sweep point of ``angles_across`` where sin(angle) is eq_atol itself.
AT_THE_THRESHOLD = 60


class TestSubspaceRule:
    @pytest.mark.parametrize("tol", TOLS)
    @pytest.mark.parametrize("n,k", [(2, 1), (8, 3), (32, 20)])
    def test_equal_dimension_sweep(self, rng, tol, n, k):
        q = unitary(rng, n)
        b = q[:, :k]
        verdicts = []
        for i, angle in enumerate(angles_across(tol)):
            a = tilted(q, k, angle)
            forward, backward = leq_reference(a, b, tol), leq_reference(b, a, tol)
            assert subspace_leq(a, b, tol) == forward
            assert subspace_leq(b, a, tol) == backward
            got = subspace_eq(a, b, tol)
            assert type(got) is bool
            # Equal dimensions: the forward inclusion decides, and the two
            # residuals agree but for roundoff at the threshold itself.
            assert got == forward
            if i != AT_THE_THRESHOLD:
                assert forward == backward
            verdicts.append(got)
        assert True in verdicts and False in verdicts

    @pytest.mark.parametrize("tol", TOLS)
    def test_unequal_dimensions(self, rng, tol):
        n, k = 8, 4
        q = unitary(rng, n)
        big = q[:, :k]
        verdicts = []
        for angle in angles_across(tol):
            small = tilted(q, k, angle)[:, :2]
            got = subspace_leq(small, big, tol)
            assert got == leq_reference(small, big, tol)
            verdicts.append(got)
            assert not subspace_leq(big, small, tol)
            assert not leq_reference(big, small, tol)
            assert not subspace_eq(small, big, tol) and not subspace_eq(big, small, tol)
        assert True in verdicts and False in verdicts

    @pytest.mark.parametrize("tol", TOLS)
    def test_empty_subspaces(self, rng, tol):
        n = 5
        q = unitary(rng, n)
        spans = [empty(n), q[:, :2], q]
        for a in spans:
            for b in spans:
                assert subspace_leq(a, b, tol) == leq_reference(a, b, tol)
                assert subspace_eq(a, b, tol) == (
                    leq_reference(a, b, tol) and leq_reference(b, a, tol)
                )
        assert subspace_eq(empty(n), empty(n), tol)
        assert not subspace_eq(empty(n), spans[1], tol)
        with pytest.raises(DimensionMismatch):
            subspace_leq(empty(n), empty(n + 1), tol)

    @pytest.mark.parametrize("tol", TOLS)
    def test_matches_the_projector_gap_off_the_threshold(self, rng, tol):
        # For spans of equal dimension both rules measure sin of the largest
        # principal angle; they can differ only at roundoff from eq_atol.
        q = unitary(rng, 8)
        b = q[:, :3]
        for factor in (0.0, 0.5, 0.9, 1.1, 2.0):
            a = tilted(q, 3, np.arcsin(factor * tol.eq_atol))
            assert subspace_eq(a, b, tol) == (projector_gap(a, b) <= tol.eq_atol)
            assert subspace_eq(a, b, tol) == (factor < 1.0)


class TestRangeCarrierEqualityIsTheEpDecision:
    @pytest.mark.parametrize("tol", TOLS)
    @pytest.mark.parametrize("n,r", [(4, 2), (8, 6), (32, 20)])
    @pytest.mark.parametrize("side", ["range", "carrier"])
    def test_tilted_sweep(self, rng, tol, n, r, side):
        # M = Q diag(d) Q* is EP; (I + tK) M tilts its range and M (I + tK*)
        # its carrier by about t, so the inclusion residuals cross eq_atol.
        q = unitary(rng, n)
        d = np.zeros(n)
        d[:r] = rng.uniform(0.5, 2.0, r)
        m = (q * d) @ q.conj().T
        k = q[:, r:] @ complex_normal(rng, (n - r, r)) @ q[:, :r].conj().T
        k /= np.linalg.norm(k, 2)
        verdicts = []
        for t in tol.eq_atol * np.geomspace(1e-3, 1e3, 121):
            tilt = np.eye(n) + t * k
            f = svd(tilt @ m if side == "range" else m @ tilt.conj().T, tol)
            got = subspace_eq(f.range_vectors(), f.carrier_vectors(), tol)
            assert got == range_corange_test(f, tol)
            verdicts.append(got)
        assert True in verdicts and False in verdicts

    def test_zero_matrix(self, tol):
        f = svd(np.zeros((3, 3)), tol)
        assert subspace_eq(f.range_vectors(), f.carrier_vectors(), tol)
        assert range_corange_test(f, tol)


# -- psd_dominates ------------------------------------------------------------


def psd_dominates_reference(a, b, tol):
    """psd_dominates with exact spectral norms, each norm taken where it is used."""
    am = np.array(a, dtype=np.complex128)
    bm = np.array(b, dtype=np.complex128)
    if am.shape != bm.shape:
        raise DimensionMismatch("shapes differ")
    if am.shape[0] != am.shape[1]:
        raise NotHermitian("not square")
    norm_a = np.linalg.norm(am, 2)
    for name, m in (("first", am), ("second", bm)):
        if np.linalg.norm(m - m.conj().T, 2) > tol.eq_atol * (1.0 + np.linalg.norm(m, 2)):
            raise NotHermitian(f"{name} argument is not Hermitian within tolerance")
    diff = am - bm
    diff = (diff + diff.conj().T) / 2.0
    w = np.linalg.eigvalsh(diff)
    return bool(w[0] >= -tol.eq_atol * (1.0 + norm_a))


def outcome(fn, a, b, tol):
    """The verdict, or the message of the NotHermitian raised instead."""
    try:
        return fn(a, b, tol)
    except NotHermitian as exc:
        return str(exc)


def gram(rng, n, scale=1.0):
    x = complex_normal(rng, (n, n)) * scale
    return x.conj().T @ x


def skew(rng, n):
    s = complex_normal(rng, (n, n))
    s = s - s.conj().T
    return s / np.linalg.norm(s, 2)


class TestPsdDominatesNearThresholds:
    @pytest.mark.parametrize("tol", TOLS)
    @pytest.mark.parametrize("n,scale", [(1, 1.0), (8, 1.0), (8, 1e3), (32, 1e-2)])
    @pytest.mark.parametrize("which", ["first", "second"])
    def test_hermitian_threshold(self, rng, tol, n, scale, which):
        a = gram(rng, n, scale)
        b = 0.25 * a
        target = a if which == "first" else b
        threshold = tol.eq_atol * (1.0 + np.linalg.norm(target, 2))
        k = skew(rng, n) if n > 1 else np.array([[1j]])
        seen = set()
        for t in threshold * np.geomspace(1e-2, 1e2, 121):
            pair = (a + t * k, b) if which == "first" else (a, b + t * k)
            got = outcome(psd_dominates, *pair, tol)
            assert got == outcome(psd_dominates_reference, *pair, tol)
            seen.add(got)
        assert seen == {True, f"{which} argument is not Hermitian within tolerance"}

    @pytest.mark.parametrize("tol", TOLS)
    @pytest.mark.parametrize("n,scale", [(1, 1.0), (8, 1.0), (8, 1e3), (32, 1e-2)])
    def test_psd_threshold(self, rng, tol, n, scale):
        # A - B = -s v v* has least eigenvalue -s; the threshold sits at
        # s = eq_atol (1 + ||A||).
        a = gram(rng, n, scale)
        v = complex_normal(rng, n)
        v /= np.linalg.norm(v)
        direction = np.outer(v, v.conj())
        threshold = tol.eq_atol * (1.0 + np.linalg.norm(a, 2))
        verdicts = set()
        for s in threshold * np.geomspace(1e-2, 1e2, 121):
            b = a + s * direction
            got = psd_dominates(a, b, tol)
            assert type(got) is bool
            assert got == psd_dominates_reference(a, b, tol)
            verdicts.add(got)
        assert verdicts == {True, False}

    def test_rejects_non_square_and_mismatched_shapes(self, tol):
        with pytest.raises(NotHermitian):
            psd_dominates(np.ones((2, 3)), np.ones((2, 3)), tol)
        with pytest.raises(DimensionMismatch):
            psd_dominates(np.eye(2), np.eye(3), tol)


# -- polar factors from a factorization ------------------------------------------


class TestPolarDecompositionOf:
    @pytest.mark.parametrize("rank", [0, 3, 6])
    def test_same_bits_as_polar_decomposition(self, rng, tol, rank):
        n = 6
        m = complex_normal(rng, (n, rank)) @ complex_normal(rng, (rank, n))
        want = polar_decomposition(m, tol)
        got = polar_decomposition_of(svd(m, tol))
        np.testing.assert_array_equal(got.isometry_part, want.isometry_part)
        np.testing.assert_array_equal(got.modulus_part, want.modulus_part)
        assert got.isometry_part.dtype == want.isometry_part.dtype == np.complex128
