import numpy as np
import pytest

import oracles
from epkit import (
    DimensionMismatch,
    adjoint,
    carrier_basis,
    null_basis,
    projector,
    range_basis,
    subspace,
    subspace_eq,
    subspace_leq,
    svd,
)
from epkit.core import norm2
from epkit.subspace import columns_included, projector_difference, projector_gap


def basis_of(columns):
    return oracles.gram_schmidt(np.asarray(columns, dtype=complex))


class TestRangeBasis:
    def test_diag_unit(self, tol):
        b = range_basis(np.diag([1.0, 0.0]), tol)
        assert b.shape == (2, 1)
        np.testing.assert_allclose(projector(b), [[1, 0], [0, 0]], atol=1e-14)

    def test_nilpotent_cell_image(self, tol):
        b = range_basis([[0, 1], [0, 0]], tol)
        np.testing.assert_allclose(projector(b), [[1, 0], [0, 0]], atol=1e-14)

    def test_rank_two_outer_products(self, rng, tol):
        u1 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        u2 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        v1 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        v2 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        m = np.outer(u1, v1.conj()) + np.outer(u2, v2.conj())
        b = range_basis(m, tol)
        assert b.shape == (4, 2)
        expected = basis_of(np.stack([u1, u2], axis=1))
        assert projector_gap(b, expected) <= 1e-10


class TestNullBasis:
    def test_diag_unit(self, tol):
        b = null_basis(np.diag([1.0, 0.0]), tol)
        np.testing.assert_allclose(projector(b), [[0, 0], [0, 1]], atol=1e-14)

    def test_identity_has_empty_null(self, tol):
        assert null_basis(np.eye(3), tol).shape == (3, 0)

    def test_wide_rank_three(self, rng, tol):
        m = oracles.random_matrix(rng, 3, 5, 3, cond=10.0)
        b = null_basis(m, tol)
        assert b.shape == (5, 2)
        for j in range(b.shape[1]):
            assert np.linalg.norm(m @ b[:, j]) <= 1e-10 * (1 + np.linalg.norm(m, 2))


def assert_orthogonal_projector(p, tol):
    """P is idempotent and self-adjoint within eq_atol."""
    assert np.linalg.norm(p @ p - p, 2) <= tol.eq_atol
    assert np.linalg.norm(p - p.conj().T, 2) <= tol.eq_atol


class TestOrthogonalProjection:
    def test_span_e1(self):
        b = np.array([[1.0], [0.0]], dtype=complex)
        np.testing.assert_array_equal(projector(b), [[1, 0], [0, 0]])

    @pytest.mark.parametrize("dtype", [np.complex128, np.float64])
    def test_empty_basis_gives_the_zero_of_its_dtype(self, dtype):
        p = projector(np.zeros((3, 0), dtype=dtype))
        assert p.shape == (3, 3) and p.dtype == dtype
        np.testing.assert_array_equal(p, np.zeros((3, 3)))

    def test_random_basis_idempotent_selfadjoint(self, rng, tol):
        cols = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
        p = projector(basis_of(cols))
        assert_orthogonal_projector(p, tol)
        assert np.trace(p).real == pytest.approx(3.0, abs=1e-10)

    @pytest.mark.parametrize("rank", [0, 2, 4])
    def test_range_projector_idempotent_selfadjoint(self, rng, tol, rank):
        m = oracles.random_matrix(rng, 4, 4, rank, cond=10.0)
        p = projector(range_basis(m, tol))
        assert p.shape == (4, 4)
        assert_orthogonal_projector(p, tol)
        assert np.trace(p).real == pytest.approx(rank, abs=1e-10)


class TestProjectorDifference:
    @pytest.mark.parametrize("k_a,k_b", [(0, 2), (2, 2), (3, 1)])
    def test_is_p_a_minus_p_b_and_its_norm_is_the_gap(self, rng, k_a, k_b):
        a, b = (
            basis_of(rng.standard_normal((5, k)) + 1j * rng.standard_normal((5, k)))
            if k else np.zeros((5, 0), dtype=complex)
            for k in (k_a, k_b)
        )
        d = projector_difference(a, b)
        np.testing.assert_array_equal(d, projector(a) - projector(b))
        assert projector_gap(a, b) == norm2(d)


NOT_2D = [np.ones(3, dtype=complex), np.ones((3, 1, 1), dtype=complex)]


class TestBasisShape:
    @pytest.mark.parametrize("bad", NOT_2D, ids=["1-D", "3-D"])
    def test_projector_rejects_non_2d(self, bad):
        with pytest.raises(DimensionMismatch):
            projector(bad)

    @pytest.mark.parametrize("bad", NOT_2D, ids=["1-D", "3-D"])
    def test_comparisons_reject_non_2d(self, bad, tol):
        good = np.eye(3, dtype=complex)[:, :1]
        for a, b in ((bad, good), (good, bad)):
            with pytest.raises(DimensionMismatch):
                subspace_leq(a, b, tol)
            with pytest.raises(DimensionMismatch):
                subspace_eq(a, b, tol)
            with pytest.raises(DimensionMismatch):
                projector_gap(a, b)
            with pytest.raises(DimensionMismatch):
                projector_difference(a, b)

    def test_projector_rejects_a_nested_list(self):
        with pytest.raises(DimensionMismatch, match="got list"):
            projector([[1.0], [0.0]])

    @pytest.mark.parametrize(
        "compare", [subspace_leq, subspace_eq, projector_gap, projector_difference]
    )
    def test_comparisons_reject_a_nested_list(self, compare):
        good = np.eye(2, dtype=complex)[:, :1]
        for a, b in ((good.tolist(), good), (good, good.tolist())):
            with pytest.raises(DimensionMismatch, match="got list"):
                compare(a, b)

    def test_comparisons_reject_different_row_counts(self, tol):
        a = np.eye(2, dtype=complex)[:, :1]
        b = np.eye(3, dtype=complex)[:, :1]
        for x, y in ((a, b), (b, a)):
            with pytest.raises(DimensionMismatch):
                subspace_leq(x, y, tol)
            with pytest.raises(DimensionMismatch):
                subspace_eq(x, y, tol)
            with pytest.raises(DimensionMismatch):
                projector_gap(x, y)
            with pytest.raises(DimensionMismatch):
                projector_difference(x, y)


class TestInclusion:
    def test_contained_in_larger(self, tol):
        small = basis_of(np.array([[1.0], [0.0]]))
        big = np.eye(2, dtype=complex)
        assert subspace_leq(small, big, tol)

    def test_orthogonal_not_contained(self, tol):
        e1 = basis_of(np.array([[1.0], [0.0]]))
        e2 = basis_of(np.array([[0.0], [1.0]]))
        assert not subspace_leq(e1, e2, tol)

    def test_same_subspace_two_orderings(self, rng, tol):
        gen = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
        b1 = basis_of(gen)
        b2 = basis_of(gen[:, ::-1])
        assert subspace_leq(b1, b2, tol) and subspace_leq(b2, b1, tol)

    def test_rejects_mismatched_ambient(self, tol):
        a = np.eye(2, dtype=complex)
        b = np.eye(3, dtype=complex)
        with pytest.raises(DimensionMismatch):
            subspace_leq(a, b, tol)

    def test_empty_is_contained_everywhere(self, tol):
        empty = np.zeros((3, 0), dtype=complex)
        full = np.eye(3, dtype=complex)
        assert subspace_leq(empty, full, tol)
        assert subspace_leq(empty, empty, tol)
        assert not subspace_eq(empty, full, tol)
        assert subspace_eq(empty, empty, tol)


class TestEquality:
    def test_scaling_invariance(self, tol):
        a = basis_of(np.array([[1.0], [1.0]]))
        b = basis_of(np.array([[2.0], [2.0]]))
        assert subspace_eq(a, b, tol)

    def test_dimension_mismatch_is_inequality(self, tol):
        a = basis_of(np.array([[1.0], [0.0]]))
        b = np.eye(2, dtype=complex)
        assert not subspace_eq(a, b, tol)

    def test_right_multiplication_preserves_range(self, rng, tol):
        m = rng.standard_normal((5, 4)) + 1j * rng.standard_normal((5, 4))
        r = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        r += 4 * np.eye(4)  # comfortably invertible
        assert subspace_eq(range_basis(m, tol), range_basis(m @ r, tol), tol)

    def test_both_inclusions_imply_equality(self, rng, tol):
        gen = rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2))
        mix = gen @ (np.eye(2) + 0.1 * np.ones((2, 2)))
        a, b = basis_of(gen), basis_of(mix)
        assert subspace_leq(a, b, tol) and subspace_leq(b, a, tol)
        assert subspace_eq(a, b, tol)

    def test_one_inclusion_decides_and_none_across_dimensions(self, rng, tol, monkeypatch):
        calls = []

        def counting(a, b, atol):
            calls.append((a.shape, b.shape))
            return columns_included(a, b, atol)

        monkeypatch.setattr(subspace, "columns_included", counting)
        q = basis_of(rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3)))
        assert not subspace_eq(q[:, :2], q, tol) and not subspace_eq(q, q[:, :2], tol)
        assert calls == []
        assert subspace_eq(q, q[:, ::-1], tol)
        assert calls == [((6, 3), (6, 3))]


class TestStructuralInvariants:
    def test_rank_nullity_exact(self, rng, tol):
        for cols in (3, 5):
            m = oracles.random_matrix(rng, 4, cols, rank=min(2, cols), cond=10.0)
            assert range_basis(m, tol).shape[1] + null_basis(m, tol).shape[1] == cols

    def test_codomain_orthogonal_decomposition(self, rng, tol):
        m = oracles.random_matrix(rng, 5, 4, 2, cond=10.0)
        p_range = projector(range_basis(m, tol))
        p_conull = projector(null_basis(adjoint(m), tol))
        assert np.linalg.norm(p_range + p_conull - np.eye(5), 2) <= 2 * tol.eq_atol

    def test_carrier_complements_null(self, rng, tol):
        m = oracles.random_matrix(rng, 4, 6, 3, cond=10.0)
        p_c = projector(carrier_basis(m, tol))
        p_n = projector(null_basis(m, tol))
        assert np.linalg.norm(p_c + p_n - np.eye(6), 2) <= 2 * tol.eq_atol

    def test_shared_factorization_consistency(self, rng, tol):
        m = oracles.random_matrix(rng, 5, 5, 3, cond=10.0)
        fact = svd(m, tol)
        r = fact.numerical_rank
        assert fact.range_vectors().shape[1] + fact.left_vectors[:, r:].shape[1] == 5
        assert fact.carrier_vectors().shape[1] == fact.numerical_rank
