import numpy as np
import pytest

import oracles
from epkit import (
    DimensionMismatch,
    OrthonormalBasis,
    adjoint,
    carrier_basis,
    null_basis,
    projector,
    range_basis,
    subspace_eq,
    subspace_leq,
    svd,
)
from epkit.subspace import projector_gap


def basis_of(columns):
    cols = np.asarray(columns, dtype=complex)
    return OrthonormalBasis(cols.shape[0], oracles.gram_schmidt(cols))


class TestRangeBasis:
    def test_diag_unit(self, tol):
        b = range_basis(np.diag([1.0, 0.0]), tol)
        assert b.dim == 1
        np.testing.assert_allclose(
            projector(b).matrix, [[1, 0], [0, 0]], atol=1e-14
        )

    def test_nilpotent_cell_image(self, tol):
        b = range_basis([[0, 1], [0, 0]], tol)
        np.testing.assert_allclose(projector(b).matrix, [[1, 0], [0, 0]], atol=1e-14)

    def test_rank_two_outer_products(self, rng, tol):
        u1 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        u2 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        v1 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        v2 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        m = np.outer(u1, v1.conj()) + np.outer(u2, v2.conj())
        b = range_basis(m, tol)
        assert b.dim == 2
        expected = basis_of(np.stack([u1, u2], axis=1))
        assert projector_gap(b, expected) <= 1e-10


class TestNullBasis:
    def test_diag_unit(self, tol):
        b = null_basis(np.diag([1.0, 0.0]), tol)
        np.testing.assert_allclose(projector(b).matrix, [[0, 0], [0, 1]], atol=1e-14)

    def test_identity_has_empty_null(self, tol):
        assert null_basis(np.eye(3), tol).dim == 0

    def test_wide_rank_three(self, rng, tol):
        m = oracles.random_matrix(rng, 3, 5, 3, cond=10.0)
        b = null_basis(m, tol)
        assert b.dim == 2
        for j in range(b.dim):
            assert np.linalg.norm(m @ b.vectors[:, j]) <= 1e-10 * (1 + np.linalg.norm(m, 2))


class TestProjector:
    def test_span_e1(self):
        b = OrthonormalBasis(2, np.array([[1.0], [0.0]], dtype=complex))
        np.testing.assert_array_equal(projector(b).matrix, [[1, 0], [0, 0]])

    def test_empty_basis_gives_zero(self):
        b = OrthonormalBasis(3, np.zeros((3, 0), dtype=complex))
        np.testing.assert_array_equal(projector(b).matrix, np.zeros((3, 3)))

    def test_random_basis_idempotent_selfadjoint(self, rng, tol):
        cols = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
        p = projector(basis_of(cols))
        assert p.idempotency_residual() <= tol.eq_atol
        assert p.selfadjointness_residual() <= tol.eq_atol
        assert np.trace(p.matrix).real == pytest.approx(3.0, abs=1e-10)


class TestInclusion:
    def test_contained_in_larger(self, tol):
        small = basis_of(np.array([[1.0], [0.0]]))
        big = OrthonormalBasis(2, np.eye(2, dtype=complex))
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
        a = OrthonormalBasis(2, np.eye(2, dtype=complex))
        b = OrthonormalBasis(3, np.eye(3, dtype=complex))
        with pytest.raises(DimensionMismatch):
            subspace_leq(a, b, tol)

    def test_empty_is_contained_everywhere(self, tol):
        empty = OrthonormalBasis(3, np.zeros((3, 0), dtype=complex))
        full = OrthonormalBasis(3, np.eye(3, dtype=complex))
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
        b = OrthonormalBasis(2, np.eye(2, dtype=complex))
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


class TestStructuralInvariants:
    def test_rank_nullity_exact(self, rng, tol):
        for cols in (3, 5):
            m = oracles.random_matrix(rng, 4, cols, rank=min(2, cols), cond=10.0)
            assert range_basis(m, tol).dim + null_basis(m, tol).dim == cols

    def test_codomain_orthogonal_decomposition(self, rng, tol):
        m = oracles.random_matrix(rng, 5, 4, 2, cond=10.0)
        p_range = projector(range_basis(m, tol)).matrix
        p_conull = projector(null_basis(adjoint(m), tol)).matrix
        assert np.linalg.norm(p_range + p_conull - np.eye(5), 2) <= 2 * tol.eq_atol

    def test_carrier_complements_null(self, rng, tol):
        m = oracles.random_matrix(rng, 4, 6, 3, cond=10.0)
        p_c = projector(carrier_basis(m, tol)).matrix
        p_n = projector(null_basis(m, tol)).matrix
        assert np.linalg.norm(p_c + p_n - np.eye(6), 2) <= 2 * tol.eq_atol

    def test_shared_factorization_consistency(self, rng, tol):
        m = oracles.random_matrix(rng, 5, 5, 3, cond=10.0)
        fact = svd(m, tol)
        assert fact.range_vectors().shape[1] + fact.left_null_vectors().shape[1] == 5
        assert fact.carrier_vectors().shape[1] == fact.numerical_rank
