import numpy as np
import pytest

import oracles
from epkit import (
    DimensionMismatch,
    InvalidExponent,
    NotSquare,
    adjoint,
    direct_sum,
    fractional_abs_power,
    harmonic_truncation,
    hermitian_eig,
    mp_identity_suite,
    operator_norm,
    penrose_residuals,
    polar_decomposition,
    pseudoinverse,
    range_basis,
    reduced_min_modulus,
    spectral_radius,
    subspace_eq,
    svd,
)
from epkit.pinv import fractional_abs_powers_of


class TestPseudoinverse:
    def test_inverts_nonzero_diagonal(self, tol):
        np.testing.assert_allclose(
            pseudoinverse(np.diag([2.0, 0.0]), tol), np.diag([0.5, 0.0]), atol=1e-15
        )

    def test_nilpotent_cell_maps_to_adjoint(self, tol):
        np.testing.assert_allclose(
            pseudoinverse([[0, 1], [0, 0]], tol), [[0, 0], [1, 0]], atol=1e-15
        )

    def test_penrose_residuals_random_rectangular(self, rng, tol):
        m = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        res = penrose_residuals(m, pseudoinverse(m, tol))
        assert max(res.values()) <= 1e-10 * (1.0 + operator_norm(m))

    def test_double_pseudoinverse_restores(self, rng, tol):
        m = oracles.random_matrix(rng, 5, 3, 2, cond=20.0)
        again = pseudoinverse(pseudoinverse(m, tol), tol)
        assert np.linalg.norm(again - m, 2) <= 1e-10 * (1.0 + operator_norm(m))

    def test_zero_matrix(self, tol):
        np.testing.assert_array_equal(pseudoinverse(np.zeros((2, 3)), tol), np.zeros((3, 2)))

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_zero_matrix_keeps_its_dtype(self, tol, dtype):
        assert pseudoinverse(np.zeros((2, 3), dtype=dtype), tol).dtype == dtype

    def test_harmonic_truncations_of_every_rank(self, tol):
        for k in range(1, 16):
            expected = np.diag(np.r_[np.arange(1.0, k + 1), np.zeros(16 - k)])
            got = pseudoinverse(harmonic_truncation(k, 16), tol)
            assert got.dtype == np.float64
            np.testing.assert_allclose(got, expected, rtol=1e-14, atol=1e-14)

    def test_rank_preserved_exactly(self, rng, tol):
        m = oracles.random_matrix(rng, 6, 4, 3, cond=100.0)
        assert svd(pseudoinverse(m, tol), tol).numerical_rank == svd(m, tol).numerical_rank


class TestPenroseResiduals:
    def test_identity_pair_is_exact(self):
        res = penrose_residuals(np.eye(3), np.eye(3))
        assert max(res.values()) == 0.0

    def test_diagonal_pair_is_exact(self):
        res = penrose_residuals(np.diag([2.0, 0.0]), np.diag([0.5, 0.0]))
        assert max(res.values()) == 0.0

    def test_adjoint_is_generically_not_the_pinv(self, rng, tol):
        m = 2.0 * (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        res = penrose_residuals(m, adjoint(m))
        assert max(res.values()) > tol.eq_atol

    def test_rejects_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            penrose_residuals(np.ones((2, 3)), np.ones((2, 3)))


class TestMpIdentitySuite:
    def test_identity_matrix_all_zero(self, tol):
        report = mp_identity_suite(np.eye(3), tol)
        assert report.passed
        assert max(report.residuals.values()) <= 1e-14

    def test_singular_diagonal_passes(self, tol):
        assert mp_identity_suite(np.diag([3.0, 0.0, 1.0]), tol).passed

    def test_random_rank_deficient_passes(self, rng, tol):
        m = oracles.random_matrix(rng, 5, 4, 3, cond=10.0)
        report = mp_identity_suite(m, tol)
        scale = 1.0 + operator_norm(m) + operator_norm(pseudoinverse(m, tol))
        assert report.passed
        assert max(report.residuals.values()) <= 1e-8 * scale

    def test_zero_matrix_passes(self, tol):
        assert mp_identity_suite(np.zeros((3, 2)), tol).passed

    def test_reports_all_nine_identities(self, tol):
        report = mp_identity_suite(np.eye(2), tol)
        assert len(report.residuals) == 9


class TestReducedMinModulus:
    def test_diagonal(self, tol):
        assert reduced_min_modulus(np.diag([3.0, 1.0, 0.0]), tol) == pytest.approx(1.0)

    def test_harmonic_truncation_value(self, tol):
        for n in (2, 5, 9):
            m = np.diag([1.0 / k for k in range(1, n + 1)])
            assert reduced_min_modulus(m, tol) == pytest.approx(1.0 / n, abs=1e-15)

    def test_zero_matrix_flagged_zero(self, tol):
        assert reduced_min_modulus(np.zeros((2, 2)), tol) == 0.0

    def test_matches_singular_vector_oracle(self, rng, tol):
        m = oracles.random_matrix(rng, 5, 4, 3, cond=30.0)
        fact = svd(m, tol)
        sampled = min(
            np.linalg.norm(m @ fact.right_vectors[:, j])
            for j in range(fact.numerical_rank)
        )
        assert reduced_min_modulus(m, tol) == pytest.approx(sampled, rel=1e-10)

    def test_reciprocal_of_pinv_norm(self, rng, tol):
        m = oracles.random_matrix(rng, 4, 4, 3, cond=100.0)
        gamma = reduced_min_modulus(m, tol)
        assert gamma * operator_norm(pseudoinverse(m, tol)) == pytest.approx(1.0, rel=1e-10)


class TestSpectralRadius:
    def test_nilpotent_is_zero(self):
        assert spectral_radius([[0, 1], [0, 0]]) <= 1e-12

    def test_diagonal(self):
        assert spectral_radius(np.diag([2.0, -3.0])) == pytest.approx(3.0)

    def test_matches_gelfand_oracle(self):
        for seed in (0, 3, 7, 11):
            rng = np.random.default_rng(seed)
            m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            m = m / operator_norm(m)
            assert spectral_radius(m) == pytest.approx(
                oracles.gelfand_radius(m, 64), abs=5e-2
            )

    def test_rejects_non_square(self):
        with pytest.raises(NotSquare):
            spectral_radius(np.ones((2, 3)))


class TestPolarDecomposition:
    def test_positive_diagonal(self, tol):
        factors = polar_decomposition(np.diag([2.0, 3.0]), tol)
        np.testing.assert_allclose(factors.isometry_part, np.eye(2), atol=1e-14)
        np.testing.assert_allclose(factors.modulus_part, np.diag([2.0, 3.0]), atol=1e-14)

    def test_rotation(self, tol):
        rot = np.array([[0.0, -1.0], [1.0, 0.0]])
        factors = polar_decomposition(rot, tol)
        np.testing.assert_allclose(factors.isometry_part, rot, atol=1e-14)
        np.testing.assert_allclose(factors.modulus_part, np.eye(2), atol=1e-14)

    def test_rank_deficient_reconstruction(self, rng, tol):
        m = oracles.random_matrix(rng, 4, 4, 2, cond=10.0)
        factors = polar_decomposition(m, tol)
        recon = factors.isometry_part @ factors.modulus_part
        assert np.linalg.norm(recon - m, 2) <= 1e-10 * (1.0 + operator_norm(m))
        assert svd(factors.isometry_part, tol).numerical_rank == 2

    def test_partial_isometry_laws(self, rng, tol):
        m = oracles.random_matrix(rng, 5, 5, 3, cond=10.0)
        u = polar_decomposition(m, tol).isometry_part
        assert np.linalg.norm(u @ adjoint(u) @ u - u, 2) <= tol.eq_atol
        # initial space is the carrier: U*U = P_C(M)
        from epkit import carrier_basis, projector

        p_c = projector(carrier_basis(m, tol))
        assert np.linalg.norm(adjoint(u) @ u - p_c, 2) <= tol.eq_atol

    def test_modulus_is_psd_hermitian(self, rng, tol):
        m = oracles.random_matrix(rng, 4, 4, 4, cond=10.0)
        h = polar_decomposition(m, tol).modulus_part
        assert np.linalg.norm(h - adjoint(h), 2) <= tol.eq_atol
        assert np.linalg.eigvalsh(h).min() >= -tol.eq_atol

    def test_rejects_non_square(self, tol):
        with pytest.raises(NotSquare):
            polar_decomposition(np.ones((2, 3)), tol)


class TestFractionalAbsPower:
    def test_square_root_of_diagonal(self, tol):
        np.testing.assert_allclose(
            fractional_abs_power(np.diag([4.0, 0.0]), 0.5, tol),
            np.diag([2.0, 0.0]),
            atol=1e-12,
        )

    def test_unit_exponent_reproduces_modulus(self, rng, tol):
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        modulus = polar_decomposition(m, tol).modulus_part
        assert np.linalg.norm(
            fractional_abs_power(m, 1.0, tol) - modulus, 2
        ) <= tol.eq_atol * (1.0 + operator_norm(m))

    def test_semigroup_law(self, rng, tol):
        m = oracles.random_matrix(rng, 4, 4, 3, cond=10.0)
        for alpha, beta in ((0.25, 0.5), (0.5, 1.5), (1.5, 3.0)):
            lhs = fractional_abs_power(m, alpha, tol) @ fractional_abs_power(m, beta, tol)
            rhs = fractional_abs_power(m, alpha + beta, tol)
            assert np.linalg.norm(lhs - rhs, 2) <= 1e-8 * (1.0 + operator_norm(rhs))

    def test_range_is_alpha_independent(self, rng, tol):
        m = oracles.random_matrix(rng, 5, 5, 3, cond=50.0)
        base = range_basis(polar_decomposition(m, tol).modulus_part, tol)
        for alpha in (0.25, 0.5, 1.0, 1.5, 2.0, 3.0):
            assert subspace_eq(range_basis(fractional_abs_power(m, alpha, tol), tol), base, tol)

    def test_rejects_bad_exponent(self, tol):
        with pytest.raises(InvalidExponent):
            fractional_abs_power(np.eye(2), 0.0, tol)
        with pytest.raises(InvalidExponent):
            fractional_abs_power(np.eye(2), -1.0, tol)

    @pytest.mark.parametrize("alpha", [float("inf"), float("nan")])
    def test_rejects_non_finite_exponent(self, rng, tol, alpha):
        with pytest.raises(InvalidExponent, match="positive and finite"):
            fractional_abs_power(rng.standard_normal((3, 3)), alpha, tol)

    @pytest.mark.parametrize("alpha", ["0.5", 1j, None, True, np.bool_(True)])
    def test_rejects_an_exponent_that_is_not_a_real_number(self, tol, alpha):
        with pytest.raises(InvalidExponent, match="exponent must be a real number"):
            fractional_abs_power(np.eye(2), alpha, tol)
        with pytest.raises(InvalidExponent, match="exponent must be a real number"):
            fractional_abs_powers_of(polar_decomposition(np.eye(2), tol), (0.5, alpha), tol)

    def test_rejects_non_square(self, tol):
        with pytest.raises(NotSquare):
            fractional_abs_power(np.ones((2, 3)), 0.5, tol)


def abs_power_reference(m, alpha, tol):
    """|M|^alpha from its own polar decomposition and eigendecomposition."""
    w, q = hermitian_eig(polar_decomposition(m, tol).modulus_part, tol)
    cutoff = tol.rank_rtol * max(float(w[0]), 0.0)
    powered = np.where(w > cutoff, np.clip(w, 0.0, None), 0.0) ** alpha
    result = (q * powered) @ q.conj().T
    return (result + result.conj().T) / 2.0


class TestFractionalAbsPowersOf:
    GRID = (0.25, 0.5, 1.0, 1.5, 2.0, 3.0)

    @pytest.mark.parametrize("rank", [0, 3, 6])
    def test_grid_matches_each_exponent_bit_for_bit(self, rng, tol, rank):
        m = oracles.random_matrix(rng, 6, 6, rank, cond=50.0)
        powers = fractional_abs_powers_of(polar_decomposition(m, tol), self.GRID, tol)
        assert len(powers) == len(self.GRID)
        for alpha, power in zip(self.GRID, powers):
            want = abs_power_reference(m, alpha, tol)
            assert np.array_equal(power, want)
            assert np.array_equal(fractional_abs_power(m, alpha, tol), want)

    def test_one_eigendecomposition_for_the_grid(self, rng, tol, monkeypatch):
        calls = []
        real = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(1) or real(a))
        polar = polar_decomposition(rng.standard_normal((5, 5)), tol)
        fractional_abs_powers_of(polar, self.GRID, tol)
        assert len(calls) == 1

    def test_rejects_a_bad_exponent_anywhere_in_the_grid(self, tol):
        polar = polar_decomposition(np.eye(2), tol)
        with pytest.raises(InvalidExponent):
            fractional_abs_powers_of(polar, (0.5, 0.0), tol)


class TestDirectSum:
    def test_two_singletons(self, tol):
        d = direct_sum([[2.0]], [[3.0]])
        np.testing.assert_array_equal(d, np.diag([2.0, 3.0]).astype(complex))
        assert reduced_min_modulus(d, tol) == pytest.approx(2.0)

    def test_zero_block_keeps_gamma(self, rng, tol):
        a = oracles.random_matrix(rng, 3, 3, 2, cond=10.0)
        d = direct_sum(a, np.zeros((1, 1)))
        assert reduced_min_modulus(d, tol) == pytest.approx(
            reduced_min_modulus(a, tol), rel=1e-12
        )

    def test_pinv_distributes_over_blocks(self, rng, tol):
        a = oracles.random_matrix(rng, 4, 3, 2, cond=10.0)
        b = oracles.random_matrix(rng, 2, 5, 2, cond=10.0)
        lhs = pseudoinverse(direct_sum(a, b), tol)
        rhs = direct_sum(pseudoinverse(a, tol), pseudoinverse(b, tol))
        bound = 1e-10 * (1.0 + operator_norm(a) + operator_norm(b))
        assert np.linalg.norm(lhs - rhs, 2) <= bound

    def test_gamma_is_min_of_blocks(self, rng, tol):
        a = oracles.random_matrix(rng, 3, 3, 3, cond=7.0)
        b = oracles.random_matrix(rng, 4, 4, 2, cond=7.0)
        expected = min(reduced_min_modulus(a, tol), reduced_min_modulus(b, tol))
        assert abs(reduced_min_modulus(direct_sum(a, b), tol) - expected) <= 1e-12
