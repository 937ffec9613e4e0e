import importlib
from collections import Counter

import numpy as np
import pytest

from epkit import (
    FAMILIES,
    GeneratorSpec,
    NotSquare,
    ToleranceConfig,
    adjoint,
    carrier_basis,
    classify,
    gen_matrix,
    harmonic_truncation,
    is_ep,
    is_hypo_ep,
    is_normal,
    limit_study,
    range_basis,
    subspace_eq,
    svd,
)
from epkit.classify import range_corange_test
from epkit.cli import main
from epkit.subspace import columns_included


def embedded_ep(rng, dim, rank):
    """V blockdiag(A, 0) V* with unitary V: range and adjoint range coincide."""
    a = rng.standard_normal((rank, rank)) + 1j * rng.standard_normal((rank, rank))
    a += rank * np.eye(rank)  # keep the corner comfortably invertible
    block = np.zeros((dim, dim), dtype=complex)
    block[:rank, :rank] = a
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    v, _ = np.linalg.qr(g)
    return v @ block @ v.conj().T


def embedded_nilpotent(rng, dim):
    block = np.zeros((dim, dim), dtype=complex)
    block[0, 1] = 1.0
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    v, _ = np.linalg.qr(g)
    return v @ block @ v.conj().T


class TestIsEp:
    def test_hermitian_diagonal(self, tol):
        assert is_ep(np.diag([1.0, 0.0]), tol)

    def test_nilpotent_cell(self, tol):
        assert not is_ep([[0, 1], [0, 0]], tol)

    def test_embedded_invertible_corner(self, rng, tol):
        m = embedded_ep(rng, 5, 3)
        assert is_ep(m, tol)

    def test_adjoint_symmetry(self, rng, tol):
        for dim, builder in ((4, embedded_ep), (4, None)):
            m = builder(rng, dim, 2) if builder else embedded_nilpotent(rng, dim)
            assert is_ep(m, tol) == is_ep(adjoint(m), tol)

    def test_rejects_non_square(self, tol):
        with pytest.raises(NotSquare):
            is_ep(np.ones((2, 3)), tol)


class TestIsHypoEp:
    def test_hermitian_diagonal(self, tol):
        assert is_hypo_ep(np.diag([2.0, -1.0, 0.0]), tol)

    def test_nilpotent_cell(self, tol):
        assert not is_hypo_ep([[0, 1], [0, 0]], tol)

    def test_collapses_to_ep_in_finite_dimension(self, rng, tol):
        candidates = [
            embedded_ep(rng, 5, 3),
            embedded_nilpotent(rng, 5),
            rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)),
            np.zeros((3, 3)),
            np.diag([1.0, 0.0, 2.0]),
        ]
        for m in candidates:
            assert is_hypo_ep(m, tol) == is_ep(m, tol)


class TestIsNormal:
    def test_rotation_is_normal(self, tol):
        assert is_normal([[0, -1], [1, 0]], tol)

    def test_nilpotent_is_not(self, tol):
        assert not is_normal([[0, 1], [0, 0]], tol)

    def test_random_hermitian_is_normal(self, rng, tol):
        a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        assert is_normal(a + adjoint(a), tol)


class TestClassify:
    def test_identity(self, tol):
        rep = classify(np.eye(3), tol)
        assert rep.is_ep and rep.is_hypo_ep and rep.is_normal
        assert rep.rank == 3 and rep.dim == 3
        assert rep.gamma == pytest.approx(1.0)
        assert rep.spectral_radius == pytest.approx(1.0)
        assert rep.commutator_residual <= 1e-14
        assert rep.range_gap <= 1e-14
        assert not rep.zero_operator

    def test_nilpotent_cell(self, tol):
        rep = classify([[0, 1], [0, 0]], tol)
        assert not rep.is_ep and not rep.is_hypo_ep and not rep.is_normal
        assert rep.gamma == pytest.approx(1.0)
        assert rep.spectral_radius <= 1e-12
        assert rep.rank == 1
        assert rep.commutator_residual == pytest.approx(1.0, abs=1e-12)
        assert rep.range_gap == pytest.approx(1.0, abs=1e-12)

    def test_integer_diagonal_truncation(self, tol):
        n = 6
        rep = classify(np.diag(np.arange(1.0, n + 1)), tol)
        assert rep.is_ep and rep.is_normal
        assert rep.gamma == pytest.approx(1.0)
        assert rep.spectral_radius == pytest.approx(float(n))
        assert rep.rank == n

    def test_zero_operator_flagged(self, tol):
        rep = classify(np.zeros((3, 3)), tol)
        assert rep.zero_operator
        assert rep.gamma == 0.0
        assert rep.is_ep  # the zero matrix has equal (trivial) range and adjoint range

    def test_rejects_non_square(self, tol):
        with pytest.raises(NotSquare):
            classify(np.ones((3, 2)), tol)

    def test_entries_near_1e200_get_the_verdicts_of_their_unit_scaled_copy(self, tol):
        # The normality check scales by a power of two before it forms
        # M M* - M* M, so those products no longer overflow to inf and NaN.
        m = np.array([[1e200, 2e200, 0.0], [0.0, 1e200, 3e200], [1e200, 0.0, 1e200]])
        big, unit = classify(m, tol), classify(np.ldexp(m, -665), tol)
        for field in ("rank", "is_ep", "is_hypo_ep", "is_normal", "zero_operator"):
            assert getattr(big, field) == getattr(unit, field)
        assert big.gamma == pytest.approx(np.ldexp(unit.gamma, 665), rel=1e-13)
        assert big.spectral_radius == pytest.approx(np.ldexp(unit.spectral_radius, 665), rel=1e-13)

    def test_report_internal_consistency(self, rng, tol):
        for m in (embedded_ep(rng, 6, 4), embedded_nilpotent(rng, 6)):
            rep = classify(m, tol)
            assert rep.is_ep == (rep.commutator_residual <= tol.eq_atol)
            assert rep.is_ep == (rep.range_gap <= 2 * tol.eq_atol)
            if rep.is_ep:
                assert rep.is_hypo_ep
            if rep.is_normal:
                assert rep.is_ep


NILPOTENT = np.array([[0.0, 1.0], [0.0, 0.0]])
ROTATION = np.array([[0.0, -1.0], [1.0, 0.0]])


class TestNormalityIsScaleInvariant:
    """is_normal decides M and 2^k M alike: a normal matrix is always EP."""

    def test_a_small_nilpotent_is_not_normal(self, tol):
        rep = classify(1e-4 * NILPOTENT, tol)
        assert not rep.is_normal and not rep.is_ep

    @pytest.mark.parametrize("phase", [1.0, 1j, (1 + 1j) / np.sqrt(2.0)])
    def test_every_power_of_two_scaling(self, tol, phase):
        for k in range(-1000, 501):
            assert not is_normal(np.ldexp(NILPOTENT, k) * phase, tol), k
            assert is_normal(np.ldexp(ROTATION, k) * phase, tol), k

    def test_subnormal_entries(self, tol):
        tiny = np.ldexp(1.0, -1074)
        assert is_normal(np.diag([tiny, tiny]), tol)
        assert not is_normal(tiny * NILPOTENT, tol)

    def test_the_zero_matrix_is_normal(self, tol):
        assert is_normal(np.zeros((3, 3)), tol)


class TestTheoremLevelInvariants:
    def test_commutator_equivalence_both_directions(self, rng, tol):
        for _ in range(10):
            ep_m = embedded_ep(rng, 5, 3)
            bad_m = embedded_nilpotent(rng, 5)
            assert classify(ep_m, tol).commutator_residual <= tol.eq_atol
            assert classify(bad_m, tol).commutator_residual > tol.eq_atol

    def test_ep_range_equals_carrier(self, rng, tol):
        m = embedded_ep(rng, 6, 3)
        assert subspace_eq(range_basis(m, tol), carrier_basis(m, tol), tol)

    def test_gamma_vs_radius_needs_ep(self, rng, tol):
        # nilpotent negative control: gamma exceeds the spectral radius
        rep = classify([[0, 1], [0, 0]], tol)
        assert rep.gamma > rep.spectral_radius
        # EP instances respect the inequality
        for _ in range(5):
            rep = classify(embedded_ep(rng, 5, 3), tol)
            assert rep.is_ep
            assert rep.gamma <= rep.spectral_radius + 1e-10


# -- ranks 0 and n decide EP without inclusion products -----------------------

SHORTCUT_TOLS = [
    ToleranceConfig(),
    ToleranceConfig(eq_atol=1e-3),
    ToleranceConfig(rank_rtol=1e-6),
]


def complex_normal(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def with_singular_values(rng, s):
    """U diag(s) V* with independent random unitaries: rarely normal or EP."""
    n = len(s)
    u, _ = np.linalg.qr(complex_normal(rng, (n, n)))
    v, _ = np.linalg.qr(complex_normal(rng, (n, n)))
    return (u * s) @ v.conj().T


def ep_of_rank(rng, n, r):
    """Q blockdiag(A, 0) Q* with a non-normal invertible r x r block A."""
    a = complex_normal(rng, (r, r)) + r * np.eye(r)
    q, _ = np.linalg.qr(complex_normal(rng, (n, n)))
    return q[:, :r] @ a @ q[:, :r].conj().T


def range_corange_by_products(fact, tol):
    """The EP decision by an inclusion product at every nonzero rank.

    Both ranges have dimension r, so the reverse inclusion agrees with the
    forward one that decides; the reference asserts it.
    """
    r = fact.numerical_rank
    if r == 0:
        return True
    u = fact.left_vectors[:, :r]
    v = fact.right_vectors[:, :r]
    forward = columns_included(u, v, tol.eq_atol)
    assert columns_included(v, u, tol.eq_atol) == forward
    return forward


class TestFullRankVerdictEqualsTheProducts:
    @pytest.mark.parametrize("tol", SHORTCUT_TOLS)
    @pytest.mark.parametrize("n", [1, 2, 8, 64, 256])
    def test_full_rank(self, rng, tol, n):
        f = svd(complex_normal(rng, (n, n)), tol)
        assert f.numerical_rank == n
        assert range_corange_test(f, tol) is range_corange_by_products(f, tol) is True

    @pytest.mark.parametrize("scale", [1e-150, 1e150])
    @pytest.mark.parametrize("n", [1, 8, 64])
    def test_extreme_scales(self, rng, tol, scale, n):
        for m in (scale * complex_normal(rng, (n, n)), scale * ep_of_rank(rng, n, max(n - 1, 1))):
            f = svd(m, tol)
            assert range_corange_test(f, tol) == range_corange_by_products(f, tol)

    @pytest.mark.parametrize("tol", SHORTCUT_TOLS)
    @pytest.mark.parametrize("n", [2, 8, 64])
    @pytest.mark.parametrize("factor,drop", [(1.001, 0), (0.999, 1)])
    def test_condition_at_the_rank_cutoff(self, rng, tol, n, factor, drop):
        # sigma_n / sigma_1 just above rank_rtol keeps full rank; just below
        # it drops one, and the products decide.
        s = np.geomspace(1.0, factor * tol.rank_rtol, n)
        for m in (with_singular_values(rng, s), np.diag(s)):
            f = svd(m, tol)
            assert f.numerical_rank == n - drop
            assert range_corange_test(f, tol) == range_corange_by_products(f, tol)

    @pytest.mark.parametrize("tol", SHORTCUT_TOLS)
    @pytest.mark.parametrize("n", [2, 8, 32])
    def test_matrices_of_mixed_rank(self, rng, tol, n):
        matrices = [
            complex_normal(rng, (n, n)),
            ep_of_rank(rng, n, n - 1),
            with_singular_values(rng, np.r_[np.ones(n - 1), 0.0]),
            np.zeros((n, n)),
            1e150 * complex_normal(rng, (n, n)),
            1e-150 * ep_of_rank(rng, n, n - 1),
        ]
        order = rng.permutation(len(matrices))
        facts = [svd(matrices[i], tol) for i in order]
        ranks = [f.numerical_rank for f in facts]
        assert sorted(set(ranks)) == [0, n - 1, n]
        for f in facts:
            assert range_corange_test(f, tol) == range_corange_by_products(f, tol)

    def test_rectangular_factorization_still_fails(self, rng, tol):
        # The shortcut is for square factorizations; a full-rank rectangular
        # one still reaches the products, whose shapes do not match.
        for shape in ((3, 5), (5, 3)):
            with pytest.raises(ValueError):
                range_corange_test(svd(complex_normal(rng, shape), tol), tol)

    def test_single_factorization_gives_one_bool(self):
        m = gen_matrix("non_ep", GeneratorSpec(dim=5, rank=2, seed=1))
        assert range_corange_test(svd(m)) is False


@pytest.fixture
def inclusion_calls(monkeypatch):
    """Shapes of the first argument of each ``columns_included`` call the EP test makes."""
    module = importlib.import_module("epkit.classify")
    calls = []
    real = module.columns_included

    def counting(a, b, atol):
        calls.append(a.shape)
        return real(a, b, atol)

    monkeypatch.setattr(module, "columns_included", counting)
    return calls


class TestInclusionProductsOnlyBelowFullRank:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_limit_study_of_a_default_family(self, inclusion_calls, tol, family):
        rows = limit_study(family, 32, tol)
        assert all(row["is_ep"] for row in rows)
        assert inclusion_calls == []

    def test_invertible_matrix(self, inclusion_calls, rng, tol):
        m = complex_normal(rng, (8, 8))
        rep = classify(m, tol)
        assert rep.is_ep and rep.is_hypo_ep and rep.rank == 8 and not rep.is_normal
        assert is_ep(m, tol) and is_hypo_ep(m, tol)
        assert inclusion_calls == []

    def test_rank_deficient_matrices(self, inclusion_calls, rng, tol):
        assert classify(ep_of_rank(rng, 8, 7), tol).is_ep
        assert inclusion_calls == [(8, 7)]
        inclusion_calls.clear()
        # Not EP: the one inclusion decides this verdict too.
        assert not classify(with_singular_values(rng, np.r_[np.ones(7), 0.0]), tol).is_ep
        assert inclusion_calls == [(8, 7)]

    def test_harmonic_truncation_in_a_larger_ambient_dimension(self, inclusion_calls, tol):
        for n in range(1, 13):
            assert classify(harmonic_truncation(n, 20), tol).is_ep
        assert inclusion_calls == [(20, n) for n in range(1, 13)]

    def test_suite_forms_one_product_per_decision(self, monkeypatch):
        # One inclusion decides each EP verdict below full rank (the
        # classify binding) and each equal-dimension subspace equality (the
        # subspace binding).  Both inclusions made 192 and 73 products.
        calls = Counter()
        for name in ("epkit.classify", "epkit.subspace"):
            def counting(a, b, atol, name=name):
                calls[name] += 1
                return columns_included(a, b, atol)

            monkeypatch.setattr(importlib.import_module(name), "columns_included", counting)
        assert main(["suite", "--seed", "1", "--trials", "10"]) == 0
        assert calls["epkit.subspace"] <= 38
        assert calls["epkit.classify"] <= 114
