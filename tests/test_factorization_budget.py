"""Factorizations per call, counted by wrapping np.linalg.svd (``svd_calls``).

Each count is the budget of a decision path: one full SVD per matrix feeds
every decision about it, and a spectral norm that only feeds a threshold
check is decided by the Frobenius bracket without an SVD of its own.
"""

import pytest

from epkit import (
    FAMILIES,
    GeneratorSpec,
    ModelFamily,
    classify,
    gen_matrix,
    limit_study,
    run_theorem_check,
)


class TestClassify:
    @pytest.mark.parametrize("dim", [8, 32])
    @pytest.mark.parametrize("family", ["ep", "non_ep", "normal_ep"])
    def test_one_full_svd(self, svd_calls, dim, family):
        m = gen_matrix(GeneratorSpec(dim=dim, rank=dim - 2, seed=1, family=family))
        svd_calls.clear()
        classify(m)
        assert svd_calls["full"] == 1
        # commutator_residual and range_gap; the EP and normality checks
        # of these clear-cut inputs need no SVD.
        assert svd_calls["values"] == 2


class TestLimitStudy:
    @pytest.mark.parametrize(
        "family",
        list(FAMILIES)
        + [pytest.param(ModelFamily("diag_harmonic_truncated", ambient_dim=30), id="ambient30")],
    )
    def test_one_full_svd_per_truncation(self, svd_calls, family):
        limit_study(family, 24)
        assert svd_calls["full"] == 24
        # commutator_residual, range_gap and the pseudoinverse norm
        assert svd_calls["values"] <= 3 * 24


class TestFractionalPowerVerifiers:
    def test_thm2_13_computes_the_modulus_once_per_trial(self, svd_calls):
        trials = 12
        run_theorem_check("thm2.13", GeneratorSpec(dim=8, rank=6, seed=1), trials)
        # Was 16: a polar decomposition of T for each of the six exponents.
        assert svd_calls["full"] / trials <= 10

    def test_thm2_15_computes_the_modulus_once_per_trial(self, svd_calls):
        trials = 12
        run_theorem_check("thm2.15", GeneratorSpec(dim=8, rank=6, seed=1), trials)
        # Was 6: a second polar decomposition of T for |T|^(1/2).
        assert svd_calls["full"] / trials <= 5
