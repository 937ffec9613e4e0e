"""Factorizations per call, counted by wrapping np.linalg.svd (``svd_calls``).

Each count is the budget of a decision path: one full SVD per matrix feeds
every decision about it, and a spectral norm that only feeds a threshold
check is decided by the Frobenius bracket without an SVD of its own.
"""

import pytest

from epkit import (
    FAMILIES,
    THEOREM_IDS,
    GeneratorSpec,
    classify,
    gen_matrix,
    harmonic_truncation,
    is_ep,
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
    @pytest.mark.parametrize("family", FAMILIES)
    def test_one_full_svd_per_truncation(self, svd_calls, family):
        limit_study(family, 24)
        assert svd_calls["full"] == 24
        # The pseudoinverse norm only: a full-rank truncation gets its EP
        # verdict from its rank.
        assert svd_calls["values"] == 24

    def test_embedded_truncation_settles_its_inclusions_without_an_svd(self, svd_calls):
        for n in range(1, 25):
            assert is_ep(harmonic_truncation(n, 30))
        assert svd_calls["full"] == 24
        # The Frobenius bracket settles every inclusion of a rank-n EP matrix.
        assert svd_calls["values"] == 0


class TestFractionalPowerVerifiers:
    def test_thm2_13_computes_the_modulus_once_per_trial(self, svd_calls):
        trials = 12
        run_theorem_check("thm2.13", GeneratorSpec(dim=8, rank=6, seed=1), trials)
        # The generator's self-validation, one SVD of T shared by the polar
        # factors and range(T), one of |T| and one of each of six powers.
        assert svd_calls["full"] / trials <= 9

    def test_thm2_15_computes_the_modulus_once_per_trial(self, svd_calls):
        trials = 12
        run_theorem_check("thm2.15", GeneratorSpec(dim=8, rank=6, seed=1), trials)
        # The generator's self-validation, one SVD of T shared by the polar
        # factors and range(T), one of |T| and one of |T|^(1/2).
        assert svd_calls["full"] / trials <= 4


# Full and values-only SVD calls per trial of each verifier at dim 8, rank 6,
# seed 1, 20 trials, then the full and values-only matrices those calls
# factor per trial (a stacked call factors every matrix of its stack).
# Every count includes the generators' self-validation, which factors each
# draw once more by design.  A verifier that starts to factor a matrix
# twice, to spend an exact norm on a yes/no check, or to take a norm over
# terms of a window that no verdict reads, goes over its budget.
VERIFIER_BUDGETS = {
    "thm1.5": (1.6, 2.2, 26.8, 30.7),
    "thm2.1": (2.0, 2.5, 2.0, 2.5),
    "thm2.2": (5.0, 4.0, 5.0, 4.0),
    "thm2.3": (3.0, 2.0, 3.0, 2.0),
    "thm2.4": (2.0, 0.5, 2.0, 0.5),
    "thm2.5": (2.0, 5.05, 2.0, 5.05),
    "thm2.6": (4.0, 1.5, 4.0, 1.5),
    "thm2.7": (2.0, 1.85, 2.0, 1.85),
    "thm2.12": (3.0, 0.0, 3.0, 0.0),
    "thm2.13": (9.0, 6.65, 9.0, 6.65),
    "thm2.15": (4.0, 0.0, 4.0, 0.0),
    "thm2.16": (2.0, 4.0, 2.0, 4.0),
    "thm2.19": (3.0, 3.0, 3.0, 3.0),
    "thm3.2": (4.0, 4.5, 53.0, 4.5),
    "thm3.4": (2.7, 2.1, 2.7, 2.1),
}


def test_budget_table_covers_every_verifier():
    assert sorted(VERIFIER_BUDGETS) == sorted(THEOREM_IDS)


@pytest.mark.parametrize("theorem_id", list(VERIFIER_BUDGETS))
def test_verifier_svd_budget(svd_calls, theorem_id):
    trials = 20
    full, values, full_matrices, values_matrices = VERIFIER_BUDGETS[theorem_id]
    run_theorem_check(theorem_id, GeneratorSpec(dim=8, rank=6, seed=1), trials)
    assert svd_calls["full"] / trials <= full
    assert svd_calls["values"] / trials <= values
    assert svd_calls["full_matrices"] / trials <= full_matrices
    assert svd_calls["values_matrices"] / trials <= values_matrices
