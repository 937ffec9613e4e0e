"""Factorizations per call, counted per matrix by wrapping np.linalg.svd (``svd_calls``).

Each count is the budget of a decision path: one full SVD per matrix feeds
every decision about it, and a spectral norm that only feeds a threshold
check is decided by the Frobenius bracket without an SVD of its own.  A
model row needs no factorization and builds no dense matrix, at any rank
cutoff; the matrices are counted by wrapping ``core.as_matrix``
(``as_matrix_calls``).  The generators' QR calls are counted with the
matrices they stack (``svd_calls["qr"]`` and ``["qr_matrices"]``), and the
SVD calls beside the matrices they factor (``svd_calls["svd"]``).
"""

import contextlib
import io
import sys

import numpy as np
import pytest

from epkit import (
    FAMILIES,
    MAX_DIM,
    THEOREM_IDS,
    GeneratorSpec,
    classify,
    gen_matrix,
    harmonic_truncation,
    harness,
    is_ep,
    limit_study,
    run_theorem_check,
)
from epkit import core
from epkit.cli import main
from epkit.core import ToleranceConfig, _lockstep
from epkit.models import diagonal_entries


@pytest.fixture
def as_matrix_calls(monkeypatch):
    """The shapes of the matrices ``core.as_matrix`` validates while the test runs.

    Every epkit module's binding of it is wrapped, so a call from any of
    them is counted.
    """
    shapes = []
    real = core.as_matrix

    def as_matrix(values):
        m = real(values)
        shapes.append(m.shape)
        return m

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "epkit" and getattr(module, "as_matrix", None) is real:
            monkeypatch.setattr(module, "as_matrix", as_matrix)
    return shapes


class TestClassify:
    @pytest.mark.parametrize("dim", [8, 32])
    @pytest.mark.parametrize("family", ["ep", "non_ep", "normal_ep"])
    def test_one_full_svd(self, svd_calls, dim, family):
        m = gen_matrix(family, GeneratorSpec(dim=dim, rank=dim - 2, seed=1))
        svd_calls.clear()
        classify(m)
        assert svd_calls["full"] == 1
        # commutator_residual and range_gap; the EP and normality checks
        # of these clear-cut inputs need no SVD.
        assert svd_calls["values"] == 2


class TestLimitStudy:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_no_lapack_call_for_a_full_rank_diagonal(self, svd_calls, family):
        limit_study(family, 24)
        # A row's values and its EP verdict are read from the truncation's
        # diagonal vector, so LAPACK is never called.
        assert svd_calls["full"] == 0
        assert svd_calls["values"] == 0
        assert svd_calls["real_matrices"] == 0
        assert svd_calls["eigvals"] == 0

    @pytest.mark.parametrize("family", FAMILIES)
    def test_no_dense_matrix_for_a_full_rank_diagonal(self, as_matrix_calls, family):
        # A full-rank row is read from the truncation's diagonal, a vector.
        limit_study(family, MAX_DIM)
        assert as_matrix_calls == []

    @pytest.mark.parametrize("rank_rtol", [1e-3, 1e-2])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_a_rank_deficient_row_is_read_from_the_diagonal_too(
        self, as_matrix_calls, svd_calls, family, rank_rtol
    ):
        # A coarse cutoff drops entries of diag_alternating from n = 33
        # (1e-3) or n = 11 (1e-2) on, and of diag_n and
        # diag_harmonic_truncated from n = 100 (1e-2) on.
        rows = limit_study(family, MAX_DIM, ToleranceConfig(rank_rtol=rank_rtol))
        assert as_matrix_calls == []
        assert svd_calls["full"] == svd_calls["values"] == svd_calls["eigvals"] == 0
        for row in rows:
            d = np.abs(diagonal_entries(family, row["n"]))
            gamma = float(d[d > rank_rtol * d.max()].min())
            assert row["gamma"] == gamma
            assert row["pinv_norm"] == 1.0 / gamma

    def test_embedded_truncation_settles_its_inclusions_without_an_svd(self, svd_calls):
        for n in range(1, 25):
            assert is_ep(harmonic_truncation(n, 30))
        assert svd_calls["full"] == 24
        # The Frobenius bracket settles every inclusion of a rank-n EP matrix.
        assert svd_calls["values"] == 0
        assert svd_calls["real_matrices"] == 24


class TestFractionalPowerVerifiers:
    def test_thm2_13_computes_the_modulus_once_per_trial(self, svd_calls):
        trials = 12
        run_theorem_check("thm2.13", GeneratorSpec(dim=8, rank=6, seed=1), trials)
        # One SVD of T shared by the polar factors and range(T), one of |T|
        # and one of each of six powers.
        assert svd_calls["full"] / trials <= 8

    def test_thm2_15_computes_the_modulus_once_per_trial(self, svd_calls):
        trials = 12
        run_theorem_check("thm2.15", GeneratorSpec(dim=8, rank=6, seed=1), trials)
        # One SVD of T shared by the polar factors and range(T), one of |T|
        # and one of |T|^(1/2).
        assert svd_calls["full"] / trials <= 3


@pytest.mark.parametrize("dim", [2, 8])
@pytest.mark.parametrize("family", list(harness._GENERATORS))
def test_generators_factor_nothing(svd_calls, dim, family):
    # Every rank the family is drawn at: non_ep's control ranks, and the
    # aligned pair's ranks of thm2.12 runs.
    low, high = {"non_ep": (1, dim - 1), "aligned_ep_pair": (1, dim)}.get(family, (0, dim))
    for rank in range(low, high + 1):
        spec = GeneratorSpec(dim=dim, rank=rank, seed=1)
        _lockstep([harness._draw(spec, np.random.default_rng(1), ((family, None),))])
    assert svd_calls["full"] == svd_calls["values"] == 0
    assert svd_calls["inv_matrices"] == svd_calls["eigvals"] == 0


# Full and values-only SVDs per trial of each verifier at dim 8, rank 6,
# seed 1, 20 trials.  Generators factor nothing: their draws are correct by
# construction (``test_generators_factor_nothing``).  A verifier that starts to factor a matrix twice, to spend
# an exact norm on a yes/no check, or to take a norm over terms of a window
# that no verdict reads, goes over its budget, and so does a generator that
# tests its draw.
VERIFIER_BUDGETS = {
    "thm1.5": (4.4, 26.45),
    "thm2.1": (1.0, 2.5),
    "thm2.2": (3.0, 2.0),
    "thm2.3": (2.0, 2.0),
    "thm2.4": (1.0, 0.5),
    "thm2.5": (1.0, 2.75),
    "thm2.6": (3.0, 1.5),
    "thm2.7": (1.0, 1.0),
    "thm2.12": (2.0, 0.0),
    "thm2.13": (8.0, 6.65),
    "thm2.15": (3.0, 0.0),
    "thm2.16": (1.0, 2.8),
    "thm2.19": (2.0, 2.0),
    "thm3.2": (1.0, 1.5),
    "thm3.4": (1.8, 1.2),
}


def test_budget_table_covers_every_verifier():
    assert sorted(VERIFIER_BUDGETS) == sorted(THEOREM_IDS)


@pytest.mark.parametrize("theorem_id", list(VERIFIER_BUDGETS))
def test_verifier_svd_budget(svd_calls, theorem_id):
    trials = 20
    full, values = VERIFIER_BUDGETS[theorem_id]
    run_theorem_check(theorem_id, GeneratorSpec(dim=8, rank=6, seed=1), trials)
    assert svd_calls["full"] / trials <= full
    assert svd_calls["values"] / trials <= values
    # Generators draw complex matrices, so the verifiers factor complex
    # ones; only thm1.5's control window, the real harmonic truncations,
    # takes the real kernels.
    assert svd_calls["real_matrices"] < svd_calls["full"] + svd_calls["values"]
    if theorem_id != "thm1.5":
        assert svd_calls["real_matrices"] == 0


def test_the_suite_stacks_its_qr_calls(svd_calls):
    # A verifier run draws its trials first and factors the Gaussian blocks
    # of each size in one QR call: 15 runs of at most 3 block sizes at dim
    # 8, rank 6 (ep blocks of 6 and 8, non_ep ones of 5 and 8), where one
    # QR per Haar unitary would make 477 calls.
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["suite", "--seed", "1", "--trials", "10"]) == 0
    assert svd_calls["qr_matrices"] == 477
    assert svd_calls["qr"] <= 45


def test_the_suite_stacks_its_svd_calls(svd_calls):
    # A verifier run drives its trials in lockstep (``core._lockstep``), so
    # one LAPACK call answers a round's requests of one kind, shape and
    # dtype across all ten trials: 46 calls over the 889 matrices that one
    # call each took, and that 355 calls took when a stack ended at its trial.
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["suite", "--seed", "1", "--trials", "10"]) == 0
    assert svd_calls["full"] + svd_calls["values"] == 889
    assert svd_calls["svd"] <= 50


def test_thm3_2_builds_one_term_and_decides_its_limit_from_its_svd(svd_calls):
    trials = 20
    run_theorem_check("thm3.2", GeneratorSpec(dim=8, rank=6, seed=1), trials)
    # One Cayley inverse per rotated trial, which is every other one; no
    # term before the last is built.  The limit's EP verdict and gamma come
    # from its SVD, so no spectral radius is computed.
    assert svd_calls["inv_matrices"] / trials <= 0.5
    assert svd_calls["eigvals"] == 0
