"""EP / hypo-EP / normal predicates and the consolidated per-matrix report.

A matrix is EP when its range coincides with the range of its adjoint; in
that case its pseudoinverse commutes with it.  Both facts are computed here
from one shared SVD (the adjoint's range is spanned by the right singular
vectors), and the commutator residual is reported independently so that
divergence at tolerance boundaries is visible rather than hidden.

EP-ness is defined for endomorphisms only: non-square input is rejected.

``range_corange_test`` is the one EP decision: every predicate here, and
every verifier that holds a factorization, reads its verdict from it.  A
square matrix of full numerical rank gets its EP verdict from its rank
(both ranges are the whole space); only ranks strictly between 0 and n
compare the two ranges.

The inclusion residuals of the EP decision and the commutator of
``is_normal`` feed only yes/no answers, so ``core.norm2_at_most`` decides
them from a Frobenius-norm bracket and runs an SVD only when the bracket
straddles the threshold.  The report's ``commutator_residual`` and
``range_gap`` are numbers and stay exact spectral norms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    DEFAULT_TOL,
    SvdFactorization,
    ToleranceConfig,
    as_matrix,
    norm2,
    norm2_at_most,
    require_square,
    svd,
)
from .pinv import pseudoinverse_of, reduced_min_modulus_of, spectral_radius
from .subspace import (
    carrier_basis_of,
    columns_included,
    projector_gap,
    range_basis_of,
)


@dataclass(frozen=True)
class ClassificationReport:
    """Verdicts and diagnostics for one square matrix.

    ``commutator_residual`` is ||M+ M - M M+|| and ``range_gap`` is the
    projector distance between the ranges of M and M*; either one near zero
    signals EP-ness, and the two are computed by different routes on purpose.
    """

    dim: int
    rank: int
    is_ep: bool
    is_hypo_ep: bool
    is_normal: bool
    gamma: float
    spectral_radius: float
    commutator_residual: float
    range_gap: float
    zero_operator: bool


def range_corange_test(fact: SvdFactorization, tol: ToleranceConfig = DEFAULT_TOL):
    """``(is_ep, is_hypo_ep)``: is range(M) inside range(M*), and the reverse?

    M = U S V* gives M* = V S U*, so the right singular vectors above the
    cutoff span the adjoint's range and a single rank decision covers both
    ranges.  range(M) lies in range(M*) when ||(I - V_r V_r*) U_r|| is at
    most eq_atol (hypo-EP); EP adds the reverse inclusion.  Both residuals
    feed only these verdicts, so ``columns_included`` decides them.  The
    rank alone decides ranks 0 and n of a square M: both ranges are then
    {0} or the whole space, so M is EP and no product is formed.  Takes
    one factorization (two bools) or the factorization of a stack (two bool
    arrays, one entry per matrix, one rank decision per group of equal rank).
    """
    hypo = np.ones(np.shape(fact.numerical_rank), dtype=bool)
    backward = np.ones_like(hypo)
    full = fact.rows if fact.rows == fact.cols else None
    for r, idx in fact.rank_groups():
        if r in (0, full):
            continue
        u = fact.left_vectors[idx][..., :r]
        v = fact.right_vectors[idx][..., :r]
        hypo[idx] = columns_included(u, v, tol.eq_atol)
        # The reverse inclusion only decides matrices that pass this one.
        if hypo[idx].any():
            backward[idx] = columns_included(v, u, tol.eq_atol)
    ep = hypo & backward
    if ep.ndim == 0:
        return bool(ep), bool(hypo)
    return ep, hypo


def is_ep(matrix, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """True iff range(M) equals range(M*).

    The closed-range requirement in the operator-theoretic definition is
    automatic in finite dimension and therefore not a separate check.
    """
    m = require_square(as_matrix(matrix))
    return range_corange_test(svd(m, tol), tol)[0]


def is_hypo_ep(matrix, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """True iff range(M) is contained in range(M*).

    In finite dimension equal ranks force the inclusion into equality, so
    this agrees with is_ep on every matrix; both are exposed because the
    operator-theoretic notions differ.
    """
    m = require_square(as_matrix(matrix))
    return range_corange_test(svd(m, tol), tol)[1]


def is_normal(matrix, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """True iff M M* - M* M vanishes within eq_atol * (1 + ||M||^2)."""
    m = require_square(as_matrix(matrix))
    madj = m.conj().T
    return norm2_at_most(
        m @ madj - madj @ m, lambda norm: tol.eq_atol * (1.0 + norm * norm), m
    )


def classify(matrix, tol: ToleranceConfig = DEFAULT_TOL) -> ClassificationReport:
    """Full classification from one shared factorization.

    gamma is the smallest singular value above the cutoff (0.0 for the zero
    matrix, with zero_operator set), and the spectral radius comes from the
    eigenvalue kernel so the two diagnostics stay independent.
    """
    m = require_square(as_matrix(matrix))
    fact = svd(m, tol)
    mp = pseudoinverse_of(fact)
    r = fact.numerical_rank
    ep, hypo = range_corange_test(fact, tol)
    return ClassificationReport(
        dim=m.shape[0],
        rank=r,
        is_ep=ep,
        is_hypo_ep=hypo,
        is_normal=is_normal(m, tol),
        gamma=reduced_min_modulus_of(fact),
        spectral_radius=spectral_radius(m, tol),
        commutator_residual=norm2(mp @ m - m @ mp),
        range_gap=projector_gap(range_basis_of(fact), carrier_basis_of(fact)),
        zero_operator=r == 0,
    )
