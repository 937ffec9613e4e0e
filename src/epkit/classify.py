"""EP / hypo-EP / normal predicates and the consolidated per-matrix report.

A matrix is EP when its range coincides with the range of its adjoint; in
that case its pseudoinverse commutes with it.  Both facts are computed here
from one shared SVD (the adjoint's range is spanned by the right singular
vectors), and the commutator residual is reported independently so that
divergence at tolerance boundaries is visible rather than hidden.

EP-ness is defined for endomorphisms only: non-square input is rejected.

``range_corange_test`` is the one EP decision: every predicate here, and
every verifier that holds a factorization, reads its verdict from it.  A
square matrix of rank 0 or of full numerical rank gets its EP verdict from
its rank (both ranges are {0} or the whole space); only ranks strictly
between 0 and n compare the two ranges.  Both ranges have the numerical
rank as their dimension, so one inclusion, range(M) inside range(M*),
decides their equality: hypo-EP reads the EP verdict.  A model row holds
no factorization and needs no decision: a diagonal is EP at every rank
cutoff (see ``models``).

The inclusion residual of the EP decision and the commutator of
``is_normal`` feed only yes/no answers, so ``core.norm2_at_most`` decides
them from a Frobenius-norm bracket and runs an SVD only when the bracket
straddles the threshold.  The report's ``commutator_residual`` and
``range_gap`` are numbers and stay exact spectral norms, taken by one
stacked norm call.  Normality is decided at unit scale: M is scaled
exactly by a power of two first, so M and 2^k M get one verdict and no
product overflows.

``classify`` has a steps form, ``classify_steps``, a generator that asks
``core._lockstep`` for its SVD and then its two norms: the verifiers that
classify a matrix per trial run it in lockstep with their other trials,
so one LAPACK call serves a whole group of trials.  ``classify`` drives
it alone, as the one-element case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    DEFAULT_TOL,
    SvdFactorization,
    ToleranceConfig,
    _lockstep,
    as_matrix,
    norm2_at_most,
    require_square,
    svd,
)
from .pinv import pseudoinverse_of, reduced_min_modulus_of, spectral_radius
from .subspace import columns_included, projector


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


def range_corange_test(fact: SvdFactorization, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """True iff range(M) equals range(M*), decided by one inclusion.

    M = U S V* gives M* = V S U*, so the right singular vectors above the
    cutoff span the adjoint's range and a single rank decision gives both
    ranges the dimension r.  For two r-dimensional subspaces
    ||(I - P_B) P_A|| = ||(I - P_A) P_B|| = ||P_A - P_B|| (Kato, I §6.8),
    so range(M) inside range(M*), ||(I - V_r V_r*) U_r|| <= eq_atol,
    decides equality: hypo-EP and EP are one verdict.  The residual feeds
    only it, so ``columns_included`` decides it.  At rank 0, or at full
    rank of a square M, both ranges are {0} or the whole space: M is EP
    and no product is formed.
    """
    r = fact.numerical_rank
    if r == 0 or r == fact.rows == fact.cols:
        return True
    return columns_included(fact.left_vectors[:, :r], fact.right_vectors[:, :r], tol.eq_atol)


def is_ep(matrix, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """True iff range(M) equals range(M*).

    The closed-range requirement in the operator-theoretic definition is
    automatic in finite dimension and therefore not a separate check.
    """
    m = require_square(as_matrix(matrix))
    return range_corange_test(svd(m, tol), tol)


def is_hypo_ep(matrix, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """True iff range(M) is contained in range(M*).

    In finite dimension equal ranks force the inclusion into equality, so
    this reads the EP verdict and agrees with is_ep on every matrix by
    construction; both are exposed because the operator-theoretic notions
    differ.
    """
    return is_ep(matrix, tol)


def is_normal(matrix, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """True iff M M* - M* M vanishes within eq_atol * (1 + ||M||^2), for M at unit scale.

    M is first scaled by a power of two (``_unit_scaled``), so M and 2^k M
    get one verdict at every k, and the products cannot overflow.
    """
    m = _unit_scaled(require_square(as_matrix(matrix)))
    madj = m.conj().T
    return norm2_at_most(
        m @ madj - madj @ m, lambda norm: tol.eq_atol * (1.0 + norm * norm), m
    )


def _unit_scaled(m: np.ndarray) -> np.ndarray:
    """m times 2^-e, where the largest real or imaginary part of its entries is f 2^e, 1/2 <= f < 1.

    ``np.ldexp`` scales each part exactly; a scalar factor 2.0**-e would
    overflow for subnormal entries.  Only parts about 2^-1022 below the
    largest lose bits, to underflow.  The zero matrix stays as it is.
    """
    parts = np.ascontiguousarray(m).view(np.float64)
    _, e = np.frexp(np.abs(parts).max())
    return np.ldexp(parts, -e).view(m.dtype)


def classify(matrix, tol: ToleranceConfig = DEFAULT_TOL) -> ClassificationReport:
    """Full classification from one shared factorization.

    gamma is the smallest singular value above the cutoff (0.0 for the zero
    matrix, with zero_operator set), and the spectral radius comes from the
    eigenvalue kernel so the two diagnostics stay independent.  Drives
    ``classify_steps`` alone, the one-element case of ``core._lockstep``.
    """
    return _lockstep([classify_steps(matrix, tol)], tol)[0]


def classify_steps(matrix, tol: ToleranceConfig = DEFAULT_TOL):
    """``classify`` as a step generator of ``core._lockstep``: two requests, one report.

    It asks for the SVD of M, then for the norms of the commutator and of
    the projector gap together, and returns the ``ClassificationReport``;
    a verifier runs it with ``yield from`` in lockstep with its other trials.
    """
    m = require_square(as_matrix(matrix))
    (fact,) = yield "svd", (m,)
    mp = pseudoinverse_of(fact)
    r = fact.numerical_rank
    ep = range_corange_test(fact, tol)
    commutator, gap = yield "norm", (
        mp @ m - m @ mp,
        projector(fact.range_vectors()) - projector(fact.carrier_vectors()),
    )
    return ClassificationReport(
        dim=m.shape[0],
        rank=r,
        is_ep=ep,
        is_hypo_ep=ep,
        is_normal=is_normal(m, tol),
        gamma=reduced_min_modulus_of(fact),
        spectral_radius=spectral_radius(m),
        commutator_residual=commutator,
        range_gap=gap,
        zero_operator=r == 0,
    )
