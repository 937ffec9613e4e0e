"""Moore-Penrose pseudoinverse and the operator calculus built on it.

The pseudoinverse is computed spectrally from the shared SVD (never via
normal equations): singular values above the rank cutoff are inverted and
the rest annihilated, which realizes "invert on the carrier, kill the
orthocomplement of the range" exactly.  The same factorization also yields
the polar decomposition, fractional powers of the modulus |M| = (M*M)^(1/2)
(one eigendecomposition of |M| for a whole grid of exponents), the reduced
minimum modulus, and the spectral radius.  Every function takes one
matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    DEFAULT_TOL,
    SvdFactorization,
    ToleranceConfig,
    _gamma,
    adjoint,
    as_matrix,
    eigenvalues,
    hermitian_eig,
    norm2,
    operator_norm,
    require_real,
    require_square,
    svd,
)
from .errors import DimensionMismatch, InvalidExponent
from .subspace import projector, projector_gap


def pseudoinverse(matrix, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Moore-Penrose inverse via the SVD, inverting only sigma above cutoff.

    Satisfies the four Penrose identities at roundoff level for reasonably
    conditioned input, and pseudoinverse(pseudoinverse(M)) reproduces M.
    The zero matrix maps to the zero matrix of transposed shape.
    """
    return pseudoinverse_of(svd(matrix, tol))


def pseudoinverse_of(fact: SvdFactorization) -> np.ndarray:
    """Pseudoinverse from an existing factorization of one matrix.

    The result has the factors' dtype: float64 for a real matrix, complex128
    otherwise.
    """
    u, s, v = fact.left_vectors, fact.singular_values, fact.right_vectors
    r = fact.numerical_rank
    if r == 0:
        return np.zeros((fact.cols, fact.rows), dtype=u.dtype)
    return (v[:, :r] * (1.0 / s[:r])) @ u[:, :r].conj().T


def penrose_residuals(matrix, candidate) -> dict[str, float]:
    """Residual norms of the four Penrose identities for candidate inverse X.

    Keys: "mxm" for MXM - M, "xmx" for XMX - X, "mx_hermitian" for
    MX - (MX)*, "xm_hermitian" for XM - (XM)*.
    """
    m = as_matrix(matrix)
    x = as_matrix(candidate)
    if x.shape != (m.shape[1], m.shape[0]):
        raise DimensionMismatch(
            f"candidate inverse of shape {x.shape} does not match matrix of shape {m.shape}"
        )
    mx = m @ x
    xm = x @ m
    return {
        "mxm": norm2(mx @ m - m),
        "xmx": norm2(xm @ x - x),
        "mx_hermitian": norm2(mx - mx.conj().T),
        "xm_hermitian": norm2(xm - xm.conj().T),
    }


@dataclass(frozen=True)
class MpIdentityReport:
    """Residuals of the classical pseudoinverse identities for one matrix.

    ``passed`` is True iff every residual is at most
    eq_atol * (1 + ||M|| + ||M+||).
    """

    residuals: dict[str, float]
    passed: bool


def mp_identity_suite(matrix, tol: ToleranceConfig = DEFAULT_TOL) -> MpIdentityReport:
    """Evaluate the pseudoinverse identity suite, each side independently.

    Subspace identities are reported as projector gaps; operator identities
    as spectral-norm residuals.  Every pseudoinverse on the right-hand sides
    is recomputed from a fresh factorization of its own argument, so the two
    sides of each identity never share intermediate results.

    Domain statements about the pseudoinverse (closedness, its domain being
    the range plus its orthocomplement) degenerate to the full space in
    finite dimension and are therefore not separate checks here.
    """
    m = as_matrix(matrix)
    mp = pseudoinverse(m, tol)
    madj = adjoint(m)

    fact_m = svd(m, tol)
    fact_mp = svd(mp, tol)
    fact_madj = svd(madj, tol)
    fact_madj_pinv = svd(pseudoinverse(madj, tol), tol)

    carrier_proj = projector(fact_m.carrier_vectors())
    range_proj = projector(fact_m.range_vectors())

    residuals = {
        # N(M+) = N(M*)
        "null_pinv_eq_null_adjoint": projector_gap(
            fact_mp.null_vectors(), fact_madj.null_vectors()
        ),
        # R(M+) = carrier of M
        "range_pinv_eq_carrier": projector_gap(fact_mp.range_vectors(), fact_m.carrier_vectors()),
        # M+ M is the orthogonal projector onto the carrier
        "pinv_m_is_carrier_projector": norm2(mp @ m - carrier_proj),
        # M M+ is the orthogonal projector onto the range
        "m_pinv_is_range_projector": norm2(m @ mp - range_proj),
        # (M+)+ = M
        "double_pinv": norm2(pseudoinverse(mp, tol) - m),
        # (M*)+ = (M+)*
        "adjoint_pinv_swap": norm2(pseudoinverse(madj, tol) - adjoint(mp)),
        # N((M*)+) = N(M)
        "null_adjoint_pinv_eq_null": projector_gap(
            fact_madj_pinv.null_vectors(), fact_m.null_vectors()
        ),
        # (M*M)+ = M+ (M*)+
        "gram_pinv_factorizes": norm2(
            pseudoinverse(madj @ m, tol) - mp @ pseudoinverse(madj, tol)
        ),
        # (MM*)+ = (M*)+ M+
        "cogram_pinv_factorizes": norm2(
            pseudoinverse(m @ madj, tol) - pseudoinverse(madj, tol) @ mp
        ),
    }
    scale = 1.0 + operator_norm(m) + operator_norm(mp)
    passed = all(value <= tol.eq_atol * scale for value in residuals.values())
    return MpIdentityReport(residuals=residuals, passed=passed)


def reduced_min_modulus(matrix, tol: ToleranceConfig = DEFAULT_TOL) -> float:
    """Smallest singular value above the rank cutoff; 0.0 for the zero matrix.

    For nonzero M this equals 1 / ||pseudoinverse(M)||.  The zero-matrix case
    is flagged separately in classification reports (zero_operator) rather
    than through a sentinel value here.
    """
    return reduced_min_modulus_of(svd(matrix, tol))


def reduced_min_modulus_of(fact: SvdFactorization) -> float:
    """Reduced minimum modulus from an existing factorization of one matrix."""
    return _gamma(fact.singular_values, fact.numerical_rank)


def spectral_radius(matrix) -> float:
    """Largest eigenvalue modulus of a square matrix."""
    vals = eigenvalues(matrix)
    return float(np.max(np.abs(vals)))


@dataclass(frozen=True, eq=False)
class PolarFactors:
    """Polar decomposition M = U |M| with a partial isometry U.

    ``isometry_part`` annihilates the null space of M (so U*U is the
    projector onto the carrier), and ``modulus_part`` is the Hermitian
    positive-semidefinite square root of M*M.
    """

    isometry_part: np.ndarray
    modulus_part: np.ndarray


def polar_decomposition(matrix, tol: ToleranceConfig = DEFAULT_TOL) -> PolarFactors:
    """Polar factors from the SVD: |M| = V S V*, U = U_r V_r*.

    The partial isometry keeps only singular directions above the cutoff, so
    N(U) = N(M); the alternative unitary completion is deliberately not used.
    """
    return polar_decomposition_of(svd(require_square(as_matrix(matrix)), tol))


def polar_decomposition_of(fact: SvdFactorization) -> PolarFactors:
    """Polar factors from an existing factorization of one square matrix."""
    r = fact.numerical_rank
    v = fact.right_vectors
    modulus = (v * fact.singular_values) @ v.conj().T
    modulus = (modulus + modulus.conj().T) / 2.0
    if r == 0:
        isometry = np.zeros_like(modulus)
    else:
        isometry = fact.left_vectors[:, :r] @ v[:, :r].conj().T
    return PolarFactors(isometry_part=isometry, modulus_part=modulus)


def fractional_abs_power(
    matrix, alpha: float, tol: ToleranceConfig = DEFAULT_TOL
) -> np.ndarray:
    """|M|^alpha for finite alpha > 0, via the Hermitian eigendecomposition of |M|.

    The one-exponent case of fractional_abs_powers_of.
    """
    _require_positive((alpha,))
    return fractional_abs_powers_of(polar_decomposition(matrix, tol), (alpha,), tol)[0]


def fractional_abs_powers_of(
    polar: PolarFactors, alphas, tol: ToleranceConfig = DEFAULT_TOL
) -> list[np.ndarray]:
    """|M|^alpha for each finite alpha > 0, from the polar factors of M.

    One Hermitian eigendecomposition of |M| serves every exponent.
    Eigenvalues of |M| at or below the rank cutoff are clamped to exactly 0
    before the power is taken (for alpha < 1 a sub-cutoff roundoff eigenvalue
    would otherwise be amplified, eps**alpha >> eps, and corrupt the range);
    |M|^1 reproduces |M| within tolerance.
    """
    _require_positive(alphas)
    w, q = hermitian_eig(polar.modulus_part, tol)
    cutoff = tol.rank_rtol * max(float(w[0]), 0.0)
    kept = np.where(w > cutoff, np.clip(w, 0.0, None), 0.0)
    powers = []
    for alpha in alphas:
        result = (q * kept**alpha) @ q.conj().T
        powers.append((result + result.conj().T) / 2.0)
    return powers


def _require_positive(alphas) -> None:
    for alpha in alphas:
        require_real("exponent", alpha, InvalidExponent)
        if not 0.0 < alpha < np.inf:
            raise InvalidExponent(f"exponent must be positive and finite, got {alpha}")


def direct_sum(a, b) -> np.ndarray:
    """Block-diagonal embedding of two (possibly rectangular) matrices.

    The pseudoinverse distributes over the blocks and the reduced minimum
    modulus of the sum is the minimum of the blocks' values when both are
    nonzero.  The sum is float64 when both blocks are real, complex128
    otherwise.
    """
    am = as_matrix(a)
    bm = as_matrix(b)
    out = np.zeros(
        (am.shape[0] + bm.shape[0], am.shape[1] + bm.shape[1]), dtype=np.result_type(am, bm)
    )
    out[: am.shape[0], : am.shape[1]] = am
    out[am.shape[0] :, am.shape[1] :] = bm
    return out
