"""Dense complex-matrix kernels: adjoint, products, SVD, eigendecompositions.

Everything downstream (subspaces, pseudoinverses, classification, theorem
verifiers) funnels through the factorizations in this module so that rank
decisions stay mutually consistent.  LAPACK, via numpy, supplies the
similarity-reduction iterations; the test suite pins accuracy against
independent characteristic-polynomial and residual oracles.

``svd`` and ``norm2`` take one matrix or a stack of matrices (a 3-D array
whose trailing two axes hold each matrix); a stack costs one LAPACK call
from Python instead of one per matrix, and gives each matrix the same bits
as factoring it alone.  ``norm2`` is the package's only spectral norm: it
reads sigma_1 from the singular-value-only kernel, the same routine and the
same bits as ``np.linalg.norm(x, 2)`` without that function's axis handling.

A spectral norm that feeds only a yes/no threshold check goes through
``norm2_at_most`` instead, which brackets it by the Frobenius norm and runs
the SVD only when the bracket straddles the threshold; its verdict is the
exact one.  Here that is ``require_hermitian``, the one Hermitian check
(``hermitian_eig`` and ``harness.psd_dominates`` call it); in ``classify``
the EP and normality checks.  Every spectral norm that reaches a report is
an exact ``norm2``.

All functions are pure: inputs are validated, never mutated, and returned
arrays are fresh.  Values are safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConvergenceFailure,
    DimensionMismatch,
    InvalidDimension,
    NotHermitian,
    NotSquare,
)

# Desk-scale verifier, not an HPC kernel.
MAX_DIM = 256


@dataclass(frozen=True)
class ToleranceConfig:
    """Numerical policy shared by every operation.

    Parameters
    ----------
    rank_rtol : float
        Relative singular-value cutoff: sigma_i counts toward the numerical
        rank iff sigma_i > rank_rtol * sigma_1.  This is the finite-precision
        surrogate for "the range is closed with known rank".
    eq_atol : float
        Absolute residual tolerance for matrix, projector and subspace
        equality tests.
    """

    rank_rtol: float = 1e-10
    eq_atol: float = 1e-8

    def __post_init__(self) -> None:
        if not 0.0 < self.rank_rtol < 1.0:
            raise ValueError(f"rank_rtol must lie in (0, 1), got {self.rank_rtol}")
        if not 0.0 < self.eq_atol < 1.0:
            raise ValueError(f"eq_atol must lie in (0, 1), got {self.eq_atol}")


DEFAULT_TOL = ToleranceConfig()


def as_matrix(values) -> np.ndarray:
    """Validate and normalize input into a fresh complex128 2-D array.

    Rejects non-2-D input, empty axes, dimensions beyond MAX_DIM, and
    non-finite entries.
    """
    return _validated(values, "a 2-D matrix", (2,))


def _validated(values, expected: str, ndims: tuple[int, ...]) -> np.ndarray:
    m = np.array(values, dtype=np.complex128, copy=True)
    if m.ndim not in ndims:
        raise InvalidDimension(f"expected {expected}, got ndim={m.ndim}")
    if m.size == 0:
        raise InvalidDimension(f"matrix axes must be positive, got {m.shape}")
    require_within_cap(m.shape)
    if not np.isfinite(m).all():  # complex entries: both parts finite
        raise ValueError("matrix entries must be finite (no NaN/Inf)")
    return m


def require_within_cap(shape: tuple[int, ...]) -> None:
    """Reject a shape whose trailing two axes exceed MAX_DIM."""
    rows, cols = shape[-2:]
    if rows > MAX_DIM or cols > MAX_DIM:
        raise InvalidDimension(
            f"matrix of shape {shape} exceeds the {MAX_DIM}x{MAX_DIM} cap"
        )


def require_square(m: np.ndarray) -> np.ndarray:
    if m.shape[0] != m.shape[1]:
        raise NotSquare(f"expected a square matrix, got shape {m.shape}")
    return m


@dataclass(frozen=True, eq=False)
class SvdFactorization:
    """Full singular value decomposition with a thresholded numerical rank.

    ``left_vectors`` is m x m unitary, ``right_vectors`` is n x n unitary,
    ``singular_values`` holds the min(m, n) singular values sorted
    non-increasing, and ``numerical_rank`` counts those above
    rank_rtol * sigma_1.  Column blocks of the two unitary factors give
    orthonormal bases of the four fundamental subspaces.

    The factorization of a stack of k matrices has a leading axis of length
    k on every array, and ``numerical_rank`` is then an int array of the k
    ranks; the basis methods below apply to a single matrix only.
    """

    left_vectors: np.ndarray
    singular_values: np.ndarray
    right_vectors: np.ndarray
    numerical_rank: int | np.ndarray

    @property
    def rows(self) -> int:
        return self.left_vectors.shape[-1]

    @property
    def cols(self) -> int:
        return self.right_vectors.shape[-1]

    def rank_groups(self) -> list[tuple[int, object]]:
        """``(rank, index)`` pairs, one per distinct numerical rank.

        ``index`` selects the matrices of that rank along the leading axis
        (``()`` selects everything), so kernels that slice the factors to
        the rank run once per group, not once per matrix.
        """
        ranks = self.numerical_rank
        if np.ndim(ranks) == 0:
            return [(int(ranks), ())]
        if (ranks == ranks[0]).all():
            return [(int(ranks[0]), ())]
        return [(int(r), np.flatnonzero(ranks == r)) for r in np.unique(ranks)]

    def range_vectors(self) -> np.ndarray:
        """Orthonormal columns spanning the range (column space)."""
        return self.left_vectors[:, : self.numerical_rank].copy()

    def null_vectors(self) -> np.ndarray:
        """Orthonormal columns spanning the null space."""
        return self.right_vectors[:, self.numerical_rank :].copy()

    def carrier_vectors(self) -> np.ndarray:
        """Orthonormal columns spanning the carrier (orthocomplement of the null space)."""
        return self.right_vectors[:, : self.numerical_rank].copy()

    def left_null_vectors(self) -> np.ndarray:
        """Orthonormal columns spanning the orthocomplement of the range."""
        return self.left_vectors[:, self.numerical_rank :].copy()


def adjoint(matrix) -> np.ndarray:
    """Conjugate transpose."""
    m = as_matrix(matrix)
    return m.conj().T.copy()


def multiply(a, b) -> np.ndarray:
    """Matrix product, with an explicit shape check."""
    am = as_matrix(a)
    bm = as_matrix(b)
    if am.shape[1] != bm.shape[0]:
        raise DimensionMismatch(
            f"cannot multiply {am.shape} by {bm.shape}: inner dimensions differ"
        )
    return am @ bm


def svd(matrix, tol: ToleranceConfig = DEFAULT_TOL) -> SvdFactorization:
    """Full SVD of a matrix or a stack, with rank thresholded at rank_rtol * sigma_1.

    A stack is a 3-D array, or a sequence of equally shaped matrices, with
    the matrices along its leading axis; each is validated as by as_matrix.
    The zero matrix yields numerical_rank 0 (empty range basis).  Raises
    ConvergenceFailure if the underlying iteration does not converge.
    """
    m = _validated(matrix, "a 2-D matrix or a 3-D stack of matrices", (2, 3))
    try:
        u, s, vh = np.linalg.svd(m, full_matrices=True)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"SVD did not converge for shape {m.shape}") from exc
    # All-zero singular values (the zero matrix) count nothing above 0.
    rank = (s > tol.rank_rtol * s[..., :1]).sum(axis=-1)
    return SvdFactorization(
        left_vectors=u,
        singular_values=s,
        right_vectors=vh.conj().swapaxes(-1, -2),
        numerical_rank=int(rank) if m.ndim == 2 else rank,
    )


def hermitian_eig(
    matrix, tol: ToleranceConfig = DEFAULT_TOL
) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns ``(eigenvalues, eigenvectors)`` with real eigenvalues sorted
    non-increasing and unitary eigenvector columns, so that
    H = Q diag(w) Q*.  Raises NotHermitian when the input is not square or
    departs from H = H* by more than eq_atol * (1 + ||H||).
    """
    h = require_hermitian(as_matrix(matrix), tol)
    try:
        w, q = np.linalg.eigh((h + h.conj().T) / 2.0)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(
            f"Hermitian eigendecomposition did not converge for shape {h.shape}"
        ) from exc
    order = np.argsort(-w, kind="stable")
    return w[order].copy(), q[:, order].copy()


def require_hermitian(
    h: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL, what: str = "matrix"
) -> np.ndarray:
    """Return h if it is square and ||H - H*|| <= eq_atol * (1 + ||H||).

    Otherwise raise NotHermitian naming h as ``what``.  No validation, as norm2.
    """
    if h.shape[0] != h.shape[1]:
        raise NotHermitian(f"expected a square Hermitian {what}, got shape {h.shape}")
    if not norm2_at_most(h - h.conj().T, lambda norm: tol.eq_atol * (1.0 + norm), h):
        raise NotHermitian(f"{what} is not Hermitian within tolerance")
    return h


def eigenvalues(matrix, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """All eigenvalues of a square matrix, in a canonical deterministic order.

    Sorted by descending real part, then descending imaginary part; the
    result is a multiset, so only the multiset is contractual.
    """
    m = require_square(as_matrix(matrix))
    try:
        vals = np.linalg.eigvals(m)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(
            f"eigenvalue iteration did not converge for shape {m.shape}"
        ) from exc
    order = np.lexsort((-vals.imag, -vals.real))
    return vals[order].copy()


def norm2(x: np.ndarray):
    """Spectral norm of a matrix (a float), or of each matrix in a stack (an array).

    No validation: callers pass arrays they built.  Same bits as
    np.linalg.norm(x, 2), which runs the same kernel.
    """
    sigma1 = np.linalg.svd(x, compute_uv=False)[..., 0]
    return float(sigma1) if sigma1.ndim == 0 else sigma1


def operator_norm(matrix) -> float:
    """Spectral norm (largest singular value); 0.0 for the zero matrix."""
    return norm2(as_matrix(matrix))


def norm2_at_most(x: np.ndarray, bound, norm_of: np.ndarray | None = None):
    """Decide ``norm2(x) <= bound`` for a matrix (a bool) or each matrix of a stack (bools).

    With ``norm_of`` (x then one matrix), ``bound`` is a non-decreasing
    function and the test is ``norm2(x) <= bound(norm2(norm_of))``.

    The verdict is always that of the exact test.  Since ||X||_2 <= ||X||_F
    <= sqrt(k) ||X||_2 with k = min(rows, cols), the Frobenius norm settles
    every threshold it clears by a factor 2, and the SVD runs only on the
    matrices it leaves open.  No validation, as norm2.
    """
    lo, hi = _norm2_bracket(x)
    if norm_of is None:
        low = high = bound
    else:
        m_lo, m_hi = _norm2_bracket(norm_of)
        low, high = bound(m_lo), bound(m_hi)
    verdict = hi <= low
    undecided = ~verdict & ~(lo > high)
    if x.ndim == 2:
        if not undecided:
            return bool(verdict)
        exact = bound if norm_of is None else bound(norm2(norm_of))
        return bool(norm2(x) <= exact)
    if undecided.any():
        verdict[undecided] = norm2(x[undecided]) <= bound
    return verdict


# What gradual underflow can drop from one squared entry.
_UNDERFLOW = 2.0**-1074


def _norm2_bracket(x: np.ndarray):
    """``(lo, hi)`` with lo < norm2(x) < hi for each matrix, NaN where unknown.

    From the Frobenius norm F: hi = 2F and lo = F / (2 sqrt(k)).  The factor
    2 dwarfs the rounding of the sum and of the SVD, and of a squared entry
    that underflows to a subnormal; hi also covers entries whose squares
    underflow to 0.  An overflowed sum gives NaN, which decides nothing.
    """
    if x.ndim == 2:
        sq = np.vdot(x, x).real
        if not math.isfinite(sq):
            sq = math.nan
    else:
        sq = np.einsum("...ij,...ij->...", x.conj(), x).real
        sq[~np.isfinite(sq)] = np.nan
    rows, cols = x.shape[-2:]
    hi = 2.0 * (sq + rows * cols * _UNDERFLOW) ** 0.5
    lo = sq**0.5 / (2.0 * math.sqrt(min(rows, cols)))
    return lo, hi
