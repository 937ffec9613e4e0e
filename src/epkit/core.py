"""Dense matrix kernels: adjoint, products, SVD, eigendecompositions.

Everything downstream (subspaces, pseudoinverses, classification, theorem
verifiers) funnels through the factorizations in this module so that rank
decisions stay mutually consistent.  LAPACK, via numpy, supplies the
similarity-reduction iterations; the test suite pins accuracy against
independent characteristic-polynomial and residual oracles.

``singular_values`` is the values-only SVD of one matrix, with the numerical
rank under the same cutoff as ``svd``: a caller that needs no singular
vectors reads the rank and gamma from it at about half the cost of the full
factorization.  A diagonal input, one with no nonzero entry off its diagonal
(``_is_diagonal``), costs ``singular_values`` no LAPACK call: its singular
values are its sorted |entries| (``_diagonal_singular_values``, the one
statement of that rule, which ``models.limit_study`` applies to a block of
truncations' diagonals, one row each, without building a matrix).
``svd``, ``eigenvalues`` and ``norm2`` run LAPACK on every input.  This
module is the only one that calls ``np.linalg.svd``, ``eigvals``, ``eig``,
``qr``, ``eigh``, ``eigvalsh`` or ``inv`` (``tests/test_kernel_module.py``).

``_lockstep`` is the one code path that stacks matrices for LAPACK.  It
drives step generators side by side: each yields requests for SVDs,
values-only SVDs, norms or the Haar unitaries of Gaussian blocks, and one
round's requests of one kind, shape and dtype go to the per-call kernel
of that kind (``_svd_call``, ``_singular_values_call``, ``_norm2_call``,
``_haar_call``) in stacks of at most max(1, _STACK_ENTRIES // (rows *
cols)) matrices.  So independent problems, the trials of a verifier run
and the draws of its generators among them, share LAPACK calls (batched
dense linear algebra) and no factorization: LAPACK factors each matrix of
a stack alone, so a stacked result has the bits of the single-matrix
call.  What a stack saves is numpy's per-call cost, which at dim 8 is
about that of the factorization, and the SVD kinds check their input for
non-finite entries once per call, not per matrix.  ``svd``,
``singular_values`` and ``norm2`` run the same kernels on a stack of one,
so each SVD kind has one LAPACK call site; they validate one matrix, and
a 3-D array raises InvalidDimension.  ``harness.gen_matrix`` drives its
one draw alone.  ``eigenvalues``, ``hermitian_eig`` and ``norm2_at_most``
stay one matrix per call.

``norm2`` is the package's only spectral norm: it reads sigma_1 from the
singular-value-only kernel, the same routine and the same bits as
``np.linalg.norm(x, 2)`` without that function's axis handling.

A spectral norm that feeds only a yes/no threshold check goes through
``norm2_at_most`` instead, which takes one matrix, brackets its norm by the
Frobenius norm and runs the SVD only when the bracket straddles the
threshold; its verdict is the exact one.  Here that is
``require_hermitian``, the one Hermitian check (``hermitian_eig`` and
``harness.psd_dominates`` call it), and the PSD threshold on ||A|| of
``psd_dominates``; in ``classify`` the EP and normality checks.  Every
spectral norm that reaches a report is an exact ``norm2``, except a model
row's pseudoinverse norm, which ``models.limit_study`` reads
as 1/gamma from the truncation's diagonal, with no matrix built.

Validation keeps real matrices real: input whose dtype is real, integer or
bool becomes float64 and takes the real LAPACK kernels (dgesdd, dgeev,
dgemm), which cost a fraction of the complex ones; every other input
becomes complex128.  The rule reads the dtype, never the values, so a
complex array with zero imaginary part stays complex.  ``eigenvalues``
returns complex128 either way.

All functions are pure: inputs are validated, never mutated, and no
returned array aliases an input.  Values are safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConvergenceFailure,
    DimensionMismatch,
    InvalidDimension,
    InvalidSpec,
    NotHermitian,
    NotSquare,
)

# Desk-scale verifier, not an HPC kernel.
MAX_DIM = 256


def require_int(name: str, value) -> None:
    """Reject a count that is not an integer; numpy integers pass, bool does not."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InvalidSpec(f"{name} must be an integer, got {value!r}")


def require_real(name: str, value, error: type[Exception] = InvalidSpec) -> None:
    """Raise ``error`` for a value that is not a real number; numpy reals pass, bool does not."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise error(f"{name} must be a real number, got {value!r}")


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
        for name, value in (("rank_rtol", self.rank_rtol), ("eq_atol", self.eq_atol)):
            require_real(name, value)
            if not 0.0 < value < 1.0:
                raise InvalidSpec(f"{name} must lie in (0, 1), got {value}")


DEFAULT_TOL = ToleranceConfig()


def as_matrix(values) -> np.ndarray:
    """Validate and normalize input into a fresh 2-D array.

    The array is float64 when the input's dtype is real, integer or bool,
    and complex128 otherwise, whatever the values.  Rejects non-2-D input,
    empty axes, dimensions beyond MAX_DIM, and non-finite entries.
    """
    m = np.asarray(values)
    m = np.array(m, dtype=np.float64 if m.dtype.kind in "biuf" else np.complex128, copy=True)
    if m.ndim != 2:
        raise InvalidDimension(f"expected a 2-D matrix, got ndim={m.ndim}")
    if m.size == 0:
        raise InvalidDimension(f"matrix axes must be positive, got {m.shape}")
    require_within_cap(m.shape)
    return _require_finite(m)


def require_within_cap(shape: tuple[int, int]) -> None:
    """Reject a matrix shape with an axis beyond MAX_DIM."""
    rows, cols = shape
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
    orthonormal bases of the four fundamental subspaces: ``range_vectors``,
    ``null_vectors`` and ``carrier_vectors`` return them as (n, k) arrays,
    k = 0 for the zero subspace, the form in which ``subspace`` takes and
    returns every basis.
    """

    left_vectors: np.ndarray
    singular_values: np.ndarray
    right_vectors: np.ndarray
    numerical_rank: int

    @property
    def rows(self) -> int:
        return self.left_vectors.shape[0]

    @property
    def cols(self) -> int:
        return self.right_vectors.shape[0]

    def range_vectors(self) -> np.ndarray:
        """Orthonormal columns spanning the range (column space)."""
        return self.left_vectors[:, : self.numerical_rank].copy()

    def null_vectors(self) -> np.ndarray:
        """Orthonormal columns spanning the null space."""
        return self.right_vectors[:, self.numerical_rank :].copy()

    def carrier_vectors(self) -> np.ndarray:
        """Orthonormal columns spanning the carrier (orthocomplement of the null space)."""
        return self.right_vectors[:, : self.numerical_rank].copy()


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
    """Full SVD of one matrix, with rank thresholded at rank_rtol * sigma_1.

    Validates as as_matrix.  The zero matrix yields numerical_rank 0 (empty
    range basis).  Raises ConvergenceFailure if the underlying iteration
    does not converge, or if sigma_1 is not finite, as on finite entries
    near the float maximum: an infinite cutoff would count rank 0.  Runs
    the kernel of ``_lockstep``'s "svd" requests on a stack of one.
    """
    return _svd_call(as_matrix(matrix)[None], tol)[0]


def _svd_call(stack: np.ndarray, tol: ToleranceConfig) -> list[SvdFactorization]:
    """The ``svd`` of each matrix of a stack, by one LAPACK call.

    When LAPACK does not converge on a stack of several matrices, each is
    factored again alone, by ``svd``.  A single matrix it does not converge
    on is factored through its adjoint, M* = V S U*, and only a matrix
    whose adjoint fails too raises ConvergenceFailure.  A call that
    converges takes neither path, so it keeps its bits.
    """
    try:
        u, s, v = _full_svd(stack)
    except np.linalg.LinAlgError as exc:
        if len(stack) > 1:
            return [svd(m, tol) for m in stack]
        try:
            v, s, u = _full_svd(stack.conj().swapaxes(1, 2))
        except np.linalg.LinAlgError:
            raise ConvergenceFailure(f"SVD did not converge for shape {stack.shape[1:]}") from exc
    _require_finite_sigma1(s, stack)
    return [
        SvdFactorization(
            left_vectors=u[i], singular_values=s[i], right_vectors=v[i], numerical_rank=rank
        )
        for i, rank in enumerate(_numerical_ranks(s, tol))
    ]


def _full_svd(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(u, s, v)``, M = U S V*, for each matrix M of a stack, by one LAPACK call."""
    u, s, vh = np.linalg.svd(stack, full_matrices=True)
    return u, s, vh.conj().swapaxes(1, 2)


def singular_values(matrix, tol: ToleranceConfig = DEFAULT_TOL) -> tuple[np.ndarray, int]:
    """``(s, rank)``: the singular values of one matrix, without vectors, and its rank.

    s is sorted non-increasing and the rank is thresholded as by ``svd``.
    A diagonal input, one with no nonzero entry off its diagonal, gets its
    |entries| sorted, with no LAPACK call; LAPACK's values-only kernel
    agrees with them within two ulps, and bit for bit on the diagonals of
    ``models``.  Any other input takes that kernel (dqds), which costs about
    half the full one and does not perturb the values the way the vector
    route does.  Validates as as_matrix; raises ConvergenceFailure if the
    iteration does not converge or sigma_1 is not finite, as ``svd`` does.
    Runs the kernel of ``_lockstep``'s "values" requests on a stack of one.
    """
    return _singular_values_call(as_matrix(matrix)[None], tol)[0]


def _singular_values_call(stack: np.ndarray, tol: ToleranceConfig) -> list[tuple[np.ndarray, int]]:
    """The ``singular_values`` of each matrix of a stack, by at most one LAPACK call.

    Each matrix takes the diagonal route or not on its own; the others go
    to LAPACK together.
    """
    diagonal = [_is_diagonal(m) for m in stack]
    if any(diagonal):
        dense = [not d for d in diagonal]
        lapack = iter(_values_only(stack[dense]) if any(dense) else ())
        s = np.array([
            _diagonal_singular_values(m.diagonal()) if d else next(lapack)
            for m, d in zip(stack, diagonal)
        ])
    else:
        s = _values_only(stack)
    _require_finite_sigma1(s, stack)
    return list(zip(s, _numerical_ranks(s, tol)))


def _require_finite_sigma1(s: np.ndarray, stack: np.ndarray) -> None:
    """Raise ConvergenceFailure unless every row of s, sorted singular values, starts finite.

    One vectorized check per LAPACK call.  Finite entries can give an
    infinite sigma_1 (two entries of 1.5e308 in one row), and the rank
    cutoff rank_rtol * sigma_1 would then count nothing.
    """
    if not np.isfinite(s[:, 0]).all():
        raise ConvergenceFailure(f"SVD gave a non-finite sigma_1 for shape {stack.shape[1:]}")


# One LAPACK call takes at most max(1, _STACK_ENTRIES // (rows * cols))
# matrices (``_lockstep``): a whole window at dim 8, one matrix at dim 256.
_STACK_ENTRIES = 2**16


def _lockstep(steps, tol: ToleranceConfig = DEFAULT_TOL) -> list:
    """Run step generators side by side; return what each returns, in order.

    A step generator yields requests ``(kind, matrices)`` and is sent the
    list of their results, in order.  Kind "svd", "values" or "norm" takes
    2-D arrays and answers with their ``svd``, ``singular_values`` or
    ``norm2``; kind "haar" takes the (re, im) parts, (2, n, n), of Gaussian
    blocks and answers with their Haar unitaries (``_haar_call``).  Each
    round advances every unfinished generator, in order, to its next
    request, then hands all the round's matrices of one kind, shape and
    dtype to the kernel of that kind, in calls of at most max(1,
    _STACK_ENTRIES // (rows * cols)) of them, rows x cols being the matrix
    that LAPACK factors.  Real and complex matrices never share a call,
    which would move the real ones to the complex kernel and change their
    bits.  LAPACK factors each matrix of a stack alone, so a generator gets
    the bits it gets when driven alone; one generator driven alone is the
    one-element case.
    """
    # Looked up at each run, so that a test can patch a kernel.
    kernels = {
        "svd": lambda stack: _svd_call(_require_finite(stack), tol),
        "values": lambda stack: _singular_values_call(_require_finite(stack), tol),
        "norm": _norm2_call,
        "haar": _haar_call,
    }
    steps = list(steps)
    returns = [None] * len(steps)
    answers = dict.fromkeys(range(len(steps)))
    while answers:
        requests = {}
        for i in list(answers):
            try:
                requests[i] = steps[i].send(answers.pop(i))
            except StopIteration as stop:
                returns[i] = stop.value
        groups: dict[tuple, list] = {}
        for i, (kind, matrices) in requests.items():
            if kind not in kernels:
                raise ValueError(f"unknown request kind {kind!r}")
            for j, m in enumerate(matrices):
                groups.setdefault((kind, m.shape, m.dtype), []).append((i, j))
        answers = {i: [None] * len(matrices) for i, (_, matrices) in requests.items()}
        for (kind, shape, _), slots in groups.items():
            per_call = max(1, _STACK_ENTRIES // math.prod(shape[-2:]))
            for start in range(0, len(slots), per_call):
                call = slots[start : start + per_call]
                # No local holds a call's stack or results into the next
                # round, where a generator may drop them.
                results = kernels[kind](np.array([requests[i][1][j] for i, j in call]))
                for (i, j), result in zip(call, results):
                    answers[i][j] = result
                del results
    return returns


def _require_finite(stack: np.ndarray) -> np.ndarray:
    """Return the array, or raise ValueError if an entry is NaN or infinite."""
    if not np.isfinite(stack).all():  # complex entries: both parts finite
        raise ValueError("matrix entries must be finite (no NaN/Inf)")
    return stack


def _values_only(stack: np.ndarray) -> np.ndarray:
    """The singular values of each matrix of a stack, one row each, by one LAPACK call."""
    try:
        return np.linalg.svd(stack, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"SVD did not converge for shape {stack.shape[1:]}") from exc


def _diagonal_singular_values(d: np.ndarray) -> np.ndarray:
    """The singular values of the diagonal matrix with entries d: |d| sorted non-increasing.

    Along the last axis, so each row of a 2-D d gives the values of its own diagonal.
    """
    return np.sort(np.abs(d))[..., ::-1]


def _is_diagonal(m: np.ndarray) -> bool:
    """Whether m, square or not, has no nonzero entry off its diagonal."""
    return np.count_nonzero(m) == np.count_nonzero(m.diagonal())


def _numerical_ranks(s: np.ndarray, tol: ToleranceConfig) -> list[int]:
    """For each row of a stack s of sorted singular values, how many exceed rank_rtol * sigma_1.

    One vectorized count; ``models.limit_study`` hands it a block of model
    rows, each padded with zeros, which never pass the strict cutoff.
    All-zero singular values (the zero matrix) count nothing above 0.
    """
    return (s > tol.rank_rtol * s[:, :1]).sum(axis=1).tolist()


def _gamma(s: np.ndarray, r: int) -> float:
    """Reduced minimum modulus s[r - 1] from sorted singular values s and rank r; 0.0 at rank 0."""
    return float(s[r - 1]) if r else 0.0


def _pinv_norm(gamma: float) -> float:
    """||T+|| = 1 / gamma(T) from T's reduced minimum modulus; 0.0 when gamma is 0 (T = 0)."""
    return 1.0 / gamma if gamma > 0 else 0.0


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


def _hermitian_eigenvalues(h: np.ndarray) -> np.ndarray:
    """The eigenvalues of (H + H*) / 2, non-decreasing.  No validation, as norm2."""
    try:
        return np.linalg.eigvalsh((h + h.conj().T) / 2.0)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"eigvalsh did not converge for shape {h.shape}") from exc


def _inverse(m: np.ndarray) -> np.ndarray:
    """The inverse of one square matrix.  No validation, as norm2."""
    try:
        return np.linalg.inv(m)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"LU found a singular matrix of shape {m.shape}") from exc


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


def eigenvalues(matrix) -> np.ndarray:
    """All eigenvalues of a square matrix, in a canonical deterministic order.

    Sorted by descending real part, then descending imaginary part; the
    result is a complex128 multiset, also for a real matrix, so only the
    multiset is contractual.  Every input takes LAPACK's general kernel.
    """
    m = require_square(as_matrix(matrix))
    try:
        vals = np.linalg.eigvals(m).astype(np.complex128, copy=False)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(
            f"eigenvalue iteration did not converge for shape {m.shape}"
        ) from exc
    order = np.lexsort((-vals.imag, -vals.real))
    return vals[order].copy()


def norm2(x: np.ndarray) -> float:
    """Spectral norm of one matrix.

    No validation: callers pass 2-D arrays they built.  Same bits as
    np.linalg.norm(x, 2), which runs the same kernel.  Raises
    ConvergenceFailure if the iteration does not converge, as on an array
    that holds NaN, or if sigma_1 is not finite, as on one that holds inf:
    a norm is never NaN or inf.  Runs the kernel of ``_lockstep``'s "norm"
    requests on a stack of one.
    """
    return _norm2_call(np.asarray(x)[None])[0]


def _norm2_call(stack: np.ndarray) -> list[float]:
    """The ``norm2`` of each matrix of a stack, by one LAPACK call."""
    norms = _values_only(stack)[:, 0].tolist()
    if not all(map(math.isfinite, norms)):
        raise ConvergenceFailure(f"SVD gave a non-finite norm for shape {stack.shape[1:]}")
    return norms


def _haar_call(stack: np.ndarray) -> np.ndarray:
    """Haar unitaries from a stack of Gaussian blocks' (re, im) parts, by one QR call.

    Each block, (2, n, n), stands for the standard complex Gaussian matrix
    (re + 1j im) / sqrt 2, and each Q takes the phases of its R's diagonal
    (Mezzadri, Notices AMS 54, 2007); an exact zero on that diagonal takes
    phase 1.  LAPACK factors each block of the stack on its own, so a
    block's unitary has the same bits in every stack.
    """
    q, r = np.linalg.qr((stack[:, 0] + 1j * stack[:, 1]) / np.sqrt(2.0))
    d = np.diagonal(r, axis1=-2, axis2=-1)
    mag = np.abs(d)
    phases = np.where(mag > 0, d / np.where(mag > 0, mag, 1.0), 1.0)
    return q * phases.conj()[..., None, :]


def operator_norm(matrix) -> float:
    """Spectral norm (largest singular value); 0.0 for the zero matrix."""
    return norm2(as_matrix(matrix))


def norm2_at_most(x: np.ndarray, bound, norm_of: np.ndarray | None = None) -> bool:
    """Decide ``norm2(x) <= bound`` for one matrix.

    With ``norm_of``, ``bound`` is a non-decreasing function and the test is
    ``norm2(x) <= bound(norm2(norm_of))``.

    The verdict is always that of the exact test.  Since ||X||_2 <= ||X||_F
    <= sqrt(k) ||X||_2 with k = min(rows, cols), the Frobenius norm settles
    every threshold it clears by a factor 2, and the SVD runs only when it
    leaves the test open.  No validation, as norm2.
    """
    lo, hi = _norm2_bracket(x)
    if norm_of is None:
        low = high = bound
    else:
        m_lo, m_hi = _norm2_bracket(norm_of)
        low, high = bound(m_lo), bound(m_hi)
    if hi <= low:
        return True
    if lo > high:
        return False
    exact = bound if norm_of is None else bound(norm2(norm_of))
    return bool(norm2(x) <= exact)


# What gradual underflow can drop from one squared entry.
_UNDERFLOW = 2.0**-1074


def _norm2_bracket(x: np.ndarray):
    """``(lo, hi)`` with lo < norm2(x) < hi, both NaN where unknown.

    From the Frobenius norm F: hi = 2F and lo = F / (2 sqrt(k)).  The factor
    2 dwarfs the rounding of the sum and of the SVD, and of a squared entry
    that underflows to a subnormal; hi also covers entries whose squares
    underflow to 0.  An overflowed sum gives NaN, which decides nothing.
    """
    sq = np.vdot(x, x).real
    if not math.isfinite(sq):
        sq = math.nan
    rows, cols = x.shape
    hi = 2.0 * (sq + rows * cols * _UNDERFLOW) ** 0.5
    lo = sq**0.5 / (2.0 * math.sqrt(min(rows, cols)))
    return lo, hi
