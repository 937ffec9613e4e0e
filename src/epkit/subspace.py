"""Orthonormal bases, orthogonal projectors, and subspace comparisons.

Subspaces here always arise from one shared SVD per matrix, which keeps the
range / null / carrier bases mutually consistent: a single rank decision
feeds all three.  Inclusion has one rule, ``columns_included``
(||(I - P_B) V_A|| <= eq_atol), shared by ``subspace_leq``, ``subspace_eq``
and the EP test; projector gaps are numbers for reports.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    DEFAULT_TOL,
    SvdFactorization,
    ToleranceConfig,
    norm2,
    norm2_at_most,
    svd,
)
from .errors import DimensionMismatch


@dataclass(frozen=True, eq=False)
class OrthonormalBasis:
    """Columns of ``vectors`` form an orthonormal basis of a subspace.

    ``vectors`` has shape (ambient_dim, k); k = 0 encodes the zero subspace.
    """

    ambient_dim: int
    vectors: np.ndarray

    def __post_init__(self) -> None:
        if self.vectors.ndim != 2 or self.vectors.shape[0] != self.ambient_dim:
            raise DimensionMismatch(
                f"basis vectors of shape {self.vectors.shape} do not sit in "
                f"ambient dimension {self.ambient_dim}"
            )

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]


@dataclass(frozen=True, eq=False)
class Projector:
    """Orthogonal projector: idempotent and self-adjoint within eq_atol."""

    matrix: np.ndarray

    def idempotency_residual(self) -> float:
        return norm2(self.matrix @ self.matrix - self.matrix)

    def selfadjointness_residual(self) -> float:
        return norm2(self.matrix - self.matrix.conj().T)


def range_basis_of(fact: SvdFactorization) -> OrthonormalBasis:
    return OrthonormalBasis(fact.rows, fact.range_vectors())


def null_basis_of(fact: SvdFactorization) -> OrthonormalBasis:
    return OrthonormalBasis(fact.cols, fact.null_vectors())


def carrier_basis_of(fact: SvdFactorization) -> OrthonormalBasis:
    return OrthonormalBasis(fact.cols, fact.carrier_vectors())


def range_basis(matrix, tol: ToleranceConfig = DEFAULT_TOL) -> OrthonormalBasis:
    """Orthonormal basis of the range (left singular vectors above cutoff)."""
    return range_basis_of(svd(matrix, tol))


def null_basis(matrix, tol: ToleranceConfig = DEFAULT_TOL) -> OrthonormalBasis:
    """Orthonormal basis of the null space (right singular vectors at/below cutoff)."""
    return null_basis_of(svd(matrix, tol))


def carrier_basis(matrix, tol: ToleranceConfig = DEFAULT_TOL) -> OrthonormalBasis:
    """Orthonormal basis of the carrier, the orthocomplement of the null space."""
    return carrier_basis_of(svd(matrix, tol))


def projector(basis: OrthonormalBasis) -> Projector:
    """Orthogonal projector P = V V* onto the basis span."""
    v = basis.vectors
    if basis.dim == 0:
        return Projector(np.zeros((basis.ambient_dim, basis.ambient_dim), dtype=np.complex128))
    return Projector(v @ v.conj().T)


def columns_included(a: np.ndarray, b: np.ndarray, atol: float):
    """||(I - B B*) A|| <= atol for orthonormal columns A and B, or per pair of a stack.

    The one inclusion rule: ``subspace_leq`` and the EP decision both call
    it.  A needs at least one column.  The residual feeds nothing but the
    verdict, so norm2_at_most decides it.
    """
    return norm2_at_most(a - b @ (b.conj().swapaxes(-1, -2) @ a), atol)


def subspace_leq(
    a: OrthonormalBasis, b: OrthonormalBasis, tol: ToleranceConfig = DEFAULT_TOL
) -> bool:
    """True iff span(A) is contained in span(B) within eq_atol.

    The zero subspace is contained in everything.
    """
    _require_same_ambient(a, b)
    return a.dim == 0 or columns_included(a.vectors, b.vectors, tol.eq_atol)


def subspace_eq(
    a: OrthonormalBasis, b: OrthonormalBasis, tol: ToleranceConfig = DEFAULT_TOL
) -> bool:
    """True iff the spans coincide (inclusion both ways).

    For spans of equal dimension, both residuals equal ||P_A - P_B|| in
    exact arithmetic; spans of different dimension are never equal.
    """
    return subspace_leq(a, b, tol) and subspace_leq(b, a, tol)


def projector_gap(a: OrthonormalBasis, b: OrthonormalBasis) -> float:
    """||P_A - P_B||, the projector distance between the two spans."""
    _require_same_ambient(a, b)
    return norm2(projector(a).matrix - projector(b).matrix)


def _require_same_ambient(a: OrthonormalBasis, b: OrthonormalBasis) -> None:
    if a.ambient_dim != b.ambient_dim:
        raise DimensionMismatch(
            f"ambient dimensions differ: {a.ambient_dim} vs {b.ambient_dim}"
        )
