"""Orthonormal bases, orthogonal projectors, and subspace comparisons.

A subspace is an (n, k) array of orthonormal columns, k = 0 for the zero
subspace; a projector is a plain n x n matrix.  Subspaces here always arise
from one shared SVD per matrix (``SvdFactorization.range_vectors`` and its
siblings), which keeps the range / null / carrier bases mutually
consistent: a single rank decision feeds all three.  Inclusion has one
rule, ``columns_included`` (||(I - P_B) V_A|| <= eq_atol), shared by
``subspace_leq``, ``subspace_eq`` and the EP test.  Spans of equal
dimension are equal when one includes the other, so equality, and the EP
test, run one inclusion; projector gaps are numbers for reports.
"""

from __future__ import annotations

import numpy as np

from .core import DEFAULT_TOL, ToleranceConfig, norm2, norm2_at_most, svd
from .errors import DimensionMismatch


def range_basis(matrix, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis of the range (left singular vectors above cutoff)."""
    return svd(matrix, tol).range_vectors()


def null_basis(matrix, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis of the null space (right singular vectors at/below cutoff)."""
    return svd(matrix, tol).null_vectors()


def carrier_basis(matrix, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis of the carrier, the orthocomplement of the null space."""
    return svd(matrix, tol).carrier_vectors()


def projector(v: np.ndarray) -> np.ndarray:
    """Orthogonal projector V V* onto the span of the orthonormal columns of v.

    An (n, 0) basis gives the n x n zero of v's dtype.
    """
    _require_basis(v)
    return v @ v.conj().T


def columns_included(a: np.ndarray, b: np.ndarray, atol: float) -> bool:
    """||(I - B B*) A|| <= atol for orthonormal columns A and B of one ambient space.

    The one inclusion rule: ``subspace_leq`` and the EP decision both call
    it.  A needs at least one column.  The residual feeds nothing but the
    verdict, so norm2_at_most decides it.
    """
    return norm2_at_most(a - b @ (b.conj().T @ a), atol)


def subspace_leq(a: np.ndarray, b: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """True iff span(A) is contained in span(B) within eq_atol.

    The zero subspace is contained in everything.
    """
    _require_same_ambient(a, b)
    return a.shape[1] == 0 or columns_included(a, b, tol.eq_atol)


def subspace_eq(a: np.ndarray, b: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """True iff the spans coincide within eq_atol, decided by one inclusion.

    Spans of different dimension are never equal, and no product is formed.
    For spans of equal dimension, ||(I - P_B) P_A|| = ||(I - P_A) P_B|| =
    ||P_A - P_B|| (Kato, I §6.8), so span(A) inside span(B) decides.
    """
    _require_same_ambient(a, b)
    return a.shape[1] == b.shape[1] and subspace_leq(a, b, tol)


def projector_difference(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """P_A - P_B for two bases of one ambient space; its norm is their projector gap."""
    _require_same_ambient(a, b)
    return projector(a) - projector(b)


def projector_gap(a: np.ndarray, b: np.ndarray) -> float:
    """||P_A - P_B||, the projector distance between the two spans."""
    return norm2(projector_difference(a, b))


def _require_basis(v: np.ndarray) -> None:
    if not isinstance(v, np.ndarray):
        raise DimensionMismatch(f"a basis is an (n, k) array, got {type(v).__name__}")
    if v.ndim != 2:
        raise DimensionMismatch(f"a basis is an (n, k) array, got shape {v.shape}")


def _require_same_ambient(a: np.ndarray, b: np.ndarray) -> None:
    _require_basis(a)
    _require_basis(b)
    if a.shape[0] != b.shape[0]:
        raise DimensionMismatch(f"ambient dimensions differ: {a.shape[0]} vs {b.shape[0]}")
