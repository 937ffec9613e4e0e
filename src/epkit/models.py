"""Diagonal model families: finite truncations of classical sequence-space operators.

Four families, all realized as diagonal matrices so every metric is
analytically forced:

- ``mult_inv_sqrt``: multiplication by 1/sqrt(t) on a uniform midpoint grid
  of (0, 1]; all entries are at least 1, so every truncation is invertible.
- ``diag_n``: diag(1, 2, ..., n); gamma stays 1 while the spectral radius
  grows, a family with a uniform spectral gap at 0.
- ``diag_alternating``: entries k for even k and 1/k for odd k, so gamma
  decays along the odd slots while the norm grows along the even ones.
- ``diag_harmonic_truncated``: diag(1, 1/2, ..., 1/n); every truncation is
  EP with gamma = 1/n and pseudoinverse norm n.  ``harmonic_truncation(n, N)``
  pads it with zeros to an ambient dimension N >= n, where the truncations
  converge in norm while their pseudoinverse norms grow without bound: the
  canonical witness that the EP class is not closed under norm limits.

``limit_study`` factors each truncation once and computes only the four
values a row holds: gamma and the EP verdict come from one full SVD, the
spectral radius from the eigenvalue kernel, and the pseudoinverse norm is
an exact ``norm2``.  Every truncation has full rank, so it gets its EP
verdict from its rank (see ``classify.range_corange_test``) and costs one
full SVD, one singular-value-only one (the pseudoinverse norm), one
eigenvalue call and no inclusion products.

Truncation means leading principal submatrix; the midpoint grid avoids the
t = 0 singularity by construction.  The unbounded growth families (diag_n,
the even slots of diag_alternating) model operators whose natural domain is
a proper dense subspace; a finite truncation always acts on the whole space,
so domain questions are out of scope here and only the spectral data is
studied.
"""

from __future__ import annotations

import numpy as np

from .classify import range_corange_test
from .core import DEFAULT_TOL, MAX_DIM, ToleranceConfig, norm2, svd
from .errors import InvalidDimension, InvalidSpec
from .pinv import pseudoinverse_of, reduced_min_modulus_of, spectral_radius

# Each family's diagonal, from k = (1, ..., n) as floats and n.
_DIAGONALS = {
    "mult_inv_sqrt": lambda k, n: 1.0 / np.sqrt((k - 0.5) / n),
    "diag_n": lambda k, n: k,
    "diag_alternating": lambda k, n: np.where(k % 2 == 0, k, 1.0 / k),
    "diag_harmonic_truncated": lambda k, n: 1.0 / k,
}
FAMILIES = tuple(_DIAGONALS)


def _require_dim(dim: int) -> None:
    if dim > MAX_DIM:
        raise InvalidDimension(f"truncation of dimension {dim} exceeds the {MAX_DIM} cap")


def diagonal_entries(family: str, n: int) -> np.ndarray:
    """The prescribed diagonal for truncation parameter n (real, length n <= MAX_DIM)."""
    diagonal = _DIAGONALS.get(family)
    if diagonal is None:
        raise InvalidSpec(f"unknown model family {family!r}; known: {', '.join(FAMILIES)}")
    if n < 1:
        raise InvalidDimension(f"truncation parameter must be >= 1, got {n}")
    _require_dim(n)
    return diagonal(np.arange(1, n + 1, dtype=float), n)


def realize(family: str, n: int) -> np.ndarray:
    """The family's n-th truncation as a dense complex diagonal matrix."""
    return np.diag(diagonal_entries(family, n)).astype(np.complex128)


def limit_study(
    family: str, n_max: int, tol: ToleranceConfig = DEFAULT_TOL
) -> list[dict]:
    """Per-truncation metrics for n = 1..n_max.

    Each row records n, gamma, spectral_radius, is_ep, and the pseudoinverse
    norm; for diag_harmonic_truncated the gamma column is exactly 1/n while
    every truncation stays EP, and for diag_n gamma is uniformly 1.  One SVD
    of each truncation feeds its gamma, its EP verdict and its pseudoinverse.
    """
    if n_max < 2:
        raise InvalidDimension(f"n_max must be >= 2, got {n_max}")
    # Check every n before the first SVD, so a bad n_max fails at once.
    for n in range(1, n_max + 1):
        diagonal_entries(family, n)
    rows = []
    for n in range(1, n_max + 1):
        m = realize(family, n)
        fact = svd(m, tol)
        rows.append(
            {
                "n": n,
                "gamma": reduced_min_modulus_of(fact),
                "spectral_radius": spectral_radius(m, tol),
                "is_ep": range_corange_test(fact, tol)[0],
                "pinv_norm": norm2(pseudoinverse_of(fact)),
            }
        )
    return rows


def harmonic_truncation(n: int, ambient_dim: int) -> np.ndarray:
    """diag(1, 1/2, ..., 1/n, 0, ..., 0) in a fixed ambient dimension."""
    if ambient_dim < n:
        raise InvalidDimension(
            f"ambient dimension {ambient_dim} is smaller than truncation {n}"
        )
    _require_dim(ambient_dim)
    entries = np.zeros(ambient_dim)
    entries[:n] = diagonal_entries("diag_harmonic_truncated", n)
    return np.diag(entries).astype(np.complex128)
