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

Every truncation is a real float64 diagonal.  The tests check that each
row equals, bit for bit, the row of the same matrix cast to complex128.

``limit_study`` computes only the four values a row holds, and reads them
from the truncation's diagonal d at every rank cutoff; it builds no n x n
matrix and calls no LAPACK routine.  It reads a block of truncations at a
time, at most ``_BLOCK_ENTRIES`` entries: one array whose row i is the
diagonal of truncation n_i, padded with zeros to the block's last
truncation.  A diagonal's singular values are its |entries| sorted
(``core._diagonal_singular_values``, the rule ``core.singular_values``
applies to a diagonal matrix, here along each row); they give the rank and
gamma, the smallest singular value above the cutoff, and gamma is exact.  A
padding zero sorts below every entry and never passes the strict cutoff, so
it moves no row's rank, gamma or max |d|.  A diagonal's eigenvalues are its
entries, so the spectral radius is max |d|, the largest singular value.
The pseudoinverse norm is 1/gamma, since T+ = V S+ U* has sigma_1 =
1/sigma_r.  Every row is EP: D and D* are both spanned by the coordinate
vectors of the entries above the cutoff, and entries of equal modulus are
kept or dropped together, because the cutoff is strict.  The tests check
every row, bit for bit, against the dense route (``realize``, then
``core.singular_values`` and ``pinv.spectral_radius``), whose values equal
LAPACK's, and for n <= 64 each EP verdict against
``classify.range_corange_test`` on a full SVD.

Truncation means leading principal submatrix; the midpoint grid avoids the
t = 0 singularity by construction.  The unbounded growth families (diag_n,
the even slots of diag_alternating) model operators whose natural domain is
a proper dense subspace; a finite truncation always acts on the whole space,
so domain questions are out of scope here and only the spectral data is
studied.
"""

from __future__ import annotations

import numpy as np

from .core import (
    DEFAULT_TOL,
    MAX_DIM,
    ToleranceConfig,
    _diagonal_singular_values,
    _gamma,
    _numerical_ranks,
    require_int,
)
from .errors import InvalidDimension, InvalidSpec

# Each family's diagonal, from k = (1, ..., n) as floats and n, elementwise
# in (k, n), so a grid of k against a column of n gives one row per n.
_DIAGONALS = {
    "mult_inv_sqrt": lambda k, n: 1.0 / np.sqrt((k - 0.5) / n),
    "diag_n": lambda k, n: k,
    "diag_alternating": lambda k, n: np.where(k % 2 == 0, k, 1.0 / k),
    "diag_harmonic_truncated": lambda k, n: 1.0 / k,
}
FAMILIES = tuple(_DIAGONALS)

# ``limit_study`` reads a block of truncations as one array of at most this
# many entries, 32 rows of at most MAX_DIM, at every n_max.  One block of all
# 256 rows would peak at 1.6 MB of arrays instead of 0.3 MB, and is no faster.
_BLOCK_ENTRIES = 2**13


def _require_dim(dim: int) -> None:
    if dim > MAX_DIM:
        raise InvalidDimension(f"truncation of dimension {dim} exceeds the {MAX_DIM} cap")


def diagonal_entries(family: str, n: int) -> np.ndarray:
    """The prescribed diagonal for truncation parameter n (real, length n <= MAX_DIM)."""
    diagonal = _DIAGONALS.get(family)
    if diagonal is None:
        raise InvalidSpec(f"unknown model family {family!r}; known: {', '.join(FAMILIES)}")
    require_int("n", n)
    if n < 1:
        raise InvalidDimension(f"truncation parameter must be >= 1, got {n}")
    _require_dim(n)
    return diagonal(np.arange(1, n + 1, dtype=float), n)


def realize(family: str, n: int) -> np.ndarray:
    """The family's n-th truncation as a dense real (float64) diagonal matrix."""
    return np.diag(diagonal_entries(family, n))


def limit_study(
    family: str, n_max: int, tol: ToleranceConfig = DEFAULT_TOL
) -> list[dict]:
    """Per-truncation metrics for n = 1..n_max.

    Each row records n, gamma, spectral_radius, is_ep, and the pseudoinverse
    norm; for diag_harmonic_truncated the gamma column is exactly 1/n while
    every truncation stays EP, and for diag_n gamma is uniformly 1.  Each
    row is read from the truncation's diagonal d at any ``rank_rtol``: its
    sorted |entries| give the rank and gamma, max |d| is the spectral
    radius, the pseudoinverse norm is 1/gamma (both 0.0 at rank 0), and the
    row is EP, as every diagonal is.  Each block of 32 truncations is read
    at once, as the rows of one zero-padded array.
    """
    require_int("n_max", n_max)
    if n_max < 2:
        raise InvalidDimension(f"n_max must be >= 2, got {n_max}")
    # Fail before the first row; past the cap, name the first truncation over it.
    diagonal_entries(family, min(n_max, MAX_DIM + 1))
    k = np.arange(1, n_max + 1, dtype=float)
    per_block = _BLOCK_ENTRIES // MAX_DIM
    rows = []
    for start in range(1, n_max + 1, per_block):
        n = np.arange(start, min(start + per_block, n_max + 1))[:, None]
        # Row i holds truncation n[i]'s diagonal, padded with zeros to the
        # block's last truncation: a zero sorts below every entry and never
        # passes the strict cutoff, so each row's rank and gamma are its own.
        grid = k[: n[-1, 0]]
        s = _diagonal_singular_values(np.where(grid <= n, _DIAGONALS[family](grid, n), 0.0))
        # A NaN sorts last, so lands in column 0: it is finite only if every entry is.
        if not np.isfinite(s[:, 0]).all():
            raise ValueError("matrix entries must be finite (no NaN/Inf)")
        for size, row, r in zip(n[:, 0].tolist(), s, _numerical_ranks(s, tol)):
            gamma = _gamma(row, r)
            rows.append(
                {
                    "n": size,
                    "gamma": gamma,
                    "spectral_radius": float(row[0]),
                    "is_ep": True,
                    "pinv_norm": 1.0 / gamma if r else 0.0,
                }
            )
    return rows


def harmonic_truncation(n: int, ambient_dim: int) -> np.ndarray:
    """diag(1, 1/2, ..., 1/n, 0, ..., 0) in a fixed ambient dimension, as float64."""
    require_int("n", n)
    require_int("ambient_dim", ambient_dim)
    if ambient_dim < n:
        raise InvalidDimension(
            f"ambient dimension {ambient_dim} is smaller than truncation {n}"
        )
    _require_dim(ambient_dim)
    entries = np.zeros(ambient_dim)
    entries[:n] = diagonal_entries("diag_harmonic_truncated", n)
    return np.diag(entries)
