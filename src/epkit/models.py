"""Diagonal model families: finite truncations of classical sequence-space operators.

Four families, all realized as diagonal matrices so every metric is
analytically forced:

- ``mult_inv_sqrt``: multiplication by 1/sqrt(t) on a uniform midpoint grid
  of (0, 1]; all entries are at least 1, so every truncation is invertible.
- ``diag_n``: diag(1, 2, ..., n); gamma stays 1 while the spectral radius
  grows, a family with a uniform spectral gap at 0.
- ``diag_alternating``: entries k for even k and 1/k for odd k, so gamma
  decays along the odd slots while the norm grows along the even ones.
- ``diag_harmonic_truncated``: diag(1, 1/2, ..., 1/n, 0, ..., 0) embedded in
  an ambient dimension N >= n; every truncation is EP with gamma = 1/n and
  pseudoinverse norm n, the canonical witness that the EP class is not
  closed under norm limits.

``limit_study`` factors each truncation once and computes only the four
values a row holds: gamma and the EP verdict come from one full SVD, the
spectral radius from the eigenvalue kernel, and the pseudoinverse norm is
an exact ``norm2``.  The EP decision is settled by ``core.norm2_at_most``
(see ``classify``), so a truncation of these diagonal families costs one
full SVD and one singular-value-only one, the pseudoinverse norm.

Truncation means leading principal submatrix; the midpoint grid avoids the
t = 0 singularity by construction.  The unbounded growth families (diag_n,
the even slots of diag_alternating) model operators whose natural domain is
a proper dense subspace; a finite truncation always acts on the whole space,
so domain questions are out of scope here and only the spectral data is
studied.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classify import range_corange_test
from .core import DEFAULT_TOL, MAX_DIM, ToleranceConfig, norm2, svd
from .errors import InvalidDimension, InvalidSpec
from .pinv import pseudoinverse_of, reduced_min_modulus_of, spectral_radius

FAMILIES = (
    "mult_inv_sqrt",
    "diag_n",
    "diag_alternating",
    "diag_harmonic_truncated",
)


@dataclass(frozen=True)
class ModelFamily:
    """A family id plus, for the truncated family, a fixed ambient dimension.

    ``ambient_dim`` is meaningful only for diag_harmonic_truncated: when set,
    realize(family, n) embeds the n-term truncation as the leading block of
    an ambient_dim-sized matrix; when None, the ambient dimension follows n.
    """

    family_id: str
    ambient_dim: int | None = None

    def __post_init__(self) -> None:
        if self.family_id not in FAMILIES:
            raise InvalidSpec(
                f"unknown model family {self.family_id!r}; known: {', '.join(FAMILIES)}"
            )
        if self.ambient_dim is not None and self.ambient_dim < 1:
            raise InvalidDimension(f"ambient_dim must be positive, got {self.ambient_dim}")


def _family(family: ModelFamily | str) -> ModelFamily:
    return family if isinstance(family, ModelFamily) else ModelFamily(family)


def diagonal_entries(family: ModelFamily | str, n: int) -> np.ndarray:
    """The prescribed diagonal for truncation parameter n (real, length n to MAX_DIM)."""
    fam = _family(family)
    if n < 1:
        raise InvalidDimension(f"truncation parameter must be >= 1, got {n}")
    k = np.arange(1, n + 1, dtype=float)
    if fam.family_id == "mult_inv_sqrt":
        entries = 1.0 / np.sqrt((k - 0.5) / n)
    elif fam.family_id == "diag_n":
        entries = k
    elif fam.family_id == "diag_alternating":
        entries = np.where(np.arange(1, n + 1) % 2 == 0, k, 1.0 / k)
    else:  # diag_harmonic_truncated
        ambient = fam.ambient_dim if fam.ambient_dim is not None else n
        if ambient < n:
            raise InvalidDimension(
                f"ambient dimension {ambient} is smaller than truncation {n}"
            )
        entries = np.zeros(ambient)
        entries[:n] = 1.0 / k
    if entries.size > MAX_DIM:
        raise InvalidDimension(
            f"truncation of dimension {entries.size} exceeds the {MAX_DIM} cap"
        )
    return entries


def realize(family: ModelFamily | str, n: int) -> np.ndarray:
    """The family's n-th truncation as a dense complex diagonal matrix."""
    return np.diag(diagonal_entries(family, n)).astype(np.complex128)


def limit_study(
    family: ModelFamily | str, n_max: int, tol: ToleranceConfig = DEFAULT_TOL
) -> list[dict]:
    """Per-truncation metrics for n = 1..n_max.

    Each row records n, gamma, spectral_radius, is_ep, and the pseudoinverse
    norm; for diag_harmonic_truncated the gamma column is exactly 1/n while
    every truncation stays EP, and for diag_n gamma is uniformly 1.  One SVD
    of each truncation feeds its gamma, its EP verdict and its pseudoinverse.
    """
    if n_max < 2:
        raise InvalidDimension(f"n_max must be >= 2, got {n_max}")
    fam = _family(family)
    # Check every n before the first SVD, so a bad n_max fails at once.
    for n in range(1, n_max + 1):
        diagonal_entries(fam, n)
    rows = []
    for n in range(1, n_max + 1):
        m = realize(fam, n)
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
    return realize(ModelFamily("diag_harmonic_truncated", ambient_dim=ambient_dim), n)
