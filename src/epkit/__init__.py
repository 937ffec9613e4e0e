"""epkit: pseudoinverse, subspace-geometry, and EP-matrix analysis toolkit.

Computes Moore-Penrose pseudoinverses, subspace bases and projectors, polar
decompositions, reduced minimum moduli and spectral radii for dense complex
matrices; classifies matrices as EP / hypo-EP / normal; and verifies a suite
of EP-operator characterizations through seeded property-based checks and
truncation studies of classical diagonal operator families.  A subspace
basis is an (n, k) array of orthonormal columns, k = 0 for the zero
subspace, and a projector is a plain n x n matrix.

The theorem verifiers (``harness``) and the model families (``models``)
load on first use: ``import epkit`` binds their public names through a
module ``__getattr__`` (PEP 562), so a process that only classifies
matrices never imports them.
"""

from importlib import import_module

from .classify import ClassificationReport, classify, is_ep, is_hypo_ep, is_normal
from .core import (
    DEFAULT_TOL,
    MAX_DIM,
    SvdFactorization,
    ToleranceConfig,
    adjoint,
    as_matrix,
    eigenvalues,
    hermitian_eig,
    multiply,
    operator_norm,
    svd,
)
from .errors import (
    ConvergenceFailure,
    DimensionMismatch,
    EpkitError,
    InvalidDimension,
    InvalidExponent,
    InvalidSpec,
    MatrixFileError,
    NotHermitian,
    NotSquare,
    UnknownTheorem,
)
from .pinv import (
    MpIdentityReport,
    PolarFactors,
    direct_sum,
    fractional_abs_power,
    mp_identity_suite,
    penrose_residuals,
    polar_decomposition,
    pseudoinverse,
    reduced_min_modulus,
    spectral_radius,
)
from .serialize import TOOL_VERSION
from .subspace import (
    carrier_basis,
    null_basis,
    projector,
    range_basis,
    subspace_eq,
    subspace_leq,
)

__version__ = TOOL_VERSION

__all__ = [
    "ClassificationReport",
    "ConvergenceFailure",
    "DEFAULT_TOL",
    "DimensionMismatch",
    "EpkitError",
    "FAMILIES",
    "GeneratorSpec",
    "InvalidDimension",
    "InvalidExponent",
    "InvalidSpec",
    "MAX_DIM",
    "MatrixFileError",
    "MpIdentityReport",
    "NotHermitian",
    "NotSquare",
    "PolarFactors",
    "SvdFactorization",
    "THEOREM_IDS",
    "TheoremVerdict",
    "ToleranceConfig",
    "UnknownTheorem",
    "adjoint",
    "as_matrix",
    "carrier_basis",
    "classify",
    "direct_sum",
    "eigenvalues",
    "fractional_abs_power",
    "gen_matrix",
    "harmonic_truncation",
    "hermitian_eig",
    "is_ep",
    "is_hypo_ep",
    "is_normal",
    "limit_study",
    "mp_identity_suite",
    "multiply",
    "null_basis",
    "operator_norm",
    "penrose_residuals",
    "polar_decomposition",
    "projector",
    "pseudoinverse",
    "psd_dominates",
    "range_basis",
    "realize",
    "reduced_min_modulus",
    "run_theorem_check",
    "spectral_radius",
    "subspace_eq",
    "subspace_leq",
    "svd",
]

# Public name -> the submodule that defines it, imported on first access.
_LAZY = {
    **dict.fromkeys(
        (
            "GeneratorSpec",
            "TheoremVerdict",
            "THEOREM_IDS",
            "gen_matrix",
            "psd_dominates",
            "run_theorem_check",
        ),
        "harness",
    ),
    **dict.fromkeys(("FAMILIES", "harmonic_truncation", "limit_study", "realize"), "models"),
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})
