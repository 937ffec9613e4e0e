"""Seeded generators of structured matrices and one verifier per theorem id.

Every verifier runs a batch of independently generated trials and folds the
outcomes into a TheoremVerdict.  Determinism is strict: trial t of a run with
master seed s draws from a generator seeded by (s, verifier index, t), so
results do not depend on execution order, and rerunning with the same seed
reproduces the verdict bit for bit.

Equivalence-style verifiers exercise both directions: accepting instances
from the matching family and rejecting instances from a control family.  A
trial fails when a boolean claim is violated or a residual exceeds ten times
eq_atol at its natural scale; residuals between eq_atol and that threshold
are counted as warnings, not failures.

Sequence verifiers (thm1.5, thm3.2) hold their whole window as one stack of
matrices, a 3-D array with the terms along the leading axis.  One stacked
SVD factors every term, pseudoinverses are assembled per group of equal
rank, and each diagnostic is one stacked norm2 call over only the terms
the verdict reads: the pseudoinverse norms over the whole window, their
gaps to the limit at its two ends, and the last five successive
differences.  Stacked kernels give each term the bits it gets on its own,
so the verdicts and residuals are those of a term-by-term loop.  thm1.5's
harmonic-truncation control draws nothing from the rng, so a run factors
it once and holds it on its ``_Ctx``.

One factorization per matrix feeds every decision about it: its rank, EP
verdict, pseudoinverse, polar factors and subspace bases all come from one
``SvdFactorization``, and a yes/no subspace comparison is ``subspace_eq``,
never a projector gap against eq_atol.  By design, the generators
self-validate each draw with a factorization of their own, the routes that
thm2.1 and thm2.13 compare stay independent, and scales are exact norm2s.

Generation dispatches through one table, ``_GENERATORS``, from family name
to generator; ``gen_matrix`` and the verifiers both index it.  A test that
needs a faulty generator patches an entry of that table for its own run
(``monkeypatch.setitem``); the package itself never mutates module-level
state, so everything a run depends on travels in its arguments and its
``_Ctx``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .core import (
    DEFAULT_TOL,
    MAX_DIM,
    SvdFactorization,
    ToleranceConfig,
    adjoint,
    as_matrix,
    eigenvalues,
    norm2,
    operator_norm,
    require_hermitian,
    svd,
)
from .errors import DimensionMismatch, GenerationError, InvalidSpec, UnknownTheorem
from .classify import classify, is_ep, range_corange_test
from .models import harmonic_truncation
from .pinv import (
    direct_sum,
    fractional_abs_powers_of,
    polar_decomposition,
    polar_decomposition_of,
    pseudoinverse,
    pseudoinverse_of,
    reduced_min_modulus,
    reduced_min_modulus_of,
)
from .serialize import matrix_to_payload
from .subspace import (
    carrier_basis_of,
    null_basis_of,
    projector_gap,
    range_basis_of,
    subspace_eq,
)

SEQUENCE_LENGTH = 50
EP_MEMBERSHIP_DELTA = 0.1
FRACTIONAL_ALPHA_GRID = (0.25, 0.5, 1.0, 1.5, 2.0, 3.0)
# The constant a = b of thm2.16's dominance hypotheses ||Sx|| <= a ||Tx|| and
# ||S*x|| <= b ||T*x||.  It stays below 1 because at a = 1 the hypotheses
# admit S = -T, and T + S = 0 has lost the range of T.
DOMINANCE_BOUND = 0.5


@dataclass(frozen=True)
class GeneratorSpec:
    """Shape, rank, conditioning, seed, and family of generated instances."""

    dim: int
    rank: int
    condition_bound: float = 100.0
    seed: int = 0
    family: str = "ep"

    def __post_init__(self) -> None:
        if self.family not in _GENERATORS:
            raise InvalidSpec(
                f"unknown family {self.family!r}; known: {', '.join(_GENERATORS)}"
            )
        if not 1 <= self.dim <= MAX_DIM:
            raise InvalidSpec(f"dim must be in [1, {MAX_DIM}], got {self.dim}")
        if self.rank < 0 or self.rank > self.dim:
            raise InvalidSpec(f"rank {self.rank} outside [0, dim={self.dim}]")
        if self.condition_bound < 1.0:
            raise InvalidSpec(f"condition_bound must be >= 1, got {self.condition_bound}")
        if not 0 <= self.seed < 2**64:
            raise InvalidSpec("seed must fit in an unsigned 64-bit integer")
        if self.family == "non_ep" and not 1 <= self.rank <= self.dim - 1:
            raise InvalidSpec(
                "non_ep family needs 1 <= rank <= dim - 1: a full-rank square "
                "matrix has equal range and adjoint range"
            )


@dataclass(frozen=True, eq=False)
class MatrixSequence:
    """A finite matrix sequence together with its declared limit."""

    terms: tuple[np.ndarray, ...]
    limit: np.ndarray


@dataclass(frozen=True)
class TheoremVerdict:
    """Aggregated outcome of one verifier over a batch of trials."""

    theorem_id: str
    trials: int
    failures: int
    worst_residual: float
    counterexample: dict | None
    elapsed_ms: int
    warnings: int = 0
    notes: tuple[str, ...] = ()
    details: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if (self.failures == 0) != (self.counterexample is None):
            raise ValueError("counterexample must be present exactly when failures > 0")


# ---------------------------------------------------------------------------
# Random building blocks
# ---------------------------------------------------------------------------


def _haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    phases = np.where(np.abs(d) > 0, d / np.abs(np.where(np.abs(d) > 0, d, 1.0)), 1.0)
    return q * phases.conj()


def _conditioned_invertible(
    rng: np.random.Generator, n: int, condition_bound: float
) -> np.ndarray:
    """Random invertible n x n matrix with condition number <= condition_bound."""
    smax = rng.uniform(0.5, 2.0)
    cond = float(np.exp(rng.uniform(0.0, np.log(max(condition_bound, 1.0)))))
    if n == 1:
        s = np.array([smax])
    else:
        interior = np.exp(rng.uniform(np.log(smax / cond), np.log(smax), size=n - 2))
        s = np.concatenate(([smax], np.sort(interior)[::-1], [smax / cond]))
    u = _haar_unitary(rng, n)
    v = _haar_unitary(rng, n)
    return (u * s) @ v.conj().T


def _embed_conjugated(v: np.ndarray, block: np.ndarray) -> np.ndarray:
    """V blockdiag(block, 0) V* for a unitary V."""
    k = block.shape[0]
    b = np.zeros(v.shape, dtype=np.complex128)
    b[:k, :k] = block
    return v @ b @ v.conj().T


def _gen_ep(rng, dim, rank, cond, tol) -> np.ndarray:
    if rank == 0:
        return np.zeros((dim, dim), dtype=np.complex128)
    block = _conditioned_invertible(rng, rank, cond)
    m = _embed_conjugated(_haar_unitary(rng, dim), block)
    if not is_ep(m, tol):
        raise GenerationError("ep family self-validation failed")
    return m


def _gen_non_ep(rng, dim, rank, cond, tol) -> np.ndarray:
    if not 1 <= rank <= dim - 1:
        raise InvalidSpec("non_ep family needs 1 <= rank <= dim - 1")
    block = np.zeros((rank + 1, rank + 1), dtype=np.complex128)
    block[0, 1] = rng.uniform(0.5, 2.0)
    if rank > 1:
        block[2:, 2:] = _conditioned_invertible(rng, rank - 1, cond)
    m = _embed_conjugated(_haar_unitary(rng, dim), block)
    if is_ep(m, tol):
        raise GenerationError("non_ep family self-validation failed")
    return m


def _gen_normal_ep(rng, dim, rank, cond, tol) -> np.ndarray:
    smax = rng.uniform(0.5, 2.0)
    mags = smax * np.exp(rng.uniform(-np.log(max(cond, 1.0)), 0.0, size=rank))
    phases = np.exp(2j * np.pi * rng.uniform(0.0, 1.0, size=rank))
    lam = np.zeros(dim, dtype=np.complex128)
    lam[:rank] = mags * phases
    v = _haar_unitary(rng, dim)
    m = (v * lam) @ v.conj().T
    if not is_ep(m, tol):
        raise GenerationError("normal_ep family self-validation failed")
    return m


def _random_poly_in(rng, m: np.ndarray, degree: int = 3) -> np.ndarray:
    coeffs = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
    out = coeffs[0] * np.eye(m.shape[0], dtype=np.complex128)
    power = np.eye(m.shape[0], dtype=np.complex128)
    for c in coeffs[1:]:
        power = power @ m
        out = out + c * power
    return out


def _gen_commuting_pair(rng, dim, rank, cond, tol) -> tuple[np.ndarray, np.ndarray]:
    t = _gen_ep(rng, dim, rank, cond, tol)
    s = _random_poly_in(rng, t)
    scale = (1.0 + operator_norm(s)) * (1.0 + operator_norm(t))
    if norm2(s @ t - t @ s) > 10.0 * tol.eq_atol * scale:
        raise GenerationError("commuting_pair self-validation failed")
    return t, s


def _gen_perturbation_pair(
    rng, dim, rank, cond, tol, loose: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """EP base plus a dominated perturbation certified by psd_dominates.

    The scaled construction S = c T certifies both dominance hypotheses
    analytically; the loose construction draws a dense direction, confines
    it to map the carrier into the range, and shrinks it under the reduced
    minimum modulus.
    """
    t = _gen_ep(rng, dim, rank, cond, tol)
    if not loose:
        c = DOMINANCE_BOUND * rng.uniform(0.2, 0.95) * np.exp(2j * np.pi * rng.uniform())
        s = c * t
    else:
        fact = svd(t, tol)
        r = fact.numerical_rank
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        p_range = fact.left_vectors[:, :r] @ fact.left_vectors[:, :r].conj().T
        p_carrier = fact.right_vectors[:, :r] @ fact.right_vectors[:, :r].conj().T
        confined = p_range @ g @ p_carrier
        gamma = reduced_min_modulus_of(fact)
        norm_confined = norm2(confined)
        eps = 0.8 * DOMINANCE_BOUND * gamma / max(norm_confined, 1e-300)
        s = eps * confined
    ta = adjoint(t)
    sa = adjoint(s)
    squared = DOMINANCE_BOUND**2
    if not psd_dominates(squared * (ta @ t), sa @ s, tol) or not psd_dominates(
        squared * (t @ ta), s @ sa, tol
    ):
        raise GenerationError("perturbation_pair dominance certification failed")
    return t, s


def _gen_product_pair(rng, dim, rank, cond, tol) -> tuple[np.ndarray, np.ndarray]:
    s = _gen_ep(rng, dim, rank, cond, tol)
    t = _gen_ep(rng, dim, rank, cond, tol)
    return s, t


def _gen_sequence(rng, dim, rank, cond, tol) -> MatrixSequence:
    t = _gen_ep(rng, dim, rank, cond, tol)
    terms = tuple((1.0 + 1.0 / k) * t for k in range(1, SEQUENCE_LENGTH + 1))
    return MatrixSequence(terms=terms, limit=t)


_GENERATORS = {
    "ep": _gen_ep,
    "non_ep": _gen_non_ep,
    "normal_ep": _gen_normal_ep,
    "commuting_pair": _gen_commuting_pair,
    "perturbation_pair": _gen_perturbation_pair,
    "product_pair": _gen_product_pair,
    "sequence": _gen_sequence,
}


def gen_matrix(
    spec: GeneratorSpec,
    tol: ToleranceConfig = DEFAULT_TOL,
):
    """Generate one instance of the spec's family, deterministically from its seed.

    Returns a matrix, a pair of matrices, or a MatrixSequence depending on
    the family.  Generated instances are self-validated at construction
    (EP instances must classify EP, non-EP instances must not, dominance
    certificates must hold); violations raise GenerationError.
    """
    rng = np.random.default_rng([spec.seed, 0xA5])
    return _GENERATORS[spec.family](rng, spec.dim, spec.rank, spec.condition_bound, tol)


def psd_dominates(a, b, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """True iff A - B is positive semidefinite within eq_atol * (1 + ||A||).

    Both arguments must be Hermitian (within eq_atol) and of equal shape.
    This is the finite-dimensional dominance test behind the perturbation
    hypotheses ||Sx|| <= a ||Tx||.
    """
    am = as_matrix(a)
    bm = as_matrix(b)
    if am.shape != bm.shape:
        raise DimensionMismatch(f"shapes differ: {am.shape} vs {bm.shape}")
    require_hermitian(am, tol, "first argument")
    require_hermitian(bm, tol, "second argument")
    diff = am - bm
    diff = (diff + diff.conj().T) / 2.0
    w = np.linalg.eigvalsh(diff)
    return bool(w[0] >= -tol.eq_atol * (1.0 + operator_norm(am)))


# ---------------------------------------------------------------------------
# Verifier plumbing
# ---------------------------------------------------------------------------


@dataclass
class _Trial:
    ok: bool
    residual: float = 0.0
    warn: bool = False
    direction: str = "accept"
    payload: dict | None = None
    note: str | None = None


@dataclass
class _Ctx:
    spec: GeneratorSpec
    tol: ToleranceConfig
    details: dict = field(default_factory=dict)
    # thm1.5's control: (conditions, diagnostics, limit), computed once a run.
    thm1_5_control: tuple | None = None


def _residual_trial(
    residual: float,
    scale: float,
    tol: ToleranceConfig,
    extra_ok: bool = True,
    direction: str = "accept",
    payload: dict | None = None,
    note: str | None = None,
) -> _Trial:
    fail_at = 10.0 * tol.eq_atol * scale
    ok = extra_ok and residual <= fail_at
    warn = ok and residual > tol.eq_atol * scale
    return _Trial(ok=ok, residual=float(residual), warn=warn, direction=direction,
                  payload=payload, note=note)


def _pass_fail(ok: bool, payload: dict, note: str, direction: str = "accept") -> _Trial:
    """A boolean trial: a pass has residual 0 and no payload, a failure residual 1."""
    if ok:
        return _Trial(True, 0.0, direction=direction)
    return _Trial(False, 1.0, direction=direction, payload=payload, note=note)


def _ctl_rank(spec: GeneratorSpec) -> int:
    return min(max(spec.rank, 1), spec.dim - 1)


def _gen_for(ctx: _Ctx, rng, family: str, cond: float | None = None, **extra):
    """One instance of a family at the run's spec; non_ep is drawn at the control rank.

    ``extra`` reaches the generator as keywords (perturbation_pair's ``loose``).
    """
    spec = ctx.spec
    rank = _ctl_rank(spec) if family == "non_ep" else spec.rank
    c = spec.condition_bound if cond is None else min(cond, spec.condition_bound)
    return _GENERATORS[family](rng, spec.dim, rank, c, ctx.tol, **extra)


def _multiset_gap(xs: np.ndarray, ys: np.ndarray) -> float:
    # Imported here: scipy.optimize costs more start-up time than the rest
    # of epkit, and only thm2.7 needs it.
    from scipy.optimize import linear_sum_assignment

    if xs.size != ys.size:
        raise DimensionMismatch("multisets must have equal cardinality")
    if xs.size == 0:
        return 0.0
    cost = np.abs(xs[:, None] - ys[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


# ---------------------------------------------------------------------------
# Individual theorem checkers
# ---------------------------------------------------------------------------


def _check_thm2_1(ctx: _Ctx, rng, t: int) -> _Trial:
    """EP iff the pseudoinverse commutes: range test vs commutator test."""
    family = "ep" if t % 2 == 0 else "non_ep"
    m = _gen_for(ctx, rng, family)
    rep = classify(m, ctx.tol)
    pred_comm = rep.commutator_residual <= ctx.tol.eq_atol
    expected = family == "ep"
    direction = "accept" if expected else "reject"
    if rep.is_ep != expected or pred_comm != expected:
        return _Trial(
            False, 1.0, direction=direction, payload={"T": m},
            note=(
                f"family={family}: is_ep={rep.is_ep}, "
                f"commutator_residual={rep.commutator_residual:.3e}"
            ),
        )
    if expected:
        scale = 1.0 + operator_norm(m) + (1.0 / rep.gamma if rep.gamma > 0 else 0.0)
        return _residual_trial(rep.commutator_residual, scale, ctx.tol, payload={"T": m})
    return _Trial(True, 0.0, direction="reject")


def _check_thm2_2(ctx: _Ctx, rng, t: int) -> _Trial:
    """Direct sums: EP iff both blocks EP; pinv and gamma distribute over blocks."""
    tol = ctx.tol
    accept = t % 2 == 0
    a = _gen_for(ctx, rng, "ep")
    b = _gen_for(ctx, rng, "ep" if accept else "non_ep")
    d = direct_sum(a, b)
    payload = {"A": a, "B": b}

    fact_a, fact_b, fact_d = svd(a, tol), svd(b, tol), svd(d, tol)
    ep_d = range_corange_test(fact_d, tol)[0]
    block = direct_sum(pseudoinverse_of(fact_a), pseudoinverse_of(fact_b))
    pinv_resid = norm2(pseudoinverse_of(fact_d) - block)
    norm_scale = 1.0 + operator_norm(a) + operator_norm(b)
    pinv_scale = norm_scale + norm2(block)

    gamma_a = reduced_min_modulus_of(fact_a)
    gamma_b = reduced_min_modulus_of(fact_b)
    gamma_ok = True
    gamma_resid = 0.0
    if gamma_a > 0.0 and gamma_b > 0.0:
        gamma_resid = abs(reduced_min_modulus_of(fact_d) - min(gamma_a, gamma_b))
        gamma_ok = gamma_resid <= 1e-12 * norm_scale

    if ep_d != accept:
        return _Trial(False, 1.0, direction="accept" if accept else "reject",
                      payload=payload, note=f"is_ep(A (+) B)={ep_d}, expected {accept}")
    return _residual_trial(
        pinv_resid, pinv_scale, tol, extra_ok=gamma_ok,
        direction="accept" if accept else "reject", payload=payload,
        note=None if gamma_ok else f"gamma law residual {gamma_resid:.3e}",
    )


def _check_thm2_3(ctx: _Ctx, rng, t: int) -> _Trial:
    """EP iff the polar isometry factor is EP."""
    family = "ep" if t % 2 == 0 else "non_ep"
    m = _gen_for(ctx, rng, family)
    u = polar_decomposition(m, ctx.tol).isometry_part
    rep_u = classify(u, ctx.tol)
    expected = family == "ep"
    if rep_u.is_ep != expected:
        return _Trial(False, 1.0, direction="accept" if expected else "reject",
                      payload={"T": m, "U": u},
                      note=f"is_ep(U)={rep_u.is_ep}, expected {expected}")
    if expected:
        return _residual_trial(rep_u.range_gap, 2.0, ctx.tol, payload={"T": m, "U": u})
    return _Trial(True, 0.0, direction="reject")


def _check_thm2_4(ctx: _Ctx, rng, t: int) -> _Trial:
    """EP iff range equals carrier (the invertible-corner block form)."""
    family = "ep" if t % 2 == 0 else "non_ep"
    m = _gen_for(ctx, rng, family)
    fact = svd(m, ctx.tol)
    # The range-vs-carrier test is the EP decision, so it answers both.
    ep = range_corange_test(fact, ctx.tol)[0]
    expected = family == "ep"
    if ep != expected:
        return _Trial(False, 1.0, direction="accept" if expected else "reject",
                      payload={"T": m},
                      note=f"range==carrier (the EP test) is {ep}, expected {expected}")
    if expected:
        gap = projector_gap(range_basis_of(fact), carrier_basis_of(fact))
        return _residual_trial(gap, 1.0, ctx.tol, payload={"T": m})
    return _Trial(True, 0.0, direction="reject")


def _check_thm2_5(ctx: _Ctx, rng, t: int) -> _Trial:
    """For EP T: S commutes with T iff S commutes with the pseudoinverse."""
    tol = ctx.tol
    kind = t % 3
    if kind == 0:
        t_mat, s = _gen_for(ctx, rng, "commuting_pair")
        tp = pseudoinverse(t_mat, tol)
        resid = norm2(s @ tp - tp @ s)
        scale = (1.0 + operator_norm(s)) * (1.0 + norm2(tp))
        return _residual_trial(resid, scale, tol, payload={"T": t_mat, "S": s})
    if kind == 1:
        t_mat = _gen_for(ctx, rng, "ep")
        fact = svd(t_mat, tol)
        r = fact.numerical_rank
        vr = fact.right_vectors[:, :r]
        vn = fact.right_vectors[:, r:]
        compressed = vr.conj().T @ t_mat @ vr
        s = vr @ _random_poly_in(rng, compressed) @ vr.conj().T
        if vn.shape[1] > 0:
            g = rng.standard_normal((vn.shape[1], vn.shape[1])) + 1j * rng.standard_normal(
                (vn.shape[1], vn.shape[1])
            )
            s = s + vn @ g @ vn.conj().T
        tp = pseudoinverse_of(fact)
        premise = norm2(s @ tp - tp @ s)
        conclusion = norm2(s @ t_mat - t_mat @ s)
        scale = (1.0 + operator_norm(s)) * (1.0 + operator_norm(t_mat) + norm2(tp))
        return _residual_trial(max(premise, conclusion), scale, tol,
                               payload={"T": t_mat, "S": s})
    t_mat = _gen_for(ctx, rng, "ep")
    tp = pseudoinverse(t_mat, tol)
    floor = 1e-3 * (1.0 + operator_norm(t_mat))
    s = None
    for _ in range(8):
        cand = rng.standard_normal(t_mat.shape) + 1j * rng.standard_normal(t_mat.shape)
        if norm2(cand @ t_mat - t_mat @ cand) > floor * (1.0 + norm2(cand)):
            s = cand
            break
    if s is None:
        raise GenerationError("could not draw a non-commuting control operator")
    ok = norm2(s @ tp - tp @ s) > ctx.tol.eq_atol
    return _pass_fail(ok, {"T": t_mat, "S": s},
                      "non-commuting S commutes with the pseudoinverse", "reject")


def _check_thm2_6(ctx: _Ctx, rng, t: int) -> _Trial:
    """EP iff powers are EP with the same range (rank-preserving converse)."""
    tol = ctx.tol
    if t % 2 == 0:
        m = _gen_for(ctx, rng, "ep", cond=30.0)
        fact = svd(m, tol)
        base = range_basis_of(fact)
        worst = 0.0
        power = m
        for _ in (2, 3, 4):
            power = power @ m
            fact_n = svd(power, tol)
            if not range_corange_test(fact_n, tol)[0]:
                return _Trial(False, 1.0, payload={"T": m},
                              note="a power of an EP matrix failed the EP test")
            worst = max(worst, projector_gap(range_basis_of(fact_n), base))
        return _residual_trial(worst, 1.0, tol, payload={"T": m})
    m = _gen_for(ctx, rng, "non_ep", cond=30.0)
    sq = m @ m
    fact_sq = svd(sq, tol)
    sq_ep = range_corange_test(fact_sq, tol)[0]
    same_range = subspace_eq(range_basis_of(fact_sq), range_basis_of(svd(m, tol)), tol)
    ok = not (sq_ep and same_range)
    return _pass_fail(ok, {"T": m},
                      "square of a non-EP matrix is EP with unchanged range", "reject")


def _compression_invertible(
    compression: np.ndarray, parent: SvdFactorization, tol: ToleranceConfig
) -> bool:
    """Invertibility of the carrier compression at the parent matrix's scale.

    The compression's own relative cutoff cannot see that, say, a 1 x 1
    compression of [1e-16] is zero; singular values are compared against
    rank_rtol * sigma_1 of the matrix being compressed.
    """
    if compression.shape[0] == 0:
        return True
    sv = np.linalg.svd(compression, compute_uv=False)
    parent_sigma1 = float(parent.singular_values[0]) if parent.singular_values.size else 0.0
    return bool(sv.min() > tol.rank_rtol * parent_sigma1)


def _check_thm2_7(ctx: _Ctx, rng, t: int) -> _Trial:
    """Nonzero spectrum of an EP matrix equals the spectrum of its carrier compression."""
    tol = ctx.tol
    if t % 8 == 1:
        m = _gen_for(ctx, rng, "non_ep")
        fact = svd(m, tol)
        basis = fact.carrier_vectors()
        compression = basis.conj().T @ m @ basis
        singular = not _compression_invertible(compression, fact, tol)
        ctx.details.setdefault("non_ep_compression_singular", bool(singular))
        return _pass_fail(singular, {"T": m},
                          "carrier compression of non-EP matrix is invertible", "reject")
    m = _gen_for(ctx, rng, "ep")
    fact = svd(m, tol)
    r = fact.numerical_rank
    basis = fact.carrier_vectors()
    compression = basis.conj().T @ m @ basis
    scale = 1.0 + operator_norm(m)
    payload = {"T": m}

    invertible = _compression_invertible(compression, fact, tol)
    eig_all = eigenvalues(m, tol)
    order = np.argsort(np.abs(eig_all), kind="stable")
    zero_part = eig_all[order[: m.shape[0] - r]]
    nonzero_part = eig_all[order[m.shape[0] - r :]]
    zero_resid = float(np.max(np.abs(zero_part))) if zero_part.size else 0.0
    match_resid = _multiset_gap(nonzero_part, eigenvalues(compression, tol))
    return _residual_trial(max(zero_resid, match_resid), scale, tol,
                           extra_ok=invertible, payload=payload,
                           note=None if invertible else "carrier compression lost rank")


def _check_thm2_12(ctx: _Ctx, rng, t: int) -> _Trial:
    """Product of two EP matrices is EP iff it preserves range and null space."""
    tol = ctx.tol
    spec = ctx.spec
    aligned = t % 2 == 1
    if aligned:
        v = _haar_unitary(rng, spec.dim)
        a1 = _conditioned_invertible(rng, max(spec.rank, 1), spec.condition_bound)
        a2 = _conditioned_invertible(rng, max(spec.rank, 1), spec.condition_bound)
        s = _embed_conjugated(v, a1)
        t_mat = _embed_conjugated(v, a2)
    else:
        s, t_mat = _gen_for(ctx, rng, "product_pair")
    product = s @ t_mat
    fact_p = svd(product, tol)
    fact_t = svd(t_mat, tol)
    range_same = subspace_eq(range_basis_of(fact_p), range_basis_of(fact_t), tol)
    null_same = subspace_eq(null_basis_of(fact_p), null_basis_of(fact_t), tol)
    conds = range_same and null_same
    ep_p = range_corange_test(fact_p, tol)[0]
    payload = {"S": s, "T": t_mat}
    direction = "accept" if conds else "reject"
    if ep_p != conds:
        return _Trial(False, 1.0, direction=direction, payload=payload,
                      note=f"is_ep(ST)={ep_p} but range/null conditions={conds}")
    if aligned and not conds:
        return _Trial(False, 1.0, direction=direction, payload=payload,
                      note="aligned EP pair failed the range/null conditions")
    return _Trial(True, 0.0, direction=direction)


def _check_thm2_13(ctx: _Ctx, rng, t: int) -> _Trial:
    """Range of |T|^alpha is alpha-independent; for EP T it equals range(T)."""
    tol = ctx.tol
    family = ("ep", "non_ep", "normal_ep")[t % 3]
    m = _gen_for(ctx, rng, family)
    fact_m = svd(m, tol)
    polar = polar_decomposition_of(fact_m)
    base = range_basis_of(svd(polar.modulus_part, tol))
    worst = 0.0
    for power in fractional_abs_powers_of(polar, FRACTIONAL_ALPHA_GRID, tol):
        worst = max(worst, projector_gap(range_basis_of(svd(power, tol)), base))
    if family == "non_ep":
        ok = not subspace_eq(range_basis_of(fact_m), base, tol)
        return _residual_trial(worst, 1.0, tol, extra_ok=ok, direction="reject",
                               payload={"T": m},
                               note=None if ok else "non-EP matrix has range(|T|) == range(T)")
    worst = max(worst, projector_gap(range_basis_of(fact_m), base))
    return _residual_trial(worst, 1.0, tol, payload={"T": m})


def _check_thm2_15(ctx: _Ctx, rng, t: int) -> _Trial:
    """If range(T) = range(|T|) (= range(|T|^alpha), alpha in (0,1)) then T is EP."""
    tol = ctx.tol
    family = "ep" if t % 2 == 0 else "non_ep"
    m = _gen_for(ctx, rng, family)
    fact_m = svd(m, tol)
    base = range_basis_of(fact_m)
    polar = polar_decomposition_of(fact_m)
    modulus_range = range_basis_of(svd(polar.modulus_part, tol))
    (half,) = fractional_abs_powers_of(polar, (0.5,), tol)
    half_range = range_basis_of(svd(half, tol))
    hyp = subspace_eq(base, modulus_range, tol) and subspace_eq(base, half_range, tol)
    ep = range_corange_test(fact_m, tol)[0]
    if family == "ep":
        ok = hyp and ep
        return _pass_fail(ok, {"T": m}, f"hypothesis={hyp}, is_ep={ep}")
    ok = (not hyp) and (not ep)
    return _pass_fail(ok, {"T": m},
                      "non-EP matrix satisfied range(T) = range(|T|)", "reject")


def _check_thm2_16(ctx: _Ctx, rng, t: int) -> _Trial:
    """Certified dominated perturbations keep EP-ness (hypo-EP collapses to EP here)."""
    tol = ctx.tol
    squared = DOMINANCE_BOUND**2
    mode = t % 5
    if mode == 1:
        t_mat = _gen_for(ctx, rng, "ep")
        s = 2.0 * t_mat
        ta = adjoint(t_mat)
        dominated = psd_dominates(squared * (ta @ t_mat), adjoint(s) @ s, tol)
        ok = not dominated
        return _pass_fail(ok, {"T": t_mat, "S": s},
                          "dominance certificate accepted a non-dominated pair", "reject")
    if mode == 2:
        base = _gen_for(ctx, rng, "normal_ep")
        c = DOMINANCE_BOUND * rng.uniform(0.2, 0.9)
        s = c * base
        t_mat = base
    else:
        t_mat, s = _gen_for(ctx, rng, "perturbation_pair", loose=mode == 3)
    ta = adjoint(t_mat)
    sa = adjoint(s)
    cert = psd_dominates(squared * (ta @ t_mat), sa @ s, tol) and psd_dominates(
        squared * (t_mat @ ta), s @ sa, tol
    )
    fact = svd(t_mat + s, tol)
    ep, hypo = range_corange_test(fact, tol)
    gap = projector_gap(range_basis_of(fact), carrier_basis_of(fact))
    extra_ok = cert and hypo and ep
    return _residual_trial(gap, 1.0, tol, extra_ok=extra_ok,
                           payload={"T": t_mat, "S": s},
                           note=None if extra_ok else
                           f"certificate={cert}, hypo_ep={hypo}, ep={ep}")


def _check_thm2_19(ctx: _Ctx, rng, t: int) -> _Trial:
    """EP iff T kills the corange and T* kills its own corange."""
    tol = ctx.tol
    family = "ep" if t % 2 == 0 else "non_ep"
    m = _gen_for(ctx, rng, family)
    dim = m.shape[0]
    eye = np.eye(dim, dtype=np.complex128)
    fact = svd(m, tol)
    mp = pseudoinverse_of(fact)
    madj = adjoint(m)
    madj_p = pseudoinverse(madj, tol)
    r1 = norm2(m @ (eye - m @ mp))
    r2 = norm2(madj @ (eye - madj @ madj_p))
    scale = 1.0 + operator_norm(m)
    pred = r1 <= tol.eq_atol * scale and r2 <= tol.eq_atol * scale
    ep = range_corange_test(fact, tol)[0]
    expected = family == "ep"
    if pred != expected or ep != expected:
        return _Trial(False, 1.0, direction="accept" if expected else "reject",
                      payload={"T": m},
                      note=f"annihilation predicate={pred}, is_ep={ep}, expected {expected}")
    if expected:
        return _residual_trial(max(r1, r2), scale, tol, payload={"T": m})
    return _Trial(True, 0.0, direction="reject")


def _window_conditions(
    terms, limit: np.ndarray, tol: ToleranceConfig
) -> tuple[tuple[bool, bool, bool], dict]:
    """Finite-window diagnostics for pseudoinverse convergence of a sequence.

    Conditions mirror the three equivalent statements for T_k -> T with
    closed ranges: (a) pinv convergence, (b) convergence of T_k+ T_k, and
    (c) uniform boundedness of ||T_k+||.  On a finite window these are
    decided by scale-free ratios: the tail must shrink below a quarter of
    the head (a, b) and the pinv norms may not spread by more than 10x (c).
    """
    limit_pinv = pseudoinverse(limit, tol)
    limit_proj = limit_pinv @ limit
    window = np.stack(terms)
    pinvs = pseudoinverse(window, tol)
    pinv_norms = norm2(pinvs)
    # Of the gaps only the first and the last term are read, and of the
    # successive differences only the last five.
    ends = [0, -1]
    gaps = norm2(pinvs[ends] - limit_pinv)
    proj_gaps = norm2(pinvs[ends] @ window[ends] - limit_proj)
    tail = pinvs[-6:]
    successive = norm2(tail[1:] - tail[:-1])
    sup_norm = float(pinv_norms.max())
    growth_ratio = sup_norm / max(float(pinv_norms.min()), 1e-300)
    cond_c = growth_ratio <= 10.0
    cond_a = bool(gaps[-1] <= max(0.25 * gaps[0], 10.0 * tol.eq_atol * (1.0 + sup_norm)))
    cond_b = bool(proj_gaps[-1] <= max(0.25 * proj_gaps[0], 10.0 * tol.eq_atol * 2.0))
    diag = {
        "window": len(terms),
        "sup_pinv_norm": sup_norm,
        "pinv_norm_growth_ratio": growth_ratio,
        "first_pinv_gap": float(gaps[0]),
        "final_pinv_gap": float(gaps[-1]),
        "final_projector_gap": float(proj_gaps[-1]),
        "min_successive_pinv_gap_tail": float(successive.min()) if successive.size else 0.0,
        "cond_a_holds": cond_a,
        "cond_b_holds": cond_b,
        "cond_c_holds": cond_c,
    }
    return (cond_a, cond_b, cond_c), diag


def _check_thm1_5(ctx: _Ctx, rng, t: int) -> _Trial:
    """Pseudoinverse convergence equivalences on convergent matrix windows."""
    tol = ctx.tol
    spec = ctx.spec
    if t % 2 == 0:
        seq = _gen_for(ctx, rng, "sequence")
        conds, diag = _window_conditions(seq.terms, seq.limit, tol)
        diag["kind"] = "fixed_range_scaling"
        ctx.details.setdefault("positive_example", diag)
        ok = all(conds)
        return _pass_fail(ok, {"T": seq.limit}, f"positive sequence conditions {conds}")
    if ctx.thm1_5_control is None:
        ambient = max(spec.dim, 16)
        terms = tuple(harmonic_truncation(k, ambient) for k in range(1, ambient))
        limit = harmonic_truncation(ambient, ambient)
        conds, diag = _window_conditions(terms, limit, tol)
        diag["kind"] = "harmonic_truncations"
        diag["ambient_dim"] = ambient
        ctx.thm1_5_control = (conds, diag, limit)
    conds, diag, limit = ctx.thm1_5_control
    ctx.details.setdefault("negative_example", dict(diag))
    ok = not any(conds)
    return _pass_fail(ok, {"T_limit": limit}, f"divergent sequence conditions {conds}", "reject")


def _cayley_unitary(x: np.ndarray) -> np.ndarray:
    """(I - X)(I + X)^-1, unitary for skew-Hermitian X; per matrix of a stack."""
    eye = np.eye(x.shape[-1], dtype=np.complex128)
    return (eye - x) @ np.linalg.inv(eye + x)


def _check_thm3_2(ctx: _Ctx, rng, t: int) -> _Trial:
    """Norm limits of EP matrices with gamma >= delta stay EP with gamma >= delta."""
    tol = ctx.tol
    delta = EP_MEMBERSHIP_DELTA
    base = _gen_for(ctx, rng, "ep")
    gamma0 = reduced_min_modulus(base, tol)
    if gamma0 <= 0.0:
        raise GenerationError("membership sequence needs a nonzero base matrix")
    target = delta * (1.0 + rng.uniform(0.0, 1.0))
    limit = base * (target / gamma0)

    steps = 2.0 ** -np.arange(1, SEQUENCE_LENGTH + 1)
    if t % 2 == 0:
        terms = (1.0 + steps)[:, None, None] * limit
    else:
        g = rng.standard_normal(limit.shape) + 1j * rng.standard_normal(limit.shape)
        skew = (g - g.conj().T) / 2.0
        skew = skew / max(norm2(skew), 1e-300)
        q = _cayley_unitary(steps[:, None, None] * skew)
        terms = q @ limit @ q.conj().swapaxes(-1, -2)

    fact = svd(terms, tol)
    # sigma_r of each term; a rank-0 term is all zeros, so index -1 reads 0.
    gammas = fact.singular_values[np.arange(SEQUENCE_LENGTH), fact.numerical_rank - 1]
    ep = range_corange_test(fact, tol)[0]
    left = (gammas < delta - 1e-9) | ~ep
    if left.any():
        return _Trial(False, 1.0, payload={"T_k": terms[int(np.argmax(left))]},
                      note="sequence term left the certified EP membership set")
    # The last term lies within about 2^-50 ||limit|| of the limit plus
    # roundoff of the order of eps ||limit||, so the bound scales with it.
    if norm2(terms[-1] - limit) > 1e-9 * (1.0 + norm2(limit)):
        return _Trial(False, 1.0, payload={"T": limit},
                      note="sequence failed to converge to its declared limit")
    rep = classify(limit, tol)
    residual = max(0.0, delta - rep.gamma)
    ok = rep.is_ep and rep.gamma >= delta - 1e-9
    return _Trial(ok, residual, payload=None if ok else {"T": limit},
                  note=None if ok else f"limit is_ep={rep.is_ep}, gamma={rep.gamma}")


def _check_thm3_4(ctx: _Ctx, rng, t: int) -> _Trial:
    """gamma <= spectral radius for EP matrices; nilpotent control violates it."""
    tol = ctx.tol
    spec = ctx.spec
    if t % 10 == 1:
        control = np.zeros((2, 2), dtype=np.complex128)
        control[0, 1] = 1.0
        rep = classify(control, tol)
        excluded = (not rep.is_ep) and rep.gamma > rep.spectral_radius
        ctx.details.setdefault(
            "nilpotent_control",
            {
                "gamma": rep.gamma,
                "spectral_radius": rep.spectral_radius,
                "is_ep": rep.is_ep,
                "violates_inequality": bool(rep.gamma > rep.spectral_radius),
            },
        )
        return _pass_fail(excluded, {"T": control},
                          "nilpotent control was not excluded", "reject")
    if t % 2 == 0:
        m = _gen_for(ctx, rng, "ep")
        rep = classify(m, tol)
        scale = 1.0 + operator_norm(m)
        residual = max(0.0, rep.gamma - rep.spectral_radius)
        ok = rep.is_ep and residual <= 1e-10 * scale
        return _Trial(ok, residual, payload=None if ok else {"T": m},
                      note=None if ok else
                      f"gamma={rep.gamma} exceeds spectral radius={rep.spectral_radius}")
    m = _gen_for(ctx, rng, "ep", cond=30.0)
    gamma1 = reduced_min_modulus(m, tol)
    norm = operator_norm(m)
    worst = 0.0
    power = m
    for n in (2, 3):
        power = power @ m
        gamma_n = reduced_min_modulus(power, tol)
        bound = norm ** (n - 1) * gamma1 + 10.0 * tol.eq_atol * (1.0 + norm) ** n
        worst = max(worst, gamma_n - bound)
    ok = worst <= 0.0
    return _Trial(ok, max(0.0, worst), payload=None if ok else {"T": m},
                  note=None if ok else "gamma of a power exceeded the norm-chain bound")


# ---------------------------------------------------------------------------
# Dispatch table and runner
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _CheckerEntry:
    fn: Callable[[_Ctx, np.random.Generator, int], _Trial]
    two_directions: bool
    static_notes: tuple[str, ...] = ()


_CHECKERS: dict[str, _CheckerEntry] = {
    "thm1.5": _CheckerEntry(
        _check_thm1_5, True,
        ("pinv convergence is tested against the limit's pseudoinverse "
         "(the printed statement omits the dagger on the limit)",),
    ),
    "thm2.1": _CheckerEntry(_check_thm2_1, True),
    "thm2.2": _CheckerEntry(_check_thm2_2, True),
    "thm2.3": _CheckerEntry(_check_thm2_3, True),
    "thm2.4": _CheckerEntry(_check_thm2_4, True),
    "thm2.5": _CheckerEntry(_check_thm2_5, True),
    "thm2.6": _CheckerEntry(
        _check_thm2_6, True,
        ("rejecting direction tests NOT(square EP with unchanged range): a "
         "power of a non-EP matrix may itself be EP (nilpotents square to 0)",),
    ),
    "thm2.7": _CheckerEntry(_check_thm2_7, True),
    "thm2.12": _CheckerEntry(
        _check_thm2_12, True,
        ("adjoint matrix-representation hypothesis is vacuous in finite "
         "dimension and not checked",),
    ),
    "thm2.13": _CheckerEntry(_check_thm2_13, True),
    "thm2.15": _CheckerEntry(_check_thm2_15, True),
    "thm2.16": _CheckerEntry(
        _check_thm2_16, True,
        ("hypo-EP and EP coincide in finite dimension; both conclusions are "
         "checked on the same instances",),
    ),
    "thm2.19": _CheckerEntry(_check_thm2_19, True),
    "thm3.2": _CheckerEntry(
        _check_thm3_2, False,
        ("sequence terms are certified EP with gamma >= delta before the "
         "limit is tested; delta = 0.1",),
    ),
    "thm3.4": _CheckerEntry(_check_thm3_4, True),
}

THEOREM_IDS = tuple(sorted(_CHECKERS, key=lambda s: tuple(map(int, s[3:].split(".")))))


def _counterexample_payload(trial_index: int, trial: _Trial) -> dict:
    matrices = {
        name: matrix_to_payload(matrix) for name, matrix in (trial.payload or {}).items()
    }
    payload: dict = {"trial": trial_index, "matrices": matrices}
    if trial.note:
        payload["note"] = trial.note
    return payload


def run_theorem_check(
    theorem_id: str,
    spec: GeneratorSpec,
    trials: int,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> TheoremVerdict:
    """Run one theorem verifier over ``trials`` generated instances.

    The spec supplies dimension, rank, conditioning and the master seed; each
    verifier schedules its own accepting and control families across the
    trial indices (spec.family is not consulted).  Raises UnknownTheorem for
    ids outside the dispatch table and InvalidSpec for specs the verifier
    cannot exercise (all verifiers need rank >= 1, and two-direction
    verifiers need dim >= 2 for the non-EP control family).
    """
    entry = _CHECKERS.get(theorem_id)
    if entry is None:
        raise UnknownTheorem(
            f"unknown theorem id {theorem_id!r}; known: {', '.join(THEOREM_IDS)}"
        )
    if trials < 1:
        raise InvalidSpec(f"trials must be >= 1, got {trials}")
    if spec.rank < 1:
        raise InvalidSpec("theorem verifiers need rank >= 1 (the zero matrix is treated separately)")
    if entry.two_directions and spec.dim < 2:
        raise InvalidSpec("two-direction verifiers need dim >= 2 for the control family")

    salt = THEOREM_IDS.index(theorem_id)
    ctx = _Ctx(spec=spec, tol=tol)
    start = time.perf_counter()
    failures = 0
    warnings = 0
    worst = 0.0
    counterexample = None
    accepting = 0
    rejecting = 0
    for t in range(trials):
        rng = np.random.default_rng([spec.seed, salt, t])
        trial = entry.fn(ctx, rng, t)
        if trial.direction == "reject":
            rejecting += 1
        else:
            accepting += 1
        worst = max(worst, trial.residual)
        if trial.warn:
            warnings += 1
        if not trial.ok:
            failures += 1
            if counterexample is None:
                counterexample = _counterexample_payload(t, trial)
    elapsed_ms = int(round((time.perf_counter() - start) * 1000.0))

    notes = list(entry.static_notes)
    if entry.two_directions and (accepting == 0 or rejecting == 0):
        notes.append(
            "configuration error: verifier saw "
            f"{accepting} accepting and {rejecting} rejecting instances"
        )
    details = dict(ctx.details)
    details["accepting_trials"] = accepting
    details["rejecting_trials"] = rejecting
    return TheoremVerdict(
        theorem_id=theorem_id,
        trials=trials,
        failures=failures,
        worst_residual=float(worst),
        counterexample=counterexample,
        elapsed_ms=elapsed_ms,
        warnings=warnings,
        notes=tuple(notes),
        details=details,
    )
