"""Seeded generators of structured matrices and one verifier per theorem id.

Every verifier runs a batch of independently generated trials and folds the
outcomes into a TheoremVerdict.  Determinism is strict: trial t of a run with
master seed s draws from a generator seeded by (s, verifier index, t), so
results do not depend on execution order, and rerunning with the same seed
reproduces the verdict bit for bit.

Equivalence-style verifiers exercise both directions: each trial says
whether it accepts, on an instance of the matching family, or rejects, on
one of a control family.  A trial fails when a boolean claim is violated or
a residual exceeds ten times eq_atol at its natural scale; residuals between
eq_atol and that threshold are counted as warnings, not failures.  A failing
trial alone reaches the report: its matrices and note are read only then.

thm1.5 factors each term of its window once and reads ||T_k+|| as
1 / gamma(T_k), so only the seven terms whose pseudoinverse the verdict
reads get a full SVD; every other term gets the values-only SVD.  The
limit with the seven full SVDs is one request, the 43 values-only ones
another, and the nine gap and difference norms a third.  Its
harmonic-truncation control draws nothing from the rng, so a run computes
it once, without yielding, and holds it on its ``_Ctx``; its terms are
diagonal, so their values-only SVDs make no LAPACK call (see ``core``).
thm3.2 scales its draw by the gamma of a values-only SVD, then builds its
limit and the one term it reads; its terms are EP with gamma >= delta by
construction, so it factors only the limit, and the Frobenius bracket
decides that the term converges.

One factorization per matrix feeds every decision about it: its rank, EP
verdict, pseudoinverse, polar factors and subspace bases all come from one
``SvdFactorization``, and a yes/no subspace comparison is ``subspace_eq``,
never a projector gap against eq_atol.  By design, the routes that thm2.1
and thm2.13 compare stay independent.  Scales are exact spectral norms; a
verifier that holds a matrix's factorization reads ||T|| as sigma_1 and
||T+|| as 1 / gamma from it.  No verifier builds a ``classify`` report: it
reads the EP verdict and gamma from the factorization it holds, and it
requests only the norms its verdict reads.

Trials run in lockstep.  Each verifier body is a step generator: where it
needs factorizations or norms it yields one request, a kind ("svd",
"values" or "norm") and a tuple of the matrices that do not depend on each
other's results, such as thm2.13's |T| with its six powers or the two
norms of thm2.19, and it is sent their results in order.  A trial is one
step generator (``_trial``): its draws, then its body.  The runner drives
each group of consecutive trials through one ``core._lockstep`` call,
which answers a round's requests of one kind, shape and dtype with one
stacked LAPACK call per ``core._STACK_ENTRIES`` entries, and folds the
trials' outcomes in t order.  LAPACK factors each matrix of a stack
alone, so stacking across trials shares no factorization and moves no
bit.  A group holds as many trials as thm1.5's windows fill
``core._STACK_ENTRIES`` entries, and at least one (``_lockstep_group``):
20 at dim 8, one from dim 32 on.  Per-trial diagnostics travel on the
trial (``_Trial.details``), and the runner keeps each key's value from
the lowest t.
``require_runnable`` checks a run before its first trial, so a run that
cannot finish fails before any work.

Generators draw, then build, and verifiers decide.  Each family of the
generator table, ``_GENERATORS``, is a step generator of
``core._lockstep``: it takes the random numbers of one instance in a fixed
order, with the complex Gaussian blocks of its Haar unitaries among them,
asks for their unitaries in a "haar" request, and returns the instance
built from what it is sent.  A trial's ``_draw`` drives its families one
after another, so its rng passes through their draws in plan order, as
when each is drawn alone.  A group's Gaussian blocks of one size in one
round become Haar unitaries by one stacked QR per
``core._STACK_ENTRIES`` entries of blocks.  A QR draws nothing and LAPACK
factors each block of a stack alone, so every instance has the bits it
has when drawn alone.  A draw takes the real and imaginary parts of a
Gaussian block at once, and the QR kernel makes the complex blocks of a
whole stack in one step.

Each verifier's entry in ``_CHECKERS`` names the families trial t draws,
``draws(t)``; its body gets a ``_Drawn``: the instances paired with their
families, from which it reads its direction, and the trial's rng past
their draws, from which it draws the rest of its trial.  Each family's
property holds by construction, so an instance reaches its verifier
untested, and a verifier decision that disagrees with the family drawn is
a counterexample that carries its matrix.  thm2.5's non-commuting control
S is likewise one Gaussian draw, untested: the verdict decides whether it
commutes with T+.

Every generated matrix passes through the table.  ``gen_matrix`` draws its
three one-matrix families, ep, non_ep and normal_ep, by the same path with
one rng, driving the family alone.  The fourth family is thm2.12's
aligned pair: two invertible blocks conjugated by one shared unitary,
which the pair needs for its ranges and null spaces to align.  A verifier
that needs a window builds it from its draws (thm1.5 scales one).  A test
that needs a faulty generator patches an entry of that table for its own
run (``monkeypatch.setitem``), with a generator function that drives the
real family and alters what it returns; the package itself never mutates
module-level state, so everything a run depends on travels in its
arguments and its ``_Ctx``.
"""

from __future__ import annotations

import itertools
import operator
import time
from dataclasses import dataclass, field
from typing import Callable, Generator

import numpy as np

from .core import (
    _STACK_ENTRIES,
    DEFAULT_TOL,
    MAX_DIM,
    SvdFactorization,
    ToleranceConfig,
    _gamma,
    _hermitian_eigenvalues,
    _inverse,
    _lockstep,
    _pinv_norm,
    adjoint,
    as_matrix,
    eigenvalues,
    norm2_at_most,
    require_hermitian,
    require_int,
    require_real,
)
from .errors import DimensionMismatch, InvalidSpec, UnknownTheorem
from .classify import range_corange_test
from .models import harmonic_truncation
from .pinv import (
    direct_sum,
    fractional_abs_powers_of,
    polar_decomposition_of,
    pseudoinverse_of,
    reduced_min_modulus_of,
    spectral_radius,
)
from .serialize import matrix_to_payload
from .subspace import projector_difference, subspace_eq

SEQUENCE_LENGTH = 50
EP_MEMBERSHIP_DELTA = 0.1
FRACTIONAL_ALPHA_GRID = (0.25, 0.5, 1.0, 1.5, 2.0, 3.0)
# The constant a = b of thm2.16's dominance hypotheses ||Sx|| <= a ||Tx|| and
# ||S*x|| <= b ||T*x||.  It stays below 1 because at a = 1 the hypotheses
# admit S = -T, and T + S = 0 has lost the range of T.
DOMINANCE_BOUND = 0.5


@dataclass(frozen=True)
class GeneratorSpec:
    """Shape, rank, conditioning and seed of generated instances (not their family)."""

    dim: int
    rank: int
    condition_bound: float = 100.0
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("dim", "rank", "seed"):
            require_int(name, getattr(self, name))
        if not 1 <= self.dim <= MAX_DIM:
            raise InvalidSpec(f"dim must be in [1, {MAX_DIM}], got {self.dim}")
        if self.rank < 0 or self.rank > self.dim:
            raise InvalidSpec(f"rank {self.rank} outside [0, dim={self.dim}]")
        bound = self.condition_bound
        require_real("condition_bound", bound)
        if not 1.0 <= bound < np.inf:
            raise InvalidSpec(f"condition_bound must be finite and >= 1, got {bound}")
        if not 0 <= self.seed < 2**64:
            raise InvalidSpec("seed must fit in an unsigned 64-bit integer")


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


def _gaussian(rng: np.random.Generator, n: int) -> np.ndarray:
    """The real and imaginary parts, (2, n, n), of the Gaussian block behind one Haar unitary.

    A "haar" request of ``core._lockstep`` turns it into the unitary.
    """
    return rng.standard_normal((2, n, n))


def _invertible_draws(rng: np.random.Generator, n: int, condition_bound: float):
    """The draws of an n x n invertible matrix with condition number <= condition_bound.

    Returns its singular values, largest first, and the Gaussian blocks of
    its two unitaries; ``_invertible`` builds it.
    """
    smax = rng.uniform(0.5, 2.0)
    cond = float(np.exp(rng.uniform(0.0, np.log(max(condition_bound, 1.0)))))
    if n == 1:
        s = np.array([smax])
    else:
        interior = np.exp(rng.uniform(np.log(smax / cond), np.log(smax), size=n - 2))
        s = np.concatenate(([smax], np.sort(interior)[::-1], [smax / cond]))
    return s, (_gaussian(rng, n), _gaussian(rng, n))


def _invertible(s: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return (u * s) @ v.conj().T


def _embed_conjugated(v: np.ndarray, block: np.ndarray) -> np.ndarray:
    """V blockdiag(block, 0) V* for a unitary V."""
    k = block.shape[0]
    b = np.zeros(v.shape, dtype=np.complex128)
    b[:k, :k] = block
    return v @ b @ v.conj().T


# The families of ``_GENERATORS``, each a step generator of (rng, dim,
# rank, cond): it is sent the unitaries of its "haar" request's blocks in
# their order.


def _ep(rng, dim, rank, cond):
    if rank == 0:
        return np.zeros((dim, dim), dtype=np.complex128)
    s, blocks = _invertible_draws(rng, rank, cond)
    u, v, w = yield "haar", (*blocks, _gaussian(rng, dim))
    return _embed_conjugated(w, _invertible(s, u, v))


def _non_ep(rng, dim, rank, cond):
    rank = min(max(rank, 1), dim - 1)  # a verifier draws its control at this rank
    corner = rng.uniform(0.5, 2.0)
    s, blocks = _invertible_draws(rng, rank - 1, cond) if rank > 1 else (None, ())
    *uv, w = yield "haar", (*blocks, _gaussian(rng, dim))
    block = np.zeros((rank + 1, rank + 1), dtype=np.complex128)
    block[0, 1] = corner
    if uv:
        block[2:, 2:] = _invertible(s, *uv)
    return _embed_conjugated(w, block)


def _normal_ep(rng, dim, rank, cond):
    smax = rng.uniform(0.5, 2.0)
    mags = smax * np.exp(rng.uniform(-np.log(max(cond, 1.0)), 0.0, size=rank))
    phases = np.exp(2j * np.pi * rng.uniform(0.0, 1.0, size=rank))
    lam = np.zeros(dim, dtype=np.complex128)
    lam[:rank] = mags * phases
    (v,) = yield "haar", (_gaussian(rng, dim),)
    return (v * lam) @ v.conj().T


def _aligned_ep_pair(rng, dim, rank, cond):
    """EP S and T of one range and one null space: two invertible blocks conjugated by one W."""
    shared = _gaussian(rng, dim)
    s1, blocks1 = _invertible_draws(rng, rank, cond)
    s2, blocks2 = _invertible_draws(rng, rank, cond)
    w, u1, v1, u2, v2 = yield "haar", (shared, *blocks1, *blocks2)
    return _embed_conjugated(w, _invertible(s1, u1, v1)), _embed_conjugated(
        w, _invertible(s2, u2, v2)
    )


def _random_poly_in(rng, m: np.ndarray) -> np.ndarray:
    """A random cubic polynomial in m, with standard complex normal coefficients."""
    coeffs = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    out = coeffs[0] * np.eye(m.shape[0], dtype=np.complex128)
    power = np.eye(m.shape[0], dtype=np.complex128)
    for c in coeffs[1:]:
        power = power @ m
        out = out + c * power
    return out


_GENERATORS = {
    "ep": _ep,
    "non_ep": _non_ep,
    "normal_ep": _normal_ep,
    "aligned_ep_pair": _aligned_ep_pair,
}
# The families ``gen_matrix`` draws: one matrix each.  thm2.12's aligned
# pair is two.
_MATRIX_FAMILIES = ("ep", "non_ep", "normal_ep")


def _draw(spec: GeneratorSpec, rng: np.random.Generator, plan):
    """One trial's ``(family, instance)`` pairs, one for each ``(family, cond)`` of ``plan``, as steps.

    Drives each family in turn, so the rng passes through their draws in
    plan order; ``cond``, when not None, caps the spec's condition bound.
    """
    instances = []
    for family, cond in plan:
        c = spec.condition_bound if cond is None else min(cond, spec.condition_bound)
        instances.append((family, (yield from _GENERATORS[family](rng, spec.dim, spec.rank, c))))
    return tuple(instances)


@dataclass(frozen=True)
class _Drawn:
    """What a trial body gets: its index t, its rng, and its ``(family, instance)`` pairs.

    The rng is past the draws of the instances, and the body draws the rest
    of its trial from it.
    """

    t: int
    rng: np.random.Generator
    instances: tuple


def gen_matrix(family: str, spec: GeneratorSpec) -> np.ndarray:
    """Generate one matrix of ``family`` at the spec, deterministically from its seed.

    Raises InvalidSpec for an unknown family, and for non_ep outside
    1 <= rank <= dim - 1.  Each matrix has its family's property by
    construction and is returned untested: deciding what a matrix
    numerically is stays with the verifiers, which compare their decisions
    with the family drawn.
    """
    if family not in _MATRIX_FAMILIES:
        raise InvalidSpec(f"unknown family {family!r}; known: {', '.join(_MATRIX_FAMILIES)}")
    if family == "non_ep" and not 1 <= spec.rank <= spec.dim - 1:
        raise InvalidSpec(
            "non_ep family needs 1 <= rank <= dim - 1: a full-rank square "
            "matrix has equal range and adjoint range"
        )
    rng = np.random.default_rng([spec.seed, 0xA5])
    return _lockstep([_GENERATORS[family](rng, spec.dim, spec.rank, spec.condition_bound)])[0]


def psd_dominates(a, b, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """True iff A - B is positive semidefinite within eq_atol * (1 + ||A||).

    Both arguments must be Hermitian (within eq_atol) and of equal shape.
    This is the finite-dimensional dominance test behind the perturbation
    hypotheses ||Sx|| <= a ||Tx||.  ||A|| feeds only the threshold, so
    ``norm2_at_most`` decides it: the 1 x 1 matrix [min(w_1, 0)], w_1 the
    least eigenvalue of A - B, has norm -w_1 when w_1 < 0 and 0 otherwise.
    """
    am = as_matrix(a)
    bm = as_matrix(b)
    if am.shape != bm.shape:
        raise DimensionMismatch(f"shapes differ: {am.shape} vs {bm.shape}")
    require_hermitian(am, tol, "first argument")
    require_hermitian(bm, tol, "second argument")
    negative_part = np.array([[min(_hermitian_eigenvalues(am - bm)[0], 0.0)]])
    return norm2_at_most(negative_part, lambda norm: tol.eq_atol * (1.0 + norm), am)


# ---------------------------------------------------------------------------
# Verifier plumbing
# ---------------------------------------------------------------------------


@dataclass
class _Trial:
    ok: bool
    residual: float = 0.0
    warn: bool = False
    accept: bool = True
    payload: dict | None = None
    note: str | None = None
    # Diagnostics for the verdict's details; the runner keeps each key's
    # value from the lowest t that reports it.
    details: dict | None = None


@dataclass
class _Ctx:
    spec: GeneratorSpec
    tol: ToleranceConfig
    # thm1.5's control: (conditions, diagnostics, limit), computed once a run.
    thm1_5_control: tuple | None = None


def _residual_trial(
    residual: float, scale: float, tol: ToleranceConfig, extra_ok: bool = True,
    accept: bool = True, payload: dict | None = None, note: str | None = None,
) -> _Trial:
    """A trial that fails when ``extra_ok`` is false or residual > 10 eq_atol scale.

    The runner reads ``payload`` and ``note`` only from a failing trial.  A
    residual alone can fail one, so a note on ``extra_ok`` is None while it holds.
    """
    ok = extra_ok and residual <= 10.0 * tol.eq_atol * scale
    warn = ok and residual > tol.eq_atol * scale
    return _Trial(ok=ok, residual=float(residual), warn=warn, accept=accept,
                  payload=payload, note=note)


def _pass_fail(
    ok: bool, payload: dict | None = None, note: str | None = None, accept: bool = True,
    details: dict | None = None,
) -> _Trial:
    """A boolean trial, residual 0 or 1; ``payload`` and ``note`` are read only on a failure."""
    return _Trial(ok, 0.0 if ok else 1.0, accept=accept, payload=payload, note=note,
                  details=details)


def _multiset_gap(xs: np.ndarray, ys: np.ndarray) -> float:
    """Bottleneck distance between two equal-size multisets of complex numbers.

    The least t such that some bijection moves every x to within t of its
    partner y, exactly: the largest cost of a sum-minimizing assignment only
    bounds it from above.  Every x and every y lies at least its nearest-
    neighbour distance from its partner, so the largest of those, L, is a
    lower bound.  When the pairs within L form a permutation, that
    permutation attains L; thm2.7's nearly equal spectra take this exit.
    Otherwise the answer is the least cost, L or above, whose threshold
    graph has a perfect matching (Gabow & Tarjan, J. Algorithms 9, 1988),
    found by bisection over the sorted distinct costs.
    """
    if xs.size != ys.size:
        raise DimensionMismatch("multisets must have equal cardinality")
    if xs.size == 0:
        return 0.0
    cost = np.abs(xs[:, None] - ys[None, :])
    low = max(cost.min(axis=1).max(), cost.min(axis=0).max())
    allowed = cost <= low
    # Every row and every column has a pair within L, so xs.size pairs in
    # all means exactly one in each: a permutation.
    if np.count_nonzero(allowed) == xs.size or _has_perfect_matching(allowed):
        return float(low)
    levels = np.unique(cost[cost > low])
    lo, hi = 0, levels.size - 1  # the largest cost admits every pairing
    while lo < hi:
        mid = (lo + hi) // 2
        if _has_perfect_matching(cost <= levels[mid]):
            hi = mid
        else:
            lo = mid + 1
    return float(levels[lo])


def _has_perfect_matching(allowed: np.ndarray) -> bool:
    """Whether the square bipartite graph ``allowed`` (rows to columns) has a perfect matching.

    Kuhn's augmenting paths: each row in turn claims a free column, or a
    column whose row can move along an alternating path to another one.
    """
    partners = [np.flatnonzero(row).tolist() for row in allowed]
    row_of = [-1] * allowed.shape[1]

    def augment(i: int, seen: set) -> bool:
        for j in partners[i]:
            if j not in seen:
                seen.add(j)
                if row_of[j] < 0 or augment(row_of[j], seen):
                    row_of[j] = i
                    return True
        return False

    return all(augment(i, set()) for i in range(len(partners)))


# ---------------------------------------------------------------------------
# Individual theorem checkers
# ---------------------------------------------------------------------------


def _check_thm2_1(ctx: _Ctx, drawn: _Drawn):
    """EP iff the pseudoinverse commutes: range test vs commutator test."""
    ((family, m),) = drawn.instances
    expected = family == "ep"
    (fact,) = yield "svd", (m,)
    ep = range_corange_test(fact, ctx.tol)
    # The second route, checked against the range test: T+ T - T T+.
    mp = pseudoinverse_of(fact)
    (commutator,) = yield "norm", (mp @ m - m @ mp,)
    pred_comm = commutator <= ctx.tol.eq_atol
    agree = ep == pred_comm == expected
    if not agree or not expected:
        return _pass_fail(agree, {"T": m}, f"family={family}: is_ep={ep}, "
                          f"commutator_residual={commutator:.3e}", accept=expected)
    scale = 1.0 + fact.singular_values[0] + _pinv_norm(reduced_min_modulus_of(fact))
    return _residual_trial(commutator, scale, ctx.tol, payload={"T": m})


def _check_thm2_2(ctx: _Ctx, drawn: _Drawn):
    """Direct sums: EP iff both blocks EP; pinv and gamma distribute over blocks."""
    tol = ctx.tol
    (_, a), (family_b, b) = drawn.instances
    accept = family_b == "ep"
    d = direct_sum(a, b)
    payload = {"A": a, "B": b}

    fact_a, fact_b, fact_d = yield "svd", (a, b, d)
    ep_d = range_corange_test(fact_d, tol)
    block = direct_sum(pseudoinverse_of(fact_a), pseudoinverse_of(fact_b))
    (pinv_resid,) = yield "norm", (pseudoinverse_of(fact_d) - block,)
    gamma_a = reduced_min_modulus_of(fact_a)
    gamma_b = reduced_min_modulus_of(fact_b)
    norm_scale = 1.0 + fact_a.singular_values[0] + fact_b.singular_values[0]
    # ||A+ (+) B+|| is the larger of the blocks' 1 / gamma.
    pinv_scale = norm_scale + max(_pinv_norm(gamma_a), _pinv_norm(gamma_b))

    gamma_ok = True
    gamma_resid = 0.0
    if gamma_a > 0.0 and gamma_b > 0.0:
        gamma_resid = abs(reduced_min_modulus_of(fact_d) - min(gamma_a, gamma_b))
        gamma_ok = gamma_resid <= 1e-12 * norm_scale

    if ep_d != accept:
        return _pass_fail(False, payload, f"is_ep(A (+) B)={ep_d}, expected {accept}",
                          accept=accept)
    return _residual_trial(
        pinv_resid, pinv_scale, tol, extra_ok=gamma_ok, accept=accept, payload=payload,
        note=None if gamma_ok else f"gamma law residual {gamma_resid:.3e}",
    )


def _check_thm2_3(ctx: _Ctx, drawn: _Drawn):
    """EP iff the polar isometry factor is EP."""
    ((family, m),) = drawn.instances
    expected = family == "ep"
    (fact,) = yield "svd", (m,)
    u = polar_decomposition_of(fact).isometry_part
    (fact_u,) = yield "svd", (u,)
    ep_u = range_corange_test(fact_u, ctx.tol)
    if ep_u != expected or not expected:
        return _pass_fail(ep_u == expected, {"T": m, "U": u},
                          f"is_ep(U)={ep_u}, expected {expected}", accept=expected)
    (gap,) = yield "norm", (
        projector_difference(fact_u.range_vectors(), fact_u.carrier_vectors()),
    )
    return _residual_trial(gap, 2.0, ctx.tol, payload={"T": m, "U": u})


def _check_thm2_4(ctx: _Ctx, drawn: _Drawn):
    """EP iff range equals carrier (the invertible-corner block form)."""
    ((family, m),) = drawn.instances
    expected = family == "ep"
    (fact,) = yield "svd", (m,)
    # The range-vs-carrier test is the EP decision, so it answers both.
    ep = range_corange_test(fact, ctx.tol)
    if ep != expected or not expected:
        return _pass_fail(ep == expected, {"T": m},
                          f"range==carrier (the EP test) is {ep}, expected {expected}",
                          accept=expected)
    (gap,) = yield "norm", (projector_difference(fact.range_vectors(), fact.carrier_vectors()),)
    return _residual_trial(gap, 1.0, ctx.tol, payload={"T": m})


def _check_thm2_5(ctx: _Ctx, drawn: _Drawn):
    """For EP T: S commutes with T iff S commutes with the pseudoinverse."""
    tol = ctx.tol
    kind = drawn.t % 3
    rng = drawn.rng
    ((_, t_mat),) = drawn.instances
    (fact,) = yield "svd", (t_mat,)
    tp = pseudoinverse_of(fact)
    # ||T+|| for the scales, read from the factorization: no norm request.
    norm_tp = _pinv_norm(reduced_min_modulus_of(fact))
    if kind == 0:
        s = _random_poly_in(rng, t_mat)
        # The residual and ||S||, in one request.
        resid, norm_s = yield "norm", (s @ tp - tp @ s, s)
        scale = (1.0 + norm_s) * (1.0 + norm_tp)
        return _residual_trial(resid, scale, tol, payload={"T": t_mat, "S": s})
    if kind == 1:
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
        premise, conclusion, norm_s = yield "norm", (s @ tp - tp @ s, s @ t_mat - t_mat @ s, s)
        scale = (1.0 + norm_s) * (1.0 + fact.singular_values[0] + norm_tp)
        return _residual_trial(max(premise, conclusion), scale, tol,
                               payload={"T": t_mat, "S": s})
    s = rng.standard_normal(t_mat.shape) + 1j * rng.standard_normal(t_mat.shape)
    (commutator,) = yield "norm", (s @ tp - tp @ s,)
    return _pass_fail(commutator > ctx.tol.eq_atol, {"T": t_mat, "S": s},
                      "non-commuting S commutes with the pseudoinverse", accept=False)


def _check_thm2_6(ctx: _Ctx, drawn: _Drawn):
    """EP iff powers are EP with the same range (rank-preserving converse)."""
    tol = ctx.tol
    ((family, m),) = drawn.instances
    if family == "ep":
        # T, T^2, T^3 and T^4, each power the product of the one before and T.
        fact_m, *facts = yield "svd", tuple(
            itertools.accumulate(itertools.repeat(m, 4), operator.matmul)
        )
        base = fact_m.range_vectors()
        ranges = []
        for fact_n in facts:
            if not range_corange_test(fact_n, tol):
                return _pass_fail(False, {"T": m}, "a power of an EP matrix failed the EP test")
            ranges.append(fact_n.range_vectors())
        gaps = yield "norm", tuple(projector_difference(r, base) for r in ranges)
        return _residual_trial(max(gaps), 1.0, tol, payload={"T": m})
    fact_sq, fact_m = yield "svd", (m @ m, m)
    sq_ep = range_corange_test(fact_sq, tol)
    same_range = subspace_eq(fact_sq.range_vectors(), fact_m.range_vectors(), tol)
    return _pass_fail(not (sq_ep and same_range), {"T": m},
                      "square of a non-EP matrix is EP with unchanged range", accept=False)


def _compression_invertible(
    compression: np.ndarray, parent: SvdFactorization, tol: ToleranceConfig
):
    """Invertibility of the carrier compression at the parent matrix's scale, as steps.

    The compression's own relative cutoff cannot see that, say, a 1 x 1
    compression of [1e-16] is zero; singular values are compared against
    rank_rtol * sigma_1 of the matrix being compressed.
    """
    if compression.shape[0] == 0:
        return True
    ((sv, _),) = yield "values", (compression,)
    parent_sigma1 = float(parent.singular_values[0]) if parent.singular_values.size else 0.0
    return bool(sv.min() > tol.rank_rtol * parent_sigma1)


def _check_thm2_7(ctx: _Ctx, drawn: _Drawn):
    """Nonzero spectrum of an EP matrix equals the spectrum of its carrier compression."""
    tol = ctx.tol
    ((family, m),) = drawn.instances
    (fact,) = yield "svd", (m,)
    basis = fact.carrier_vectors()
    compression = basis.conj().T @ m @ basis
    invertible = yield from _compression_invertible(compression, fact, tol)
    if family == "non_ep":
        return _pass_fail(not invertible, {"T": m},
                          "carrier compression of non-EP matrix is invertible", accept=False,
                          details={"non_ep_compression_singular": not invertible})
    r = fact.numerical_rank
    scale = 1.0 + fact.singular_values[0]
    eig_all = eigenvalues(m)
    order = np.argsort(np.abs(eig_all), kind="stable")
    zero_part = eig_all[order[: m.shape[0] - r]]
    nonzero_part = eig_all[order[m.shape[0] - r :]]
    zero_resid = float(np.max(np.abs(zero_part))) if zero_part.size else 0.0
    match_resid = _multiset_gap(nonzero_part, eigenvalues(compression))
    return _residual_trial(max(zero_resid, match_resid), scale, tol,
                           extra_ok=invertible, payload={"T": m},
                           note=None if invertible else "carrier compression lost rank")


def _check_thm2_12(ctx: _Ctx, drawn: _Drawn):
    """Product of two EP matrices is EP iff it preserves range and null space."""
    tol = ctx.tol
    aligned = drawn.instances[0][0] == "aligned_ep_pair"
    s, t_mat = drawn.instances[0][1] if aligned else (m for _, m in drawn.instances)
    fact_p, fact_t = yield "svd", (s @ t_mat, t_mat)
    range_same = subspace_eq(fact_p.range_vectors(), fact_t.range_vectors(), tol)
    null_same = subspace_eq(fact_p.null_vectors(), fact_t.null_vectors(), tol)
    conds = range_same and null_same
    ep_p = range_corange_test(fact_p, tol)
    note = (f"is_ep(ST)={ep_p} but range/null conditions={conds}" if ep_p != conds
            else "aligned EP pair failed the range/null conditions")
    return _pass_fail(ep_p == conds and (conds or not aligned), {"S": s, "T": t_mat}, note,
                      accept=conds)


def _check_thm2_13(ctx: _Ctx, drawn: _Drawn):
    """Range of |T|^alpha is alpha-independent; for EP T it equals range(T)."""
    tol = ctx.tol
    ((family, m),) = drawn.instances
    (fact_m,) = yield "svd", (m,)
    polar = polar_decomposition_of(fact_m)
    powers = fractional_abs_powers_of(polar, FRACTIONAL_ALPHA_GRID, tol)
    facts = yield "svd", (polar.modulus_part, *powers)
    del powers
    # Each factorization is dropped once its range is read.
    base, *ranges = [facts.pop(0).range_vectors() for _ in range(len(facts))]
    if family == "non_ep":
        worst = max((yield "norm", tuple(projector_difference(r, base) for r in ranges)))
        ok = not subspace_eq(fact_m.range_vectors(), base, tol)
        return _residual_trial(worst, 1.0, tol, extra_ok=ok, accept=False,
                               payload={"T": m},
                               note=None if ok else "non-EP matrix has range(|T|) == range(T)")
    ranges.append(fact_m.range_vectors())
    worst = max((yield "norm", tuple(projector_difference(r, base) for r in ranges)))
    return _residual_trial(worst, 1.0, tol, payload={"T": m})


def _check_thm2_15(ctx: _Ctx, drawn: _Drawn):
    """If range(T) = range(|T|) (= range(|T|^alpha), alpha in (0,1)) then T is EP."""
    tol = ctx.tol
    ((family, m),) = drawn.instances
    expected = family == "ep"
    (fact_m,) = yield "svd", (m,)
    base = fact_m.range_vectors()
    polar = polar_decomposition_of(fact_m)
    (half,) = fractional_abs_powers_of(polar, (0.5,), tol)
    modulus_range, half_range = map(
        SvdFactorization.range_vectors, (yield "svd", (polar.modulus_part, half))
    )
    hyp = subspace_eq(base, modulus_range, tol) and subspace_eq(base, half_range, tol)
    ep = range_corange_test(fact_m, tol)
    note = (f"hypothesis={hyp}, is_ep={ep}" if expected
            else "non-EP matrix satisfied range(T) = range(|T|)")
    return _pass_fail(hyp == ep == expected, {"T": m}, note, accept=expected)


def _scaled_perturbation(rng, t: np.ndarray) -> np.ndarray:
    """thm2.16's scaled S = c T, with |c| < DOMINANCE_BOUND.

    S meets both hypotheses ||Sx|| <= a ||Tx|| and ||S*x|| <= a ||T*x||
    exactly; thm2.16 certifies the pair with ``psd_dominates`` itself.
    """
    c = DOMINANCE_BOUND * rng.uniform(0.2, 0.95) * np.exp(2j * np.pi * rng.uniform())
    return c * t


def _confined_perturbation(rng, fact: SvdFactorization):
    """thm2.16's loose S for the T that ``fact`` factors, at norm 0.8 a gamma(T), as steps.

    A dense direction confined to map the carrier into the range, so
    ||Sx|| <= 0.8 a ||Tx|| on the carrier, Sx = 0 off it, and likewise for
    the adjoints.
    """
    r = fact.numerical_rank
    u, v = fact.left_vectors[:, :r], fact.right_vectors[:, :r]
    shape = (fact.rows, fact.cols)
    g = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    confined = (u @ u.conj().T) @ g @ (v @ v.conj().T)
    (norm,) = yield "norm", (confined,)
    eps = 0.8 * DOMINANCE_BOUND * reduced_min_modulus_of(fact) / max(norm, 1e-300)
    return eps * confined


def _check_thm2_16(ctx: _Ctx, drawn: _Drawn):
    """Certified dominated perturbations keep EP-ness (hypo-EP collapses to EP here)."""
    tol = ctx.tol
    squared = DOMINANCE_BOUND**2
    mode = drawn.t % 5
    rng = drawn.rng
    ((_, t_mat),) = drawn.instances
    if mode == 1:
        s = 2.0 * t_mat
        ta = adjoint(t_mat)
        dominated = psd_dominates(squared * (ta @ t_mat), adjoint(s) @ s, tol)
        return _pass_fail(not dominated, {"T": t_mat, "S": s},
                          "dominance certificate accepted a non-dominated pair", accept=False)
    if mode == 2:  # t_mat is a normal_ep draw
        s = DOMINANCE_BOUND * rng.uniform(0.2, 0.9) * t_mat
    elif mode == 3:
        (fact_t,) = yield "svd", (t_mat,)
        s = yield from _confined_perturbation(rng, fact_t)
    else:
        s = _scaled_perturbation(rng, t_mat)
    ta = adjoint(t_mat)
    sa = adjoint(s)
    cert = psd_dominates(squared * (ta @ t_mat), sa @ s, tol) and psd_dominates(
        squared * (t_mat @ ta), s @ sa, tol
    )
    (fact,) = yield "svd", (t_mat + s,)
    ep = range_corange_test(fact, tol)
    (gap,) = yield "norm", (projector_difference(fact.range_vectors(), fact.carrier_vectors()),)
    extra_ok = cert and ep
    return _residual_trial(gap, 1.0, tol, extra_ok=extra_ok,
                           payload={"T": t_mat, "S": s},
                           note=None if extra_ok else f"certificate={cert}, ep={ep}")


def _check_thm2_19(ctx: _Ctx, drawn: _Drawn):
    """EP iff T kills the corange and T* kills its own corange."""
    tol = ctx.tol
    ((family, m),) = drawn.instances
    expected = family == "ep"
    dim = m.shape[0]
    eye = np.eye(dim, dtype=np.complex128)
    madj = adjoint(m)
    # pinv(T*) from a factorization of its own, not from T's with U and V swapped.
    fact, fact_adj = yield "svd", (m, madj)
    mp = pseudoinverse_of(fact)
    madj_p = pseudoinverse_of(fact_adj)
    r1, r2 = yield "norm", (m @ (eye - m @ mp), madj @ (eye - madj @ madj_p))
    scale = 1.0 + fact.singular_values[0]
    pred = r1 <= tol.eq_atol * scale and r2 <= tol.eq_atol * scale
    ep = range_corange_test(fact, tol)
    if pred != expected or ep != expected or not expected:
        return _pass_fail(pred == ep == expected, {"T": m},
                          f"annihilation predicate={pred}, is_ep={ep}, expected {expected}",
                          accept=expected)
    return _residual_trial(max(r1, r2), scale, tol, payload={"T": m})


def _window_steps(terms, limit: np.ndarray, tol: ToleranceConfig):
    """Finite-window diagnostics for pseudoinverse convergence of a sequence, as steps.

    Conditions mirror the three equivalent statements for T_k -> T with
    closed ranges: (a) pinv convergence, (b) convergence of T_k+ T_k, and
    (c) uniform boundedness of ||T_k+||.  On a finite window these are
    decided by scale-free ratios: the tail must shrink below a quarter of
    the head (a, b) and the pinv norms may not spread by more than 10x (c).

    Each term is factored once, and ||T_k+|| = 1 / gamma(T_k) (0.0 at rank
    0) is read from that factorization.  The verdict reads T_k+ itself only
    at the first term and the last six: the gaps to the limit at the two
    ends and the last five successive differences.  Those seven terms get
    a full SVD and their pseudoinverse, in one request with the limit; the
    others get the values-only SVD.  Returns ``(conditions, diagnostics)``.
    """
    n = len(terms)
    tail = range(max(n - 6, 0), n)
    full = sorted({0, *tail})
    values_only = range(1, tail.start)
    facts = yield "svd", (limit, *(terms[k] for k in full))
    # Each factorization is dropped once its pseudoinverse is formed.
    limit_pinv = pseudoinverse_of(facts.pop(0))
    limit_proj = limit_pinv @ limit
    pinvs = {}
    spectra = {}
    for k in full:
        fact = facts.pop(0)
        pinvs[k] = pseudoinverse_of(fact)
        spectra[k] = fact.singular_values, fact.numerical_rank
    del fact
    spectra.update(zip(values_only, (yield "values", tuple(terms[k] for k in values_only))))
    pinv_norms = []
    for k in range(n):
        s, r = spectra[k]
        pinv_norms.append(_pinv_norm(_gamma(s, r)))
    ends = (0, n - 1)
    norms = yield "norm", (
        *(pinvs[k] - limit_pinv for k in ends),
        *(pinvs[k] @ terms[k] - limit_proj for k in ends),
        *(pinvs[k] - pinvs[k - 1] for k in tail[1:]),
    )
    gaps, proj_gaps, successive = norms[:2], norms[2:4], norms[4:]
    sup_norm = max(pinv_norms)
    growth_ratio = sup_norm / max(min(pinv_norms), 1e-300)
    cond_c = growth_ratio <= 10.0
    cond_a = gaps[-1] <= max(0.25 * gaps[0], 10.0 * tol.eq_atol * (1.0 + sup_norm))
    cond_b = proj_gaps[-1] <= max(0.25 * proj_gaps[0], 10.0 * tol.eq_atol * 2.0)
    diag = {
        "window": n,
        "sup_pinv_norm": sup_norm,
        "pinv_norm_growth_ratio": growth_ratio,
        "first_pinv_gap": gaps[0],
        "final_pinv_gap": gaps[-1],
        "final_projector_gap": proj_gaps[-1],
        "min_successive_pinv_gap_tail": min(successive, default=0.0),
        "cond_a_holds": cond_a,
        "cond_b_holds": cond_b,
        "cond_c_holds": cond_c,
    }
    return (cond_a, cond_b, cond_c), diag


def _check_thm1_5(ctx: _Ctx, drawn: _Drawn):
    """Pseudoinverse convergence equivalences on convergent matrix windows."""
    tol = ctx.tol
    spec = ctx.spec
    if drawn.instances:
        ((_, limit),) = drawn.instances
        terms = tuple((1.0 + 1.0 / k) * limit for k in range(1, SEQUENCE_LENGTH + 1))
        conds, diag = yield from _window_steps(terms, limit, tol)
        diag["kind"] = "fixed_range_scaling"
        ok = all(conds)
        return _pass_fail(ok, {"T": limit}, f"positive sequence conditions {conds}",
                          details={"positive_example": diag})
    if ctx.thm1_5_control is None:
        # Driven here, without yielding, so that the trials in lockstep with
        # this one find it done and none starts it again.
        ambient = max(spec.dim, 16)
        terms = tuple(harmonic_truncation(k, ambient) for k in range(1, ambient))
        limit = harmonic_truncation(ambient, ambient)
        conds, diag = _lockstep([_window_steps(terms, limit, tol)], tol)[0]
        diag["kind"] = "harmonic_truncations"
        diag["ambient_dim"] = ambient
        ctx.thm1_5_control = (conds, diag, limit)
    conds, diag, limit = ctx.thm1_5_control
    return _pass_fail(not any(conds), {"T_limit": limit},
                      f"divergent sequence conditions {conds}", accept=False,
                      details={"negative_example": dict(diag)})


def _membership_term(rng, base: np.ndarray, rotate: bool):
    """``(term, limit)``, as steps: term k = SEQUENCE_LENGTH of a sequence converging to an EP limit L.

    L is the ep draw ``base`` scaled so that gamma(L) lies in [delta, 2 delta).
    Term k is (1 + 2^-k) L, or, when ``rotate``, q L q* for the Cayley unitary
    q = (I - X)(I + X)^-1 of a skew-Hermitian X of norm 2^-k.  Every term is
    EP with gamma >= delta by construction; only term k is built, untested.
    ``run_theorem_check`` requires rank >= 1, so the draw's gamma is positive.
    """
    ((s, r),) = yield "values", (base,)
    gamma0 = _gamma(s, r)
    target = EP_MEMBERSHIP_DELTA * (1.0 + rng.uniform(0.0, 1.0))
    limit = base * (target / gamma0)
    step = 2.0**-SEQUENCE_LENGTH
    if not rotate:
        return (1.0 + step) * limit, limit
    g = rng.standard_normal(limit.shape) + 1j * rng.standard_normal(limit.shape)
    skew = (g - g.conj().T) / 2.0
    (norm,) = yield "norm", (skew,)
    x = step * (skew / max(norm, 1e-300))
    eye = np.eye(limit.shape[0], dtype=np.complex128)
    q = (eye - x) @ _inverse(eye + x)
    return q @ limit @ q.conj().T, limit


def _check_thm3_2(ctx: _Ctx, drawn: _Drawn):
    """Norm limits of EP matrices with gamma >= delta stay EP with gamma >= delta."""
    tol = ctx.tol
    delta = EP_MEMBERSHIP_DELTA
    ((_, base),) = drawn.instances
    term, limit = yield from _membership_term(drawn.rng, base, rotate=drawn.t % 2 == 1)
    (fact,) = yield "svd", (limit,)
    # The term lies within about 2^-50 ||limit|| of the limit plus roundoff
    # of the order of eps ||limit||, so the bound scales with it.
    if not norm2_at_most(term - limit, 1e-9 * (1.0 + fact.singular_values[0])):
        return _pass_fail(False, {"T": limit}, "sequence failed to converge to its declared limit")
    ep = range_corange_test(fact, tol)
    gamma = reduced_min_modulus_of(fact)
    ok = ep and gamma >= delta - 1e-9
    return _Trial(ok, max(0.0, delta - gamma), payload={"T": limit},
                  note=f"limit is_ep={ep}, gamma={gamma}")


def _check_thm3_4(ctx: _Ctx, drawn: _Drawn):
    """gamma <= spectral radius for EP matrices; nilpotent control violates it."""
    tol = ctx.tol
    if not drawn.instances:
        control = np.zeros((2, 2), dtype=np.complex128)
        control[0, 1] = 1.0
        (fact,) = yield "svd", (control,)
        ep = range_corange_test(fact, tol)
        gamma = reduced_min_modulus_of(fact)
        radius = spectral_radius(control)
        excluded = (not ep) and gamma > radius
        details = {
            "nilpotent_control": {
                "gamma": gamma,
                "spectral_radius": radius,
                "is_ep": ep,
                "violates_inequality": bool(gamma > radius),
            },
        }
        return _pass_fail(excluded, {"T": control},
                          "nilpotent control was not excluded", accept=False, details=details)
    ((_, m),) = drawn.instances
    if drawn.t % 2 == 0:
        (fact,) = yield "svd", (m,)
        gamma = reduced_min_modulus_of(fact)
        radius = spectral_radius(m)
        residual = max(0.0, gamma - radius)
        # A zero residual passes at every scale; only a positive one needs ||m||.
        ok = range_corange_test(fact, tol)
        if ok and residual > 0.0:
            ok = residual <= 1e-10 * (1.0 + fact.singular_values[0])
        return _Trial(ok, residual, payload={"T": m},
                      note=f"gamma={gamma} exceeds spectral radius={radius}")
    # The norm chain reads only gamma and ||T|| of each power: values-only SVDs.
    square = m @ m
    (s, r), *spectra = yield "values", (m, square, square @ m)
    gamma1 = _gamma(s, r)
    norm = float(s[0])
    worst = 0.0
    for n, (s_n, r_n) in zip((2, 3), spectra):
        gamma_n = _gamma(s_n, r_n)
        bound = norm ** (n - 1) * gamma1 + 10.0 * tol.eq_atol * (1.0 + norm) ** n
        worst = max(worst, gamma_n - bound)
    ok = worst <= 0.0
    return _Trial(ok, max(0.0, worst), payload={"T": m},
                  note="gamma of a power exceeded the norm-chain bound")


# ---------------------------------------------------------------------------
# Dispatch table and runner
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _CheckerEntry:
    # The trial body: a step generator of ``core._lockstep`` that returns
    # the trial's ``_Trial``.
    fn: Callable[[_Ctx, _Drawn], Generator]
    # The families trial t draws before its body runs, as (family, cond)
    # pairs; a cond that is not None caps the spec's condition bound.
    draws: Callable[[int], tuple]
    # The fewest trials whose schedule reaches both directions; 1 for thm3.2,
    # which has only an accepting one.  thm2.12 picks its direction from the
    # data, so a run that still misses one says so in a note.
    min_trials: int
    static_notes: tuple[str, ...] = ()
    # What the verifier needs of the spec beyond the shared checks, as
    # (holds(spec), message) pairs, checked before trial 0.
    requires: tuple = ()


def _cycle(*families: str, cond: float | None = None) -> Callable[[int], tuple]:
    """The schedule in which trial t draws one instance of families[t % len(families)]."""
    return lambda t: ((families[t % len(families)], cond),)


_CHECKERS: dict[str, _CheckerEntry] = {
    "thm1.5": _CheckerEntry(
        _check_thm1_5, lambda t: () if t % 2 else (("ep", None),), 2,
        ("pinv convergence is tested against the limit's pseudoinverse "
         "(the printed statement omits the dagger on the limit)",),
    ),
    "thm2.1": _CheckerEntry(_check_thm2_1, _cycle("ep", "non_ep"), 2),
    "thm2.2": _CheckerEntry(
        _check_thm2_2, lambda t: (("ep", None), ("non_ep" if t % 2 else "ep", None)), 2,
        requires=((lambda spec: 2 * spec.dim <= MAX_DIM,
                   f"thm2.2 needs 2 * dim <= {MAX_DIM}: it factors the direct sum of two "
                   "dim x dim draws"),),
    ),
    "thm2.3": _CheckerEntry(_check_thm2_3, _cycle("ep", "non_ep"), 2),
    "thm2.4": _CheckerEntry(_check_thm2_4, _cycle("ep", "non_ep"), 2),
    "thm2.5": _CheckerEntry(_check_thm2_5, _cycle("ep"), 3),
    "thm2.6": _CheckerEntry(
        _check_thm2_6, _cycle("ep", "non_ep", cond=30.0), 2,
        ("rejecting direction tests NOT(square EP with unchanged range): a "
         "power of a non-EP matrix may itself be EP (nilpotents square to 0)",),
    ),
    "thm2.7": _CheckerEntry(
        _check_thm2_7, lambda t: (("non_ep" if t % 8 == 1 else "ep", None),), 2
    ),
    "thm2.12": _CheckerEntry(
        _check_thm2_12,
        lambda t: (("aligned_ep_pair", None),) if t % 2 else (("ep", None), ("ep", None)), 2,
        ("adjoint matrix-representation hypothesis is vacuous in finite "
         "dimension and not checked",),
        # Invertible S and T: ST keeps range and null space.
        requires=((lambda spec: spec.rank < spec.dim,
                   "thm2.12 needs rank < dim: at full rank no instance rejects"),),
    ),
    "thm2.13": _CheckerEntry(_check_thm2_13, _cycle("ep", "non_ep", "normal_ep"), 2),
    "thm2.15": _CheckerEntry(_check_thm2_15, _cycle("ep", "non_ep"), 2),
    "thm2.16": _CheckerEntry(
        _check_thm2_16, lambda t: (("normal_ep" if t % 5 == 2 else "ep", None),), 2,
        ("hypo-EP and EP coincide in finite dimension; both conclusions are "
         "checked on the same instances",),
    ),
    "thm2.19": _CheckerEntry(_check_thm2_19, _cycle("ep", "non_ep"), 2),
    "thm3.2": _CheckerEntry(
        _check_thm3_2, _cycle("ep"), 1,
        ("sequence terms are EP with gamma >= delta by construction; "
         "delta = 0.1",),
    ),
    "thm3.4": _CheckerEntry(
        _check_thm3_4,
        lambda t: () if t % 10 == 1 else (("ep", None if t % 2 == 0 else 30.0),), 2,
    ),
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


def require_runnable(theorem_id: str, spec: GeneratorSpec, trials: int) -> None:
    """Raise before any trial if ``run_theorem_check`` cannot run this verifier at the spec.

    Raises UnknownTheorem for ids outside the dispatch table and InvalidSpec
    for runs the verifier cannot exercise: all verifiers need rank >= 1,
    two-direction verifiers need dim >= 2 for the non-EP control family
    and enough trials for their schedule to reach both directions
    (``_CheckerEntry.min_trials``), and a verifier may need more of the
    spec (``_CheckerEntry.requires``): thm2.2 a direct sum within the cap,
    thm2.12 rank < dim, where a rejecting instance exists.
    """
    entry = _CHECKERS.get(theorem_id)
    if entry is None:
        raise UnknownTheorem(
            f"unknown theorem id {theorem_id!r}; known: {', '.join(THEOREM_IDS)}"
        )
    require_int("trials", trials)
    if trials < entry.min_trials:
        raise InvalidSpec(
            f"{theorem_id} needs trials >= {entry.min_trials} to reach every direction "
            f"it checks, got {trials}"
        )
    if spec.rank < 1:
        raise InvalidSpec("theorem verifiers need rank >= 1 (the zero matrix is treated separately)")
    if entry.min_trials > 1 and spec.dim < 2:
        raise InvalidSpec("two-direction verifiers need dim >= 2 for the control family")
    for holds, message in entry.requires:
        if not holds(spec):
            raise InvalidSpec(message)


def _lockstep_group(dim: int) -> int:
    """How many consecutive trials of a run go through one ``core._lockstep`` call.

    As many as thm1.5's windows, SEQUENCE_LENGTH dim x dim terms each, fill
    ``_STACK_ENTRIES`` entries, and at least one: every trial of a group
    holds its matrices until the group ends, and a window is the most a
    trial holds.  At dim 8 a group holds 20 trials, at dim 32 and above one.
    """
    return max(1, _STACK_ENTRIES // (SEQUENCE_LENGTH * dim * dim))


def _trial(entry: _CheckerEntry, ctx: _Ctx, salt: int, t: int):
    """Trial t of a run, as steps: draws from ``default_rng([seed, salt, t])``, then its body."""
    rng = np.random.default_rng([ctx.spec.seed, salt, t])
    instances = yield from _draw(ctx.spec, rng, entry.draws(t))
    return (yield from entry.fn(ctx, _Drawn(t, rng, instances)))


def run_theorem_check(
    theorem_id: str,
    spec: GeneratorSpec,
    trials: int,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> TheoremVerdict:
    """Run one theorem verifier over ``trials`` generated instances.

    The spec supplies dimension, rank, conditioning and the master seed; each
    verifier schedules its own accepting and control families across the
    trial indices.  Raises, before trial 0, what ``require_runnable`` raises.
    """
    require_runnable(theorem_id, spec, trials)
    entry = _CHECKERS[theorem_id]
    salt = THEOREM_IDS.index(theorem_id)
    ctx = _Ctx(spec=spec, tol=tol)
    start = time.perf_counter()
    failures = 0
    warnings = 0
    worst = 0.0
    counterexample = None
    accepting = 0
    rejecting = 0
    details: dict = {}
    group = _lockstep_group(spec.dim)
    for first in range(0, trials, group):
        ts = range(first, min(first + group, trials))
        outcomes = _lockstep([_trial(entry, ctx, salt, t) for t in ts], tol)
        for t, trial in zip(ts, outcomes):
            accepting += trial.accept
            rejecting += not trial.accept
            worst = max(worst, trial.residual)
            if trial.warn:
                warnings += 1
            if not trial.ok:
                failures += 1
                if counterexample is None:
                    counterexample = _counterexample_payload(t, trial)
            for key, value in (trial.details or {}).items():
                details.setdefault(key, value)
        # Drop the group's outcomes before the next group runs.
        del outcomes
    elapsed_ms = int(round((time.perf_counter() - start) * 1000.0))

    notes = list(entry.static_notes)
    if entry.min_trials > 1 and (accepting == 0 or rejecting == 0):
        notes.append(
            "configuration error: verifier saw "
            f"{accepting} accepting and {rejecting} rejecting instances"
        )
    details["accepting_trials"] = accepting
    details["rejecting_trials"] = rejecting
    return TheoremVerdict(
        theorem_id=theorem_id,
        trials=int(trials),  # a numpy integer would not encode as JSON
        failures=failures,
        worst_residual=float(worst),
        counterexample=counterexample,
        elapsed_ms=elapsed_ms,
        warnings=warnings,
        notes=tuple(notes),
        details=details,
    )
