"""Property-based invariants over both arbitrary and generator-built matrices.

Residual bounds like 1e-10 * (1 + ||M||) are contractual only for instances
from the conditioned generator families (an adversarial near-rank-deficient
matrix can push rounding past any fixed tolerance), so those properties draw
a family and a spec for gen_matrix; structural identities (adjoint
involution, rank nullity, conjugate spectra) run on arbitrary finite
matrices.
"""

import numpy as np
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from epkit import (
    DEFAULT_TOL,
    GeneratorSpec,
    adjoint,
    classify,
    direct_sum,
    eigenvalues,
    fractional_abs_power,
    gen_matrix,
    is_ep,
    is_hypo_ep,
    null_basis,
    operator_norm,
    penrose_residuals,
    polar_decomposition,
    pseudoinverse,
    range_basis,
    reduced_min_modulus,
    subspace_eq,
    svd,
)

TOL = DEFAULT_TOL


def complex_matrices(max_dim=6, square=False):
    if square:
        shapes = st.integers(1, max_dim).map(lambda n: (n, n))
    else:
        shapes = st.tuples(st.integers(1, max_dim), st.integers(1, max_dim))
    return shapes.flatmap(
        lambda shape: arrays(
            np.float64,
            (2, *shape),
            elements=st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False),
        ).map(lambda parts: parts[0] + 1j * parts[1])
    )


@st.composite
def generated_draws(draw, families=("ep", "non_ep", "normal_ep"), max_cond=1000.0):
    """``(family, spec)``: the arguments of one gen_matrix call."""
    family = draw(st.sampled_from(families))
    dim = draw(st.integers(2, 8))
    max_rank = dim - 1 if family == "non_ep" else dim
    rank = draw(st.integers(1, max_rank))
    cond = draw(st.sampled_from([c for c in (1.0, 10.0, 100.0, 1000.0) if c <= max_cond]))
    seed = draw(st.integers(0, 2**32 - 1))
    return family, GeneratorSpec(dim=dim, rank=rank, condition_bound=cond, seed=seed)


@settings(max_examples=40, deadline=None)
@given(case=generated_draws())
def test_penrose_residuals_on_generated_instances(case):
    m = gen_matrix(*case)
    residuals = penrose_residuals(m, pseudoinverse(m, TOL))
    assert max(residuals.values()) <= 1e-10 * (1.0 + operator_norm(m))


@settings(max_examples=40, deadline=None)
@given(case=generated_draws())
def test_gamma_is_reciprocal_pinv_norm(case):
    m = gen_matrix(*case)
    gamma = reduced_min_modulus(m, TOL)
    assert abs(gamma * operator_norm(pseudoinverse(m, TOL)) - 1.0) <= 1e-10


@settings(max_examples=30, deadline=None)
@given(case=generated_draws())
def test_pinv_preserves_rank_exactly(case):
    m = gen_matrix(*case)
    assert svd(pseudoinverse(m, TOL), TOL).numerical_rank == svd(m, TOL).numerical_rank


@settings(max_examples=30, deadline=None)
@given(m=complex_matrices())
def test_adjoint_is_an_exact_involution(m):
    assert np.array_equal(adjoint(adjoint(m)), m)


@settings(max_examples=30, deadline=None)
@given(m=complex_matrices(max_dim=5), n=complex_matrices(max_dim=5))
def test_operator_norm_submultiplicative(m, n):
    if m.shape[1] != n.shape[0]:
        n = n.T if n.shape[1] == m.shape[1] else np.zeros((m.shape[1], 2))
    product_norm = operator_norm(m @ n)
    assert product_norm <= operator_norm(m) * operator_norm(n) * (1.0 + 1e-12) + 1e-300


@settings(max_examples=30, deadline=None)
@given(m=complex_matrices())
def test_rank_nullity_is_exact(m):
    assert range_basis(m, TOL).shape[1] + null_basis(m, TOL).shape[1] == m.shape[1]


def defective_6x6():
    """A 6 x 6 matrix whose zero eigenvalue is triple and defective.

    Its computed spectrum and the conjugate of its adjoint's spectrum lie
    1.4e-6 apart, since the forward error of a defective triple eigenvalue
    grows like eps^(1/3); every backward residual stays near eps.
    """
    m = np.full((6, 6), 1 + 1j)
    m[1, 4] = m[2, 0] = 1j
    m[3, 2] = m[4, 5] = 1
    return m


def conjugates_are_approximate_eigenvalues(m, vals) -> bool:
    """Whether every conj(mu) for mu in vals is an eigenvalue of m + E, ||E|| within bound.

    The eigenvalues LAPACK computes for an n x n matrix A are exact for
    some A + E with ||E||_2 <= p(n) eps ||A||_2, p(n) a modest function of
    n (LAPACK Users' Guide, 3rd ed., section 4.8; Golub & Van Loan,
    4th ed., section 7.5.6).  conj(mu) is then an exact eigenvalue of
    M + E* for mu from M*, so sigma_min(M - conj(mu) I) <= ||E||.  The
    computed sigma_min is itself backward stable (section 4.9), off by at
    most p(n) eps ||M - conj(mu) I||_2 <= p(n) eps (||M|| + |mu|).  With
    p(n) = 10 n, the residual may reach 10 n eps (2 ||M|| + |mu|).
    """
    n = m.shape[0]
    norm = operator_norm(m)
    p_eps = 10 * n * np.finfo(np.float64).eps
    eye = np.eye(n)
    return all(
        np.linalg.svd(m - np.conj(mu) * eye, compute_uv=False)[-1]
        <= p_eps * (2.0 * norm + abs(mu))
        for mu in vals
    )


@settings(max_examples=30, deadline=None)
@given(m=complex_matrices(square=True))
@example(m=defective_6x6())
def test_adjoint_spectrum_is_conjugate(m):
    # A forward bound on the spectra's gap fails at a defective eigenvalue,
    # so both directions are checked by backward error.
    assert conjugates_are_approximate_eigenvalues(m, eigenvalues(adjoint(m)))
    assert conjugates_are_approximate_eigenvalues(adjoint(m), eigenvalues(m))


@settings(max_examples=30, deadline=None)
@given(m=complex_matrices(square=True))
def test_hypo_ep_collapses_to_ep(m):
    assert is_hypo_ep(m, TOL) == is_ep(m, TOL)


@settings(max_examples=25, deadline=None)
@given(case_a=generated_draws(max_cond=100.0), case_b=generated_draws(max_cond=100.0))
def test_direct_sum_gamma_law(case_a, case_b):
    a, b = gen_matrix(*case_a), gen_matrix(*case_b)
    expected = min(reduced_min_modulus(a, TOL), reduced_min_modulus(b, TOL))
    assert abs(reduced_min_modulus(direct_sum(a, b), TOL) - expected) <= 1e-12


@settings(max_examples=25, deadline=None)
@given(case=generated_draws(max_cond=100.0))
def test_polar_partial_isometry_law(case):
    m = gen_matrix(*case)
    u = polar_decomposition(m, TOL).isometry_part
    assert np.linalg.norm(u @ adjoint(u) @ u - u, 2) <= TOL.eq_atol


@settings(max_examples=20, deadline=None)
@given(case=generated_draws(max_cond=100.0))
def test_fractional_power_range_stability(case):
    m = gen_matrix(*case)
    base = range_basis(polar_decomposition(m, TOL).modulus_part, TOL)
    for alpha in (0.25, 0.5, 1.0, 1.5, 2.0, 3.0):
        assert subspace_eq(range_basis(fractional_abs_power(m, alpha, TOL), TOL), base, TOL)


@settings(max_examples=25, deadline=None)
@given(case=generated_draws(families=("ep",)))
def test_ep_instances_have_commuting_pinv(case):
    rep = classify(gen_matrix(*case), TOL)
    assert rep.is_ep
    assert rep.commutator_residual <= TOL.eq_atol
