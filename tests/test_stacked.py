"""Stacked kernels give every matrix of a stack the bits it gets on its own.

Comparisons here are exact (np.array_equal / ==), not within a tolerance:
seeded reports must stay byte-identical when a loop over matrices becomes
one stacked call.
"""

import numpy as np
import pytest

from epkit import (
    GeneratorSpec,
    gen_matrix,
    harmonic_truncation,
    is_ep,
    is_hypo_ep,
    pseudoinverse,
    svd,
)
from epkit.classify import range_corange_test
from epkit.core import SvdFactorization, norm2
from epkit.harness import SEQUENCE_LENGTH, _window_conditions


def complex_normal(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestNorm2:
    @pytest.mark.parametrize("shape", [(1, 1), (8, 8), (32, 32), (5, 3), (3, 7)])
    def test_matches_numpy_two_norm_bit_for_bit(self, rng, shape):
        m = complex_normal(rng, shape)
        got = norm2(m)
        assert type(got) is float
        assert got == np.linalg.norm(m, 2)

    def test_zero_matrix(self):
        z = np.zeros((4, 6), dtype=np.complex128)
        assert norm2(z) == np.linalg.norm(z, 2) == 0.0

    def test_real_input(self, rng):
        m = rng.standard_normal((6, 6))
        assert norm2(m) == np.linalg.norm(m, 2)

    def test_stack_matches_each_matrix(self, rng):
        stack = complex_normal(rng, (50, 8, 8))
        stack[7] = 0.0
        got = norm2(stack)
        assert got.shape == (50,)
        assert np.array_equal(got, [np.linalg.norm(m, 2) for m in stack])


class TestStackedSvd:
    def test_factors_and_ranks_match_each_matrix(self):
        stack = np.stack([harmonic_truncation(k, 16) for k in range(1, 16)])
        fact = svd(stack)
        assert np.array_equal(fact.numerical_rank, np.arange(1, 16))
        for i, m in enumerate(stack):
            one = svd(m)
            assert one.numerical_rank == fact.numerical_rank[i]
            assert np.array_equal(one.left_vectors, fact.left_vectors[i])
            assert np.array_equal(one.singular_values, fact.singular_values[i])
            assert np.array_equal(one.right_vectors, fact.right_vectors[i])

    def test_single_matrix_rank_is_an_int(self, rng):
        assert type(svd(complex_normal(rng, (4, 4))).numerical_rank) is int


class TestStackedPseudoinverse:
    def test_mixed_rank_harmonic_truncations(self):
        terms = [harmonic_truncation(k, 16) for k in range(1, 16)]
        stacked = pseudoinverse(np.stack(terms))
        assert stacked.shape == (15, 16, 16)
        for i, term in enumerate(terms):
            assert np.array_equal(stacked[i], pseudoinverse(term))

    def test_uniform_rank_window_with_a_zero_matrix(self):
        t = gen_matrix(GeneratorSpec(dim=8, rank=6, seed=3))
        terms = [(1.0 + 1.0 / k) * t for k in range(1, 51)] + [np.zeros((8, 8))]
        stacked = pseudoinverse(np.stack(terms))
        for i, term in enumerate(terms):
            assert np.array_equal(stacked[i], pseudoinverse(term))

    def test_rectangular_stack(self, rng):
        stack = complex_normal(rng, (5, 6, 3))
        stacked = pseudoinverse(stack)
        assert stacked.shape == (5, 3, 6)
        for i, m in enumerate(stack):
            assert np.array_equal(stacked[i], pseudoinverse(m))


class TestRangeCorangeTest:
    def test_stack_verdicts_match_each_matrix(self):
        matrices = [
            gen_matrix(GeneratorSpec(dim=6, rank=rank, seed=seed, family=family))
            for seed in range(4)
            for family, rank in (("ep", 4), ("non_ep", 3), ("normal_ep", 2), ("ep", 0))
        ]
        fact = svd(np.stack(matrices))
        slices = [
            SvdFactorization(
                left_vectors=fact.left_vectors[i],
                singular_values=fact.singular_values[i],
                right_vectors=fact.right_vectors[i],
                numerical_rank=int(fact.numerical_rank[i]),
            )
            for i in range(len(matrices))
        ]
        verdicts = [range_corange_test(f) for f in slices]
        assert verdicts == [(is_ep(m), is_hypo_ep(m)) for m in matrices]
        assert [ep for ep, _ in verdicts] == [True, False, True, True] * 4

    def test_single_factorization_gives_bools(self):
        m = gen_matrix(GeneratorSpec(dim=5, rank=2, seed=1, family="non_ep"))
        assert range_corange_test(svd(m)) == (False, False)


def window_conditions_loop(terms, limit, tol):
    """The term-by-term window diagnostics that the stacked version replaces."""
    limit_pinv = pseudoinverse(limit, tol)
    limit_proj = limit_pinv @ limit
    pinv_norms, gaps, proj_gaps, successive = [], [], [], []
    prev = None
    for term in terms:
        tp = pseudoinverse(term, tol)
        pinv_norms.append(float(np.linalg.norm(tp, 2)))
        gaps.append(float(np.linalg.norm(tp - limit_pinv, 2)))
        proj_gaps.append(float(np.linalg.norm(tp @ term - limit_proj, 2)))
        if prev is not None:
            successive.append(float(np.linalg.norm(tp - prev, 2)))
        prev = tp
    sup_norm = max(pinv_norms)
    growth_ratio = sup_norm / max(min(pinv_norms), 1e-300)
    cond_c = growth_ratio <= 10.0
    cond_a = gaps[-1] <= max(0.25 * gaps[0], 10.0 * tol.eq_atol * (1.0 + sup_norm))
    cond_b = proj_gaps[-1] <= max(0.25 * proj_gaps[0], 10.0 * tol.eq_atol * 2.0)
    diag = {
        "window": len(terms),
        "sup_pinv_norm": sup_norm,
        "pinv_norm_growth_ratio": growth_ratio,
        "first_pinv_gap": gaps[0],
        "final_pinv_gap": gaps[-1],
        "final_projector_gap": proj_gaps[-1],
        "min_successive_pinv_gap_tail": min(successive[-5:]) if successive else 0.0,
        "cond_a_holds": cond_a,
        "cond_b_holds": cond_b,
        "cond_c_holds": cond_c,
    }
    return (cond_a, cond_b, cond_c), diag


class TestStackedWindowConditions:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_convergent_window(self, tol, seed):
        seq = gen_matrix(GeneratorSpec(dim=8, rank=6, seed=seed, family="sequence"))
        got = _window_conditions(seq.terms, seq.limit, tol)
        assert got == window_conditions_loop(seq.terms, seq.limit, tol)
        assert got[0] == (True, True, True)

    def test_harmonic_truncations(self, tol):
        terms = tuple(harmonic_truncation(k, 16) for k in range(1, 16))
        limit = harmonic_truncation(16, 16)
        got = _window_conditions(terms, limit, tol)
        assert got == window_conditions_loop(terms, limit, tol)
        assert got[0] == (False, False, False)

    def test_single_term_window(self, tol):
        t = gen_matrix(GeneratorSpec(dim=4, rank=2, seed=5))
        got = _window_conditions((2.0 * t,), t, tol)
        assert got == window_conditions_loop((2.0 * t,), t, tol)
        assert got[1]["min_successive_pinv_gap_tail"] == 0.0


def window_conditions_full_window(terms, limit, tol):
    """The stacked window diagnostics with all four norms over the whole window.

    ``_window_conditions`` takes the gaps only at the two ends of the window
    and the successive differences only over its last five steps, since the
    verdict reads no others; this is the version that took them all.
    """
    limit_pinv = pseudoinverse(limit, tol)
    limit_proj = limit_pinv @ limit
    window = np.stack(terms)
    pinvs = pseudoinverse(window, tol)
    pinv_norms = norm2(pinvs)
    gaps = norm2(pinvs - limit_pinv)
    proj_gaps = norm2(pinvs @ window - limit_proj)
    successive = norm2(pinvs[1:] - pinvs[:-1])
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
        "min_successive_pinv_gap_tail": float(successive[-5:].min()) if successive.size else 0.0,
        "cond_a_holds": cond_a,
        "cond_b_holds": cond_b,
        "cond_c_holds": cond_c,
    }
    return (cond_a, cond_b, cond_c), diag


def fixed_range_window(length):
    seq = gen_matrix(GeneratorSpec(dim=8, rank=6, seed=4, family="sequence"))
    return seq.terms[:length], seq.limit


def harmonic_window(length):
    ambient = max(length + 1, 16)
    terms = tuple(harmonic_truncation(k, ambient) for k in range(1, length + 1))
    return terms, harmonic_truncation(ambient, ambient)


class TestWindowReadsOnlyWhatTheVerdictUses:
    # Lengths around the six-term tail of successive differences, the
    # one- and two-term windows whose two ends coincide or touch, and the
    # verifier's own window.
    @pytest.mark.parametrize("length", [1, 2, 5, 6, 7, SEQUENCE_LENGTH])
    @pytest.mark.parametrize("window", [fixed_range_window, harmonic_window])
    def test_bit_equal_to_the_full_window_norms(self, tol, window, length):
        terms, limit = window(length)
        conds, diag = _window_conditions(terms, limit, tol)
        ref_conds, ref_diag = window_conditions_full_window(terms, limit, tol)
        assert conds == ref_conds
        assert diag == ref_diag
        assert list(diag) == list(ref_diag)
