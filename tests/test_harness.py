import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import epkit
from epkit import (
    DimensionMismatch,
    GeneratorSpec,
    InvalidSpec,
    MatrixSequence,
    NotHermitian,
    THEOREM_IDS,
    TheoremVerdict,
    UnknownTheorem,
    adjoint,
    classify,
    gen_matrix,
    is_ep,
    is_normal,
    operator_norm,
    psd_dominates,
    run_theorem_check,
)
from epkit.serialize import verdict_from_payload, verdict_to_payload


def spec(**kwargs):
    base = dict(dim=6, rank=4, condition_bound=50.0, seed=7, family="ep")
    base.update(kwargs)
    return GeneratorSpec(**base)


class TestGeneratorSpec:
    def test_rejects_rank_above_dim(self):
        with pytest.raises(InvalidSpec):
            GeneratorSpec(dim=3, rank=4)

    def test_rejects_bad_condition(self):
        with pytest.raises(InvalidSpec):
            GeneratorSpec(dim=3, rank=2, condition_bound=0.5)

    def test_rejects_unknown_family(self):
        with pytest.raises(InvalidSpec):
            GeneratorSpec(dim=3, rank=2, family="weird")

    def test_rejects_full_rank_non_ep(self):
        with pytest.raises(InvalidSpec):
            GeneratorSpec(dim=3, rank=3, family="non_ep")


class TestGenMatrix:
    def test_ep_full_rank_is_invertible_ep(self, tol):
        m = gen_matrix(spec(dim=4, rank=4, seed=3))
        assert m.shape == (4, 4)
        assert is_ep(m, tol)
        assert classify(m, tol).rank == 4

    def test_non_ep_dim_two(self, tol):
        m = gen_matrix(spec(dim=2, rank=1, family="non_ep", seed=5))
        assert not is_ep(m, tol)

    def test_condition_bound_respected(self, tol):
        m = gen_matrix(spec(dim=5, rank=5, condition_bound=20.0, seed=9))
        rep = classify(m, tol)
        assert operator_norm(m) / rep.gamma <= 20.0 * (1.0 + 1e-10)

    def test_same_seed_bit_identical(self):
        a = gen_matrix(spec(seed=11))
        b = gen_matrix(spec(seed=11))
        assert np.array_equal(a, b)
        s1 = gen_matrix(spec(seed=11, family="sequence"))
        s2 = gen_matrix(spec(seed=11, family="sequence"))
        assert np.array_equal(s1.limit, s2.limit)
        assert all(np.array_equal(x, y) for x, y in zip(s1.terms, s2.terms))

    def test_normal_ep_family(self, tol):
        m = gen_matrix(spec(family="normal_ep", seed=13))
        assert is_normal(m, tol) and is_ep(m, tol)

    def test_commuting_pair_commutes(self, tol):
        t, s = gen_matrix(spec(family="commuting_pair", seed=17))
        scale = (1.0 + operator_norm(s)) * (1.0 + operator_norm(t))
        assert np.linalg.norm(s @ t - t @ s, 2) <= 10 * tol.eq_atol * scale

    def test_perturbation_pair_is_certified(self, tol):
        t, s = gen_matrix(spec(family="perturbation_pair", seed=19))
        ta, sa = adjoint(t), adjoint(s)
        assert psd_dominates(0.25 * (ta @ t), sa @ s, tol)
        assert psd_dominates(0.25 * (t @ ta), s @ sa, tol)

    def test_product_pair_both_ep(self, tol):
        s, t = gen_matrix(spec(family="product_pair", seed=23))
        assert is_ep(s, tol) and is_ep(t, tol)

    def test_sequence_converges_to_declared_limit(self, tol):
        seq = gen_matrix(spec(family="sequence", seed=29))
        assert isinstance(seq, MatrixSequence)
        assert len(seq.terms) == 50
        gaps = [np.linalg.norm(term - seq.limit, 2) for term in seq.terms]
        assert gaps == sorted(gaps, reverse=True)
        assert is_ep(seq.limit, tol)


class TestPsdDominates:
    def test_identity_dominates_zero(self, tol):
        assert psd_dominates(np.eye(2), np.zeros((2, 2)), tol)

    def test_indefinite_difference(self, tol):
        assert not psd_dominates(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), tol)

    def test_scaled_pair_dominance(self, rng, tol):
        t = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        s = 0.3 * t
        a = 0.5
        assert psd_dominates(a**2 * (adjoint(t) @ t), adjoint(s) @ s, tol)

    def test_rejects_non_hermitian(self, tol):
        with pytest.raises(NotHermitian):
            psd_dominates([[0, 1], [0, 0]], np.zeros((2, 2)), tol)

    def test_rejects_shape_mismatch(self, tol):
        with pytest.raises(DimensionMismatch):
            psd_dominates(np.eye(2), np.eye(3), tol)


class TestRunTheoremCheck:
    @pytest.mark.parametrize("theorem_id", THEOREM_IDS)
    def test_all_verifiers_pass(self, theorem_id, tol):
        verdict = run_theorem_check(theorem_id, spec(seed=1), 24, tol)
        assert verdict.failures == 0
        assert verdict.counterexample is None
        assert verdict.trials == 24
        assert verdict.details["accepting_trials"] > 0

    @pytest.mark.parametrize(
        "theorem_id",
        [t for t in THEOREM_IDS if t != "thm3.2"],
    )
    def test_two_direction_verifiers_see_controls(self, theorem_id, tol):
        verdict = run_theorem_check(theorem_id, spec(seed=1), 24, tol)
        assert verdict.details["rejecting_trials"] > 0
        assert not any("configuration error" in note for note in verdict.notes)

    def test_unknown_theorem(self, tol):
        with pytest.raises(UnknownTheorem):
            run_theorem_check("thm9.9", spec(), 4, tol)

    def test_rejects_bad_trial_count(self, tol):
        with pytest.raises(InvalidSpec):
            run_theorem_check("thm2.1", spec(), 0, tol)

    def test_rejects_zero_rank(self, tol):
        with pytest.raises(InvalidSpec):
            run_theorem_check("thm2.1", spec(rank=0), 4, tol)

    def test_verdict_is_deterministic(self, tol):
        v1 = run_theorem_check("thm3.4", spec(seed=42), 30, tol)
        v2 = run_theorem_check("thm3.4", spec(seed=42), 30, tol)
        p1 = verdict_to_payload(dataclasses.replace(v1, elapsed_ms=0))
        p2 = verdict_to_payload(dataclasses.replace(v2, elapsed_ms=0))
        assert p1 == p2

    def test_verdict_payload_round_trips(self, tol):
        verdict = dataclasses.replace(
            run_theorem_check("thm2.1", spec(seed=4), 10, tol), elapsed_ms=0
        )
        assert verdict_from_payload(verdict_to_payload(verdict)) == verdict

    def test_nilpotent_control_reported_for_radius_bound(self, tol):
        verdict = run_theorem_check("thm3.4", spec(seed=2), 12, tol)
        control = verdict.details["nilpotent_control"]
        assert control["is_ep"] is False
        assert control["violates_inequality"] is True
        assert control["gamma"] == pytest.approx(1.0)
        assert control["spectral_radius"] == pytest.approx(0.0, abs=1e-12)

    def test_divergent_sequence_diagnostics(self, tol):
        verdict = run_theorem_check("thm1.5", spec(dim=51, rank=49, seed=3), 4, tol)
        assert verdict.failures == 0
        neg = verdict.details["negative_example"]
        assert neg["window"] == 50
        assert neg["sup_pinv_norm"] == pytest.approx(50.0, abs=1e-12)
        assert not neg["cond_a_holds"]
        assert not neg["cond_b_holds"]
        assert not neg["cond_c_holds"]
        assert neg["min_successive_pinv_gap_tail"] >= 1.0
        pos = verdict.details["positive_example"]
        assert pos["cond_a_holds"] and pos["cond_b_holds"] and pos["cond_c_holds"]

    def test_membership_limit_stays_ep_with_gamma_floor(self, tol):
        verdict = run_theorem_check("thm3.2", spec(seed=6), 10, tol)
        assert verdict.failures == 0
        assert verdict.worst_residual <= 1e-9

    @pytest.mark.parametrize("rank", [6, 7])
    def test_membership_limit_at_high_condition(self, tol, rank):
        # ||limit|| reaches about 1e7 here; the window's last term is then
        # about 1e-8 from the limit, which an absolute 1e-9 test rejected.
        high = GeneratorSpec(dim=8, rank=rank, seed=7, condition_bound=1e8)
        verdict = run_theorem_check("thm3.2", high, 60, tol)
        assert verdict.failures == 0

    def test_commutation_verifier_at_reference_scale(self, tol):
        verdict = run_theorem_check(
            "thm2.1", GeneratorSpec(dim=6, rank=4, seed=42), 200, tol
        )
        assert verdict.failures == 0 and verdict.trials == 200

    def test_radius_bound_verifier_at_reference_scale(self, tol):
        verdict = run_theorem_check(
            "thm3.4", GeneratorSpec(dim=5, rank=3, seed=42), 200, tol
        )
        assert verdict.failures == 0
        assert verdict.details["nilpotent_control"]["violates_inequality"] is True

    def test_verdict_invariant_enforced(self):
        with pytest.raises(ValueError):
            TheoremVerdict(
                theorem_id="thm2.1",
                trials=1,
                failures=1,
                worst_residual=1.0,
                counterexample=None,
                elapsed_ms=0,
            )

    def test_corruption_hook_produces_counterexample(self, tol, corrupt_ep_generation):
        verdict = run_theorem_check("thm2.1", spec(seed=1), 6, tol)
        assert verdict.failures > 0
        assert verdict.counterexample is not None
        assert "matrices" in verdict.counterexample
        assert verdict.counterexample["trial"] == 0

    def test_thm2_4_failure_note_states_its_one_verdict(self, tol, corrupt_ep_generation):
        verdict = run_theorem_check("thm2.4", spec(seed=1), 2, tol)
        assert verdict.failures == 1
        assert verdict.counterexample["note"] == (
            "range==carrier (the EP test) is False, expected True"
        )


# One thm1.5 run, as the JSON of its verdict with the timing zeroed.
_THM1_5_REPORT = """
import dataclasses, json
from epkit import GeneratorSpec, run_theorem_check
from epkit.serialize import verdict_to_payload
spec = GeneratorSpec(dim=DIM, rank=DIM - 2, condition_bound=50.0, seed=5)
verdict = run_theorem_check("thm1.5", spec, 4)
report = json.dumps(verdict_to_payload(dataclasses.replace(verdict, elapsed_ms=0)))
"""


def _thm1_5_report(dim: int) -> str:
    scope = {"DIM": dim}
    exec(_THM1_5_REPORT, scope)
    return scope["report"]


def _thm1_5_report_in_fresh_interpreter(dim: int) -> str:
    code = f"DIM = {dim}\n{_THM1_5_REPORT}\nimport sys; sys.stdout.write(report)\n"
    paths = [str(Path(epkit.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestThm15ControlIsPerRun:
    """thm1.5 computes its harmonic-truncation control once a run, not once a process."""

    def test_runs_in_one_process_match_fresh_interpreters(self):
        # Two odd trials per run, so each run reuses its control once; the
        # dim-32 control (ambient 32) differs from the dim-8 one (ambient 16).
        assert _thm1_5_report(32) == _thm1_5_report_in_fresh_interpreter(32)
        assert _thm1_5_report(8) == _thm1_5_report_in_fresh_interpreter(8)

    def test_mutating_a_verdict_leaves_the_next_run_alone(self):
        verdict = run_theorem_check("thm1.5", spec(dim=8, rank=6, seed=5), 4)
        expected = json.dumps(verdict_to_payload(dataclasses.replace(verdict, elapsed_ms=0)))
        verdict.details["negative_example"].clear()
        assert _thm1_5_report(8) == expected
