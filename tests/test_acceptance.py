"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; every tolerance below is pinned, nothing is deferred to calibration.
"""

import time

import numpy as np

import oracles
from epkit import (
    DEFAULT_TOL,
    GeneratorSpec,
    THEOREM_IDS,
    adjoint,
    classify,
    direct_sum,
    fractional_abs_power,
    gen_matrix,
    is_ep,
    is_hypo_ep,
    limit_study,
    mp_identity_suite,
    operator_norm,
    penrose_residuals,
    polar_decomposition,
    pseudoinverse,
    psd_dominates,
    range_basis,
    reduced_min_modulus,
    run_theorem_check,
)
from epkit.cli import main
from epkit.serialize import parse_report
from epkit.subspace import projector_gap

TOL = DEFAULT_TOL


def report_line(number: int, ok: bool, description: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number}: {status} - {description}")
    assert ok, f"acceptance criterion {number} failed: {description}"


def test_criterion_1_penrose_and_identity_suite():
    start = time.monotonic()
    rng = np.random.default_rng(20260809)
    worst_penrose = 0.0
    all_passed = True
    for _ in range(500):
        rows = int(rng.integers(1, 33))
        cols = int(rng.integers(1, 33))
        rank = int(rng.integers(0, min(rows, cols) + 1))
        m = oracles.random_matrix(rng, rows, cols, rank, cond=50.0)
        mp = pseudoinverse(m, TOL)
        ratio = max(penrose_residuals(m, mp).values()) / (1.0 + operator_norm(m))
        worst_penrose = max(worst_penrose, ratio)
        all_passed = all_passed and mp_identity_suite(m, TOL).passed
    elapsed = time.monotonic() - start
    ok = worst_penrose <= 1e-10 and all_passed and elapsed <= 30.0
    report_line(
        1,
        ok,
        f"500 matrices: worst Penrose ratio {worst_penrose:.2e} <= 1e-10, "
        f"identity suite all passed={all_passed}, {elapsed:.1f}s <= 30s",
    )


def test_criterion_2_commutation_equivalence():
    start = time.monotonic()
    mismatches = 0
    for i in range(1000):
        spec = GeneratorSpec(dim=8, rank=1 + i % 8, condition_bound=100.0, seed=10_000 + i)
        rep = classify(gen_matrix("ep", spec), TOL)
        comm_says_ep = rep.commutator_residual <= TOL.eq_atol
        if not (rep.is_ep and comm_says_ep):
            mismatches += 1
    for i in range(1000):
        spec = GeneratorSpec(dim=8, rank=1 + i % 7, condition_bound=100.0, seed=20_000 + i)
        rep = classify(gen_matrix("non_ep", spec), TOL)
        comm_says_ep = rep.commutator_residual <= TOL.eq_atol
        if rep.is_ep or comm_says_ep:
            mismatches += 1
    elapsed = time.monotonic() - start
    ok = mismatches == 0 and elapsed <= 60.0
    report_line(
        2,
        ok,
        f"1000 EP + 1000 non-EP at dim 8: {mismatches} misclassifications "
        f"(range test vs commutator test at 1e-8), {elapsed:.1f}s <= 60s",
    )


def test_criterion_3_direct_sums():
    rng = np.random.default_rng(333)
    worst_pinv = 0.0
    worst_gamma = 0.0
    for _ in range(200):
        ra = int(rng.integers(1, 13))
        ca = int(rng.integers(1, 13))
        rb = int(rng.integers(1, 13))
        cb = int(rng.integers(1, 13))
        a = oracles.random_matrix(rng, ra, ca, int(rng.integers(1, min(ra, ca) + 1)), cond=50.0)
        b = oracles.random_matrix(rng, rb, cb, int(rng.integers(1, min(rb, cb) + 1)), cond=50.0)
        d = direct_sum(a, b)
        lhs = pseudoinverse(d, TOL)
        rhs = direct_sum(pseudoinverse(a, TOL), pseudoinverse(b, TOL))
        scale = 1.0 + operator_norm(a) + operator_norm(b)
        worst_pinv = max(worst_pinv, float(np.linalg.norm(lhs - rhs, 2)) / scale)
        expected = min(reduced_min_modulus(a, TOL), reduced_min_modulus(b, TOL))
        worst_gamma = max(worst_gamma, abs(reduced_min_modulus(d, TOL) - expected))
    ok = worst_pinv <= 1e-10 and worst_gamma <= 1e-12
    report_line(
        3,
        ok,
        f"200 pairs: worst pinv block ratio {worst_pinv:.2e} <= 1e-10, "
        f"worst gamma gap {worst_gamma:.2e} <= 1e-12",
    )


def test_criterion_4_gamma_bounded_by_spectral_radius():
    violations = 0
    worst = -np.inf
    for i in range(1000):
        dim = 4 + i % 13
        spec = GeneratorSpec(dim=dim, rank=1 + i % dim, condition_bound=1e3, seed=40_000 + i)
        rep = classify(gen_matrix("ep", spec), TOL)
        excess = rep.gamma - rep.spectral_radius
        worst = max(worst, excess)
        if not rep.is_ep or excess > 1e-10:
            violations += 1
    control = classify(np.array([[0.0, 1.0], [0.0, 0.0]]), TOL)
    control_ok = (not control.is_ep) and control.gamma > control.spectral_radius
    ok = violations == 0 and control_ok
    report_line(
        4,
        ok,
        f"1000 EP instances dims 4-16 cond 1e3: gamma <= r + 1e-10 in every trial "
        f"(worst excess {worst:.2e}); nilpotent control non-EP with gamma=1 > r=0: {control_ok}",
    )


def test_criterion_5_harmonic_truncation_reproduction():
    start = time.monotonic()
    rows = limit_study("diag_harmonic_truncated", 50, TOL)
    table_ok = all(
        row["is_ep"]
        and abs(row["gamma"] - 1.0 / row["n"]) <= 1e-14
        and abs(row["pinv_norm"] - row["n"]) <= 1e-12
        for row in rows
    )
    verdict = run_theorem_check(
        "thm1.5", GeneratorSpec(dim=51, rank=49, seed=1), 4, TOL
    )
    neg = verdict.details["negative_example"]
    verifier_ok = (
        verdict.failures == 0
        and neg["window"] == 50
        and abs(neg["sup_pinv_norm"] - 50.0) <= 1e-10
        and not neg["cond_a_holds"]
        and not neg["cond_b_holds"]
        and not neg["cond_c_holds"]
        and neg["min_successive_pinv_gap_tail"] >= 1.0
    )
    elapsed = time.monotonic() - start
    ok = table_ok and verifier_ok and elapsed <= 5.0
    report_line(
        5,
        ok,
        f"n=1..50 truncations EP with gamma=1/n (1e-14) and pinv norm=n (1e-12): {table_ok}; "
        f"divergence verifier flags unbounded pinv norms and non-convergence: {verifier_ok}; "
        f"{elapsed:.1f}s <= 5s",
    )


def test_criterion_6_membership_set_closed_under_limits():
    verdict = run_theorem_check(
        "thm3.2", GeneratorSpec(dim=8, rank=6, seed=606), 50, TOL
    )
    ok = verdict.failures == 0 and verdict.trials == 50 and verdict.worst_residual <= 1e-9
    report_line(
        6,
        ok,
        f"50 seeded sequences of terms EP with gamma >= 0.1 by construction: every limit EP "
        f"with gamma >= 0.1 - 1e-9 (worst deficit {verdict.worst_residual:.2e})",
    )


def test_criterion_7_fractional_power_ranges():
    families = ("ep", "non_ep", "normal_ep", "ep")
    worst_alpha_gap = 0.0
    worst_ep_gap = 0.0
    converse_ok = True
    for i in range(200):
        family = families[i % 4]
        dim = 4 + i % 7
        rank = 1 + i % (dim - 1 if family == "non_ep" else dim)
        spec = GeneratorSpec(dim=dim, rank=rank, condition_bound=100.0, seed=70_000 + i)
        m = gen_matrix(family, spec)
        base = range_basis(polar_decomposition(m, TOL).modulus_part, TOL)
        for alpha in (0.25, 0.5, 1.5, 3.0):
            gap = projector_gap(range_basis(fractional_abs_power(m, alpha, TOL), TOL), base)
            worst_alpha_gap = max(worst_alpha_gap, gap)
        range_gap = projector_gap(range_basis(m, TOL), base)
        ep = is_ep(m, TOL)
        if ep:
            worst_ep_gap = max(worst_ep_gap, range_gap)
        # converse: whenever range(T) = range(|T|), the matrix must be EP
        if (range_gap <= TOL.eq_atol) != ep:
            converse_ok = False
    ok = worst_alpha_gap <= 1e-8 and worst_ep_gap <= 1e-8 and converse_ok
    report_line(
        7,
        ok,
        f"200 instances, alpha in (0.25, 0.5, 1.5, 3): worst projector gap "
        f"{worst_alpha_gap:.2e} <= 1e-8, worst EP range gap {worst_ep_gap:.2e} <= 1e-8, "
        f"converse flags EP iff range(T)=range(|T|): {converse_ok}",
    )


def test_criterion_8_certified_perturbations():
    certified = 0
    ep_sums = 0
    rng = np.random.default_rng(80_000)
    for i in range(200):
        spec = GeneratorSpec(dim=6, rank=4, condition_bound=100.0, seed=80_000 + i)
        t = gen_matrix("ep", spec)
        # S = c T with |c| < 0.5, so both dominance hypotheses hold exactly.
        s = 0.5 * rng.uniform(0.2, 0.95) * np.exp(2j * np.pi * rng.uniform()) * t
        ta, sa = adjoint(t), adjoint(s)
        if psd_dominates(0.25 * (ta @ t), sa @ s, TOL) and psd_dominates(
            0.25 * (t @ ta), s @ sa, TOL
        ):
            certified += 1
        total = t + s
        # finite-dimensional collapse: hypo-EP conclusion and EP conclusion agree
        if is_ep(total, TOL) and is_hypo_ep(total, TOL):
            ep_sums += 1
    ok = certified == 200 and ep_sums == 200
    report_line(
        8,
        ok,
        f"200 pairs at a=b=0.5: dominance certificates {certified}/200, "
        f"perturbed sums classified EP (hypo-EP coincides) {ep_sums}/200",
    )


def test_criterion_9_full_suite_deterministic(tmp_path):
    start = time.monotonic()
    out1 = tmp_path / "suite1.json"
    out2 = tmp_path / "suite2.json"
    code1 = main(["suite", "--seed", "1", "--output", str(out1)])
    code2 = main(["suite", "--seed", "1", "--output", str(out2)])
    elapsed = time.monotonic() - start
    payload = parse_report(out1.read_text())["payload"]
    ids = [v["theorem_id"] for v in payload["verdicts"]]
    covers_table = list(THEOREM_IDS) == ids and len(ids) == 15
    identical = out1.read_bytes() == out2.read_bytes()
    ok = code1 == 0 and code2 == 0 and covers_table and identical and elapsed <= 300.0
    report_line(
        9,
        ok,
        f"cmd_suite --seed 1: exit {code1}, covers all {len(ids)} dispatch-table "
        f"theorem ids, rerun byte-identical={identical}, {elapsed:.1f}s <= 300s",
    )
