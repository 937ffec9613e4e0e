import ast
import contextlib
import dataclasses
import inspect
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import epkit
import golden_corpus
import oracles
from epkit import (
    DimensionMismatch,
    GeneratorSpec,
    InvalidSpec,
    NotHermitian,
    THEOREM_IDS,
    TheoremVerdict,
    UnknownTheorem,
    adjoint,
    classify,
    gen_matrix,
    harmonic_truncation,
    harness,
    is_ep,
    is_normal,
    operator_norm,
    psd_dominates,
    pseudoinverse,
    reduced_min_modulus,
    run_theorem_check,
    svd,
)
from epkit import core
from epkit.classify import range_corange_test
from epkit.core import _lockstep
from epkit.pinv import reduced_min_modulus_of
from epkit.serialize import matrix_to_payload, report_payload


def spec(**kwargs):
    base = dict(dim=6, rank=4, condition_bound=50.0, seed=7)
    base.update(kwargs)
    return GeneratorSpec(**base)


class TestGeneratorSpec:
    def test_rejects_rank_above_dim(self):
        with pytest.raises(InvalidSpec):
            GeneratorSpec(dim=3, rank=4)

    def test_rejects_bad_condition(self):
        with pytest.raises(InvalidSpec):
            GeneratorSpec(dim=3, rank=2, condition_bound=0.5)

    @pytest.mark.parametrize("bound", [float("nan"), float("inf")])
    def test_rejects_non_finite_condition(self, bound):
        with pytest.raises(InvalidSpec, match="finite"):
            GeneratorSpec(dim=8, rank=6, condition_bound=bound)

    @pytest.mark.parametrize("bound", ["1e4", True, None])
    def test_rejects_a_condition_bound_that_is_not_a_real_number(self, bound):
        with pytest.raises(InvalidSpec, match="must be a real number"):
            GeneratorSpec(dim=8, rank=6, condition_bound=bound)

    @pytest.mark.parametrize("bound", [100, 100.0, np.float32(100.0), np.int64(100)])
    def test_accepts_int_float_and_numpy_condition_bounds(self, bound):
        assert GeneratorSpec(dim=8, rank=6, condition_bound=bound).condition_bound == 100

    def test_holds_only_what_a_run_reads(self):
        fields = [f.name for f in dataclasses.fields(GeneratorSpec)]
        assert fields == ["dim", "rank", "condition_bound", "seed"]

    @pytest.mark.parametrize("name, value", [
        ("dim", 8.0), ("rank", 6.0), ("seed", 1.5), ("dim", True), ("seed", False),
        ("trials", 2.0), ("trials", True),
    ])
    def test_counts_must_be_integers(self, name, value, tol):
        counts = {"dim": 8, "rank": 6, "seed": 1, "trials": 6, name: value}
        trials = counts.pop("trials")
        with pytest.raises(InvalidSpec, match="must be an integer"):
            run_theorem_check("thm2.1", GeneratorSpec(**counts), trials, tol)

    def test_numpy_integer_counts_are_accepted(self, tol):
        numpy_spec = GeneratorSpec(dim=np.int64(8), rank=np.int32(6), seed=np.uint64(1))
        verdict = run_theorem_check("thm2.1", numpy_spec, np.int16(2), tol)
        assert verdict == dataclasses.replace(
            run_theorem_check("thm2.1", GeneratorSpec(dim=8, rank=6, seed=1), 2, tol),
            elapsed_ms=verdict.elapsed_ms,
        )


class TestGenMatrix:
    def test_rejects_unknown_family(self):
        with pytest.raises(InvalidSpec, match="unknown family 'weird'; known: ep, non_ep"):
            gen_matrix("weird", GeneratorSpec(dim=3, rank=2))

    def test_rejects_full_rank_non_ep(self):
        with pytest.raises(InvalidSpec, match="non_ep family needs 1 <= rank <= dim - 1"):
            gen_matrix("non_ep", GeneratorSpec(dim=3, rank=3))

    def test_ep_full_rank_is_invertible_ep(self, tol):
        m = gen_matrix("ep", spec(dim=4, rank=4, seed=3))
        assert m.shape == (4, 4)
        assert is_ep(m, tol)
        assert classify(m, tol).rank == 4

    def test_condition_bound_respected(self, tol):
        m = gen_matrix("ep", spec(dim=5, rank=5, condition_bound=20.0, seed=9))
        rep = classify(m, tol)
        assert operator_norm(m) / rep.gamma <= 20.0 * (1.0 + 1e-10)

    def test_same_seed_bit_identical(self):
        a = gen_matrix("ep", spec(seed=11))
        b = gen_matrix("ep", spec(seed=11))
        assert np.array_equal(a, b)

    def test_normal_ep_family(self, tol):
        m = gen_matrix("normal_ep", spec(seed=13))
        assert is_normal(m, tol) and is_ep(m, tol)

    def test_every_family_draws_one_matrix(self):
        # gen_matrix draws the three one-matrix families; the table's fourth
        # entry is thm2.12's aligned pair, two matrices of one range.
        assert list(harness._GENERATORS) == ["ep", "non_ep", "normal_ep", "aligned_ep_pair"]
        assert harness._MATRIX_FAMILIES == ("ep", "non_ep", "normal_ep")
        for family in harness._MATRIX_FAMILIES:
            m = gen_matrix(family, spec())
            assert isinstance(m, np.ndarray) and m.shape == (6, 6)
        with pytest.raises(InvalidSpec, match="unknown family 'aligned_ep_pair'"):
            gen_matrix("aligned_ep_pair", spec())

    def test_only_the_table_names_a_generator(self):
        # Verifiers draw through ``_GENERATORS``, so a patched entry reaches
        # every draw of its family.
        names = {family.__name__ for family in harness._GENERATORS.values()}
        stray = []
        for path in Path(epkit.__file__).parent.glob("*.py"):
            tree = ast.parse(path.read_text())
            in_table = {
                id(node)
                for top in tree.body
                if isinstance(top, ast.Assign)
                and any(getattr(t, "id", None) == "_GENERATORS" for t in top.targets)
                for node in ast.walk(top.value)
            }
            stray += [
                f"{path.name}:{node.lineno}"
                for node in ast.walk(tree)
                if isinstance(node, ast.Name) and node.id in names and id(node) not in in_table
            ]
        assert stray == []

    @pytest.mark.parametrize("dim", [2, 3, 8, 32])
    def test_every_family_has_its_property_by_construction(self, dim, tol):
        # Generators return their draws untested; at the default condition
        # bound each family's property holds for every admissible rank.
        squared = harness.DOMINANCE_BOUND**2
        for rank in range(dim + 1):
            for seed in range(3):
                def draw(family):
                    return gen_matrix(family, GeneratorSpec(dim=dim, rank=rank, seed=seed))

                assert is_ep(draw("ep"), tol)
                assert is_ep(draw("normal_ep"), tol)
                if 1 <= rank <= dim - 1:
                    assert not is_ep(draw("non_ep"), tol)
                # thm2.5's commuting pair: a polynomial in an ep draw.
                t_ep = draw("ep")
                poly = harness._random_poly_in(np.random.default_rng(seed), t_ep)
                scale = (1.0 + operator_norm(poly)) * (1.0 + operator_norm(t_ep))
                assert operator_norm(poly @ t_ep - t_ep @ poly) <= 10 * tol.eq_atol * scale
                # thm2.16's scaled and confined perturbations of an ep draw.
                scaled = harness._scaled_perturbation(np.random.default_rng(seed), t_ep)
                (confined,) = _lockstep([harness._confined_perturbation(
                    np.random.default_rng(seed), svd(t_ep, tol)
                )])
                for t, s in ((t_ep, scaled), (t_ep, confined)):
                    ta, sa = adjoint(t), adjoint(s)
                    assert psd_dominates(squared * (ta @ t), sa @ s, tol)
                    assert psd_dominates(squared * (t @ ta), s @ sa, tol)
                # thm3.2's term, both kinds: EP with gamma >= delta, and its
                # limit has gamma in [delta, 2 delta).  Its base needs rank >= 1.
                delta = harness.EP_MEMBERSHIP_DELTA
                for rotate in (False, True) if rank else ():
                    base_spec = GeneratorSpec(dim=dim, rank=rank, seed=seed)
                    rng = np.random.default_rng([seed, 0xA5])
                    ((_, base),) = _lockstep([harness._draw(base_spec, rng, (("ep", None),))])[0]
                    ((term, limit),) = _lockstep([harness._membership_term(rng, base, rotate)], tol)
                    fact = svd(term, tol)
                    assert range_corange_test(fact, tol)
                    assert reduced_min_modulus_of(fact) >= delta
                    assert delta <= reduced_min_modulus_of(svd(limit, tol)) < 2 * delta


def same_bits(a, b) -> bool:
    """Whether two instances, matrices or pairs of them, are equal bit for bit."""
    if isinstance(a, tuple):
        return len(a) == len(b) and all(same_bits(x, y) for x, y in zip(a, b))
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def family_ranks(family, dim):
    """The edge and middle ranks at which a family is drawn."""
    low = 1 if family in ("non_ep", "aligned_ep_pair") else 0
    high = dim - 1 if family == "non_ep" else dim
    return sorted({r for r in (low, low + 1, dim // 2, high - 1, high) if low <= r <= high})


def assert_family_protocol(name, family):
    """A ``_GENERATORS`` entry is a step generator that makes only "haar" requests.

    Drives the family alone, one QR per Haar unitary, at every rank it is
    drawn at, and compares its instance and the rng state it leaves with
    its oracle's, bit for bit.
    """
    assert inspect.isgeneratorfunction(family)
    for dim in (1, 2, 8):
        for rank in family_ranks(name, dim):
            rng = np.random.default_rng([5, dim, rank])
            steps = family(rng, dim, rank, 100.0)
            unitaries = None
            while True:
                try:
                    kind, blocks = steps.send(unitaries)
                except StopIteration as stop:
                    instance = stop.value
                    break
                assert kind == "haar"
                assert type(blocks) is tuple and blocks
                for block in blocks:
                    assert block.dtype == np.float64
                    assert block.ndim == 3 and block.shape[0] == 2
                    assert block.shape[1] == block.shape[2]
                unitaries = [core._haar_call(block[None])[0] for block in blocks]
            ref_rng = np.random.default_rng([5, dim, rank])
            ref = oracles.GENERATORS[name](ref_rng, dim, rank, 100.0)
            assert same_bits(instance, ref)
            assert rng.bit_generator.state == ref_rng.bit_generator.state


def record_trials(monkeypatch, theorem_id, **changes):
    """Swap a verifier's body, for the test, for one that records what each trial gets.

    Returns the list of ``(drawn, state)`` pairs, state being the rng's
    state as the body starts.  ``changes`` replace more fields of the entry.
    """
    seen = []

    def record(ctx, drawn):
        seen.append((drawn, drawn.rng.bit_generator.state))
        return harness._Trial(ok=True)
        yield  # a step generator that makes no request

    entry = dataclasses.replace(harness._CHECKERS[theorem_id], fn=record, **changes)
    monkeypatch.setitem(harness._CHECKERS, theorem_id, entry)
    return seen


def assert_drawn_as_the_oracle(theorem_id, seen, spec):
    """Each recorded trial's instances, and its rng as its body starts, equal the oracle's."""
    salt = THEOREM_IDS.index(theorem_id)
    for drawn, state in seen:
        ref_rng = np.random.default_rng([spec.seed, salt, drawn.t])
        plan = harness._CHECKERS[theorem_id].draws(drawn.t)
        assert [family for family, _ in drawn.instances] == [family for family, _ in plan]
        for (family, cond), (_, instance) in zip(plan, drawn.instances):
            bound = min(cond or spec.condition_bound, spec.condition_bound)
            ref = oracles.GENERATORS[family](ref_rng, spec.dim, spec.rank, bound)
            assert same_bits(instance, ref)
        assert state == ref_rng.bit_generator.state


class TestBatchedGeneration:
    """Drawing first and factoring each block size once gives the one-at-a-time bits."""

    @pytest.mark.parametrize("cond", [1.0, 100.0, 1e8])
    @pytest.mark.parametrize("dim", [1, 2, 3, 8, 32])
    @pytest.mark.parametrize("family", list(oracles.GENERATORS))
    def test_a_chunk_equals_the_oracle_trial_by_trial(self, family, dim, cond):
        assert list(oracles.GENERATORS) == list(harness._GENERATORS)
        for rank in family_ranks(family, dim):
            spec = GeneratorSpec(dim=dim, rank=rank, condition_bound=cond, seed=3)
            rngs = [np.random.default_rng([3, rank, t]) for t in range(4)]
            chunk = _lockstep([harness._draw(spec, rng, ((family, None),)) for rng in rngs])
            for t, (rng, instances) in enumerate(zip(rngs, chunk)):
                ref_rng = np.random.default_rng([3, rank, t])
                ref = oracles.GENERATORS[family](ref_rng, dim, rank, cond)
                ((drawn_family, instance),) = instances
                assert drawn_family == family
                assert same_bits(instance, ref)
                # The body draws the rest of its trial from where the oracle left off.
                assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("name", list(harness._GENERATORS))
    def test_each_family_is_one_step_generator(self, name):
        # A family takes exactly its oracle's random numbers, so ``_draw``
        # can drive a trial's families in turn and leave the rng where its
        # body starts.
        family = harness._GENERATORS[name]
        assert_family_protocol(name, family)

        # A mutant that draws one more number after the real family returns
        # builds the same instance but leaves the rng past the state the
        # trial body starts from.
        def draws_late(rng, *args):
            instance = yield from family(rng, *args)
            rng.uniform()
            return instance

        with pytest.raises(AssertionError):
            assert_family_protocol(name, draws_late)

    @pytest.mark.parametrize("dim, rank", [(8, 6), (129, 127)])
    def test_a_family_may_split_its_blocks_over_two_requests(self, dim, rank, monkeypatch):
        # ``_draw`` drives each family to its return, so an ep family that
        # asks for its unitaries in two requests, drawing its last block
        # after the first, draws the oracle's instance.  thm2.12's even
        # trials draw two ep matrices in turn; at dim 129 a group is one trial.
        def split_ep(rng, dim, rank, cond):
            s, blocks = harness._invertible_draws(rng, rank, cond)
            u, v = yield "haar", blocks
            (w,) = yield "haar", (harness._gaussian(rng, dim),)
            return harness._embed_conjugated(w, harness._invertible(s, u, v))

        monkeypatch.setitem(harness._GENERATORS, "ep", split_ep)
        seen = record_trials(monkeypatch, "thm2.12")
        run_spec = GeneratorSpec(dim=dim, rank=rank, seed=1)
        run_theorem_check("thm2.12", run_spec, 4)
        assert sorted(drawn.t for drawn, _ in seen) == list(range(4))
        assert_drawn_as_the_oracle("thm2.12", seen, run_spec)

    @pytest.mark.parametrize("theorem_id", THEOREM_IDS)
    def test_each_verifier_schedule_equals_the_oracle(self, theorem_id, monkeypatch):
        # The run's own path, with the body swapped for a recorder.  Mixed
        # families in one group share the stacks of their block sizes, and
        # a cap applies to its own draw.  Rank 6 is also non_ep's control
        # rank at dim 8; 30 trials span two groups of 20.  A trial that
        # draws fewer families reaches its body in an earlier round.
        seen = record_trials(monkeypatch, theorem_id)
        run_spec = GeneratorSpec(dim=8, rank=6, seed=1)
        run_theorem_check(theorem_id, run_spec, 30)
        assert sorted(drawn.t for drawn, _ in seen) == list(range(30))
        assert_drawn_as_the_oracle(theorem_id, seen, run_spec)

    def test_a_group_shares_one_qr_call_per_block_size(self, svd_calls, monkeypatch):
        # At dim 8 a group is 2^16 / (50 * 8^2) = 20 trials, so 24 make
        # two.  Each ep draw at rank 7 stacks two blocks of size 7 and one
        # of size 8, so each group takes one QR call per size.
        assert harness._lockstep_group(8) == 20
        seen = record_trials(monkeypatch, "thm3.2")
        run_theorem_check("thm3.2", GeneratorSpec(dim=8, rank=7, seed=2), 24)
        assert svd_calls["qr"] == 2 * 2
        assert svd_calls["qr_matrices"] == 3 * 24
        salt = THEOREM_IDS.index("thm3.2")
        for drawn, _ in seen:
            ref = oracles.gen_ep(np.random.default_rng([2, salt, drawn.t]), 8, 7, 100.0)
            assert same_bits(drawn.instances[0][1], ref)

    def test_at_dim_256_each_trial_is_drawn_alone(self, svd_calls, monkeypatch):
        # From dim 32 on a group is one trial, and at dim 256 each QR call
        # of size 256 takes one block.  A trial draws its two ep matrices in
        # turn, each with one call for its two 1 x 1 blocks and one for its
        # block of size 256.
        assert harness._lockstep_group(256) == 1
        plan = (("ep", None), ("ep", None))
        seen = record_trials(monkeypatch, "thm3.2", draws=lambda t: plan)
        run_theorem_check("thm3.2", GeneratorSpec(dim=256, rank=1, seed=2), 2)
        assert svd_calls["qr"] == 2 * 4
        assert svd_calls["qr_matrices"] == 2 * 6
        salt = THEOREM_IDS.index("thm3.2")
        for drawn, _ in seen:
            ref_rng = np.random.default_rng([2, salt, drawn.t])
            for _, instance in drawn.instances:
                assert same_bits(instance, oracles.gen_ep(ref_rng, 256, 1, 100.0))

    def test_a_zero_on_the_diagonal_of_r_takes_phase_one(self):
        # A "haar" request of ``core._lockstep`` takes a block's (re, im)
        # parts and factors (re + 1j im) / sqrt 2.
        def haar(blocks):
            return (yield "haar", blocks)

        def parts(seed):
            z = oracles.snapped_complex_matrix(np.random.default_rng(seed), 4)
            return np.stack([z.real, z.imag]).astype(np.float64)

        block = parts(5)
        block[:, :, 0] = 0.0
        q, r = np.linalg.qr((block[0] + 1j * block[1]) / np.sqrt(2.0))
        assert r[0, 0] == 0.0
        ((u,),) = _lockstep([haar((block,))])
        assert same_bits(u[:, 0].copy(), q[:, 0].copy())
        d = np.diagonal(r)[1:]
        assert same_bits(u[:, 1:].copy(), q[:, 1:] * (d / np.abs(d)).conj())
        # Stacked with another block, it keeps its bits.
        ((_, stacked),) = _lockstep([haar((parts(6), block))])
        assert same_bits(stacked, u)


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


def brute_force_bottleneck(xs, ys) -> float:
    """The least largest cost over every bijection, by enumerating them all."""
    cost = np.abs(xs[:, None] - ys[None, :])
    perms = np.array(list(itertools.permutations(range(xs.size))))
    return float(cost[np.arange(xs.size), perms].max(axis=1).min())


def small_multisets():
    """Pairs of size 1 to 6 on a small grid, so ties, repeats and zeros abound."""
    rng = np.random.default_rng(2024)
    for k in range(240):
        n = 1 + k % 6
        grid = rng.integers(-2, 3, size=(2, n))
        if k % 2:  # complex
            grid = grid + 1j * rng.integers(-2, 3, size=(2, n))
        xs, ys = grid.astype(complex if k % 2 else float)
        yield xs, ys


class TestMultisetGap:
    """harness._multiset_gap is the exact bottleneck distance behind thm2.7."""

    @pytest.mark.parametrize("n", range(1, 7))
    def test_equals_the_brute_force_bottleneck(self, n):
        for xs, ys in small_multisets():
            if xs.size == n:
                assert harness._multiset_gap(xs, ys) == brute_force_bottleneck(xs, ys)

    def test_never_above_the_sum_minimizing_assignment(self):
        for xs, ys in small_multisets():
            assert harness._multiset_gap(xs, ys) <= oracles.multiset_gap(xs, ys)

    def test_strictly_below_the_sum_minimizing_assignment(self):
        # The sum-minimizing assignment pairs 0 with 0 (cost 0) and 2j with
        # 2 (cost 2 sqrt 2); crossing them costs 2 + 2 in sum but 2 at most.
        xs, ys = np.array([0, 2j]), np.array([0, 2 + 0j])
        assert harness._multiset_gap(xs, ys) == 2.0
        assert oracles.multiset_gap(xs, ys) == pytest.approx(2.0 * np.sqrt(2.0))

    @pytest.fixture
    def matchings(self, monkeypatch):
        """The threshold graphs _multiset_gap hands to its matching search."""
        graphs = []
        search = harness._has_perfect_matching

        def counted(allowed):
            graphs.append(allowed)
            return search(allowed)

        monkeypatch.setattr(harness, "_has_perfect_matching", counted)
        return graphs

    def test_nearly_equal_spectra_take_the_permutation_path(self, matchings):
        xs = np.random.default_rng(5).standard_normal(30) * np.exp(1j * np.arange(30))
        ys = xs[::-1] * (1.0 + 1e-12)
        assert harness._multiset_gap(xs, ys) == pytest.approx(1e-12 * np.abs(xs).max())
        assert matchings == []

    def test_a_matching_at_the_lower_bound_returns_it(self, matchings):
        assert harness._multiset_gap(np.array([0, 2j]), np.array([0, 2 + 0j])) == 2.0
        assert len(matchings) == 1

    def test_bisection_above_the_lower_bound(self, matchings):
        # Both zeros are within the lower bound 1 of x = 1 alone, so 1 admits
        # no perfect matching; 2 does (1 -> 0, 2 -> 0, 3 -> 3).
        assert harness._multiset_gap(np.array([1.0, 2.0, 3.0]), np.array([3.0, 0.0, 0.0])) == 2.0
        # The lower bound failed, so the bisection searched at least once more.
        assert len(matchings) >= 2

    def test_unequal_sizes_raise(self):
        with pytest.raises(DimensionMismatch):
            harness._multiset_gap(np.zeros(2), np.zeros(3))

    def test_two_empty_multisets_are_at_distance_zero(self):
        assert harness._multiset_gap(np.zeros(0), np.zeros(0)) == 0.0


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

    @pytest.mark.parametrize("theorem_id", THEOREM_IDS)
    def test_fewest_trials_reach_both_directions(self, theorem_id, tol):
        # thm2.5 schedules three kinds (t % 3); thm3.2 has one direction.
        fewest = {"thm2.5": 3, "thm3.2": 1}.get(theorem_id, 2)
        with pytest.raises(InvalidSpec, match=f"trials >= {fewest} "):
            run_theorem_check(theorem_id, spec(seed=1), fewest - 1, tol)
        verdict = run_theorem_check(theorem_id, spec(seed=1), fewest, tol)
        assert verdict.failures == 0
        if theorem_id != "thm2.12":  # its direction depends on the data
            assert not any("configuration error" in note for note in verdict.notes)

    def test_rejects_zero_rank(self, tol):
        with pytest.raises(InvalidSpec):
            run_theorem_check("thm2.1", spec(rank=0), 4, tol)

    @pytest.mark.parametrize("theorem_id", [t for t in THEOREM_IDS if t != "thm2.2"])
    def test_one_trial_groups_at_dim_129(self, theorem_id, tol):
        # From dim 32 on a lockstep group is one trial, so a trial's
        # requests are answered alone, and thm2.12's even trials draw their
        # two ep matrices one after another.
        assert harness._lockstep_group(129) == 1
        verdict = run_theorem_check(theorem_id, GeneratorSpec(dim=129, rank=127, seed=1), 3, tol)
        assert verdict.trials == 3
        assert verdict.failures == 0

    def test_thm2_2_rejects_dim_129_before_trial_0(self, tol, monkeypatch):
        seen = record_trials(monkeypatch, "thm2.2")
        with pytest.raises(InvalidSpec, match=r"thm2.2 needs 2 \* dim <= 256"):
            run_theorem_check("thm2.2", GeneratorSpec(dim=129, rank=127, seed=1), 3, tol)
        assert seen == []  # no trial reached its body

    def test_thm2_12_rejects_full_rank(self, tol):
        # Invertible S and T: ST keeps their range and null space, so no
        # rejecting instance can occur.
        with pytest.raises(InvalidSpec, match="rank < dim"):
            run_theorem_check("thm2.12", spec(rank=6), 4, tol)

    def test_verdict_is_deterministic(self, tol):
        v1 = run_theorem_check("thm3.4", spec(seed=42), 30, tol)
        v2 = run_theorem_check("thm3.4", spec(seed=42), 30, tol)
        p1 = report_payload(dataclasses.replace(v1, elapsed_ms=0))
        p2 = report_payload(dataclasses.replace(v2, elapsed_ms=0))
        assert p1 == p2

    def test_verdict_payload_is_the_verdict_fields(self, tol):
        verdict = run_theorem_check("thm2.1", spec(seed=4), 10, tol)
        payload = report_payload(verdict)
        assert list(payload) == [f.name for f in dataclasses.fields(TheoremVerdict)]
        assert TheoremVerdict(**payload) == verdict

    def test_numpy_trial_count_encodes_as_json(self, tol):
        verdict = run_theorem_check("thm2.1", spec(), np.int64(2), tol)
        assert json.loads(json.dumps(report_payload(verdict)))["trials"] == 2

    def test_verdict_payload_does_not_copy_the_counterexample(self):
        matrices = {name: matrix_to_payload(np.eye(256)) for name in ("S", "T")}
        counterexample = {"trial": 0, "matrices": matrices}
        verdict = TheoremVerdict("thm2.12", 1, 1, 1.0, counterexample, 0)
        assert report_payload(verdict)["counterexample"] is counterexample

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

    @pytest.mark.parametrize("rank", [6, 7])
    @pytest.mark.parametrize("theorem_id", THEOREM_IDS)
    def test_far_bound_draws_reach_the_verdict(self, theorem_id, rank, tol):
        # At condition bound 1e10 an EP decision on a draw may go wrong.  The
        # draw is not tested at generation, so the verdict reports any such
        # decision as a counterexample that carries its matrices.
        far = GeneratorSpec(dim=8, rank=rank, seed=7, condition_bound=1e10)
        verdict = run_theorem_check(theorem_id, far, 6, tol)
        assert isinstance(verdict, TheoremVerdict)
        if verdict.counterexample is not None:
            assert verdict.counterexample["matrices"]

    @pytest.mark.parametrize("theorem_id", [tid for tid in THEOREM_IDS if tid != "thm1.5"])
    def test_corrupted_ep_family_reaches_the_verdict(self, theorem_id, tol, corrupt_ep_generation):
        # Every ep draw passes through the family table, so a non-EP "ep"
        # matrix shows as a failure.  thm2.12's aligned pair is a family of
        # its own, left alone here; its other trials draw ep matrices.
        # thm1.5 is exempt:
        # its claim holds for any matrix window, so a non-EP limit is no
        # counterexample.
        verdict = run_theorem_check(theorem_id, GeneratorSpec(dim=8, rank=6, seed=1), 20, tol)
        assert verdict.failures > 0

    def test_thm2_4_failure_note_states_its_one_verdict(self, tol, corrupt_ep_generation):
        verdict = run_theorem_check("thm2.4", spec(seed=1), 2, tol)
        assert verdict.failures == 1
        assert verdict.counterexample["note"] == (
            "range==carrier (the EP test) is False, expected True"
        )

    @pytest.mark.parametrize("theorem_id, residual_source", [
        ("thm2.2", "core._norm2_call"),
        ("thm2.7", "harness._multiset_gap"),
        ("thm2.13", "core._norm2_call"),
        ("thm2.16", "core._norm2_call"),
    ])
    def test_a_trial_failing_on_its_residual_alone_carries_no_note(
        self, theorem_id, residual_source, tol, monkeypatch
    ):
        # These verifiers note only the boolean claim beside their residual,
        # so a trial whose residual alone fails reports its matrices and no note.
        # Every norm a trial asks for is answered by ``core._norm2_call``
        # through ``core._lockstep``; the fake gives 1.0 for each matrix.
        module, name = residual_source.split(".", 1)
        if name == "_norm2_call":
            fake = lambda stack: [1.0] * len(stack)  # noqa: E731
        else:
            fake = lambda *args, **kwargs: 1.0  # noqa: E731
        monkeypatch.setattr({"core": core, "harness": harness}[module], name, fake)
        verdict = run_theorem_check(theorem_id, GeneratorSpec(dim=8, rank=6, seed=1), 6, tol)
        assert verdict.failures > 0
        assert verdict.counterexample["matrices"]
        assert "note" not in verdict.counterexample


def verdict_json(theorem_id, spec, trials, tol) -> str:
    """The JSON of a verdict with its timing zeroed: every byte of it but the clock."""
    verdict = run_theorem_check(theorem_id, spec, trials, tol)
    return json.dumps(report_payload(dataclasses.replace(verdict, elapsed_ms=0)))


# (dim, rank, trials) of the lockstep runs: ranks dim - 2, and both ranks
# below full at dim 3.  24 trials at dim 8 span two default groups of 20.
LOCKSTEP_RUNS = [(3, 1, 30), (3, 2, 30), (8, 6, 24), (32, 30, 4)]


class TestLockstepChangesNothing:
    """A verdict does not depend on how many trials go through ``core._lockstep`` together.

    Each run is repeated with a group of one trial, which draws and factors
    every trial on its own, and with a group of three, which cuts every
    run here at other trials than the default grouping does; its bytes
    must equal those of the default grouping.  Nor does a verdict depend
    on how many matrices one LAPACK call takes: a run repeated under a
    stack cap of one matrix a call has the same bytes.  Under the
    corrupted ep family the counterexample, its note and the first failing
    t are compared too.
    """

    @pytest.mark.parametrize("corrupt", [False, True], ids=["clean", "corrupt"])
    @pytest.mark.parametrize("dim, rank, trials", LOCKSTEP_RUNS)
    @pytest.mark.parametrize("theorem_id", THEOREM_IDS)
    def test_group_size_moves_no_byte(self, theorem_id, dim, rank, trials, corrupt, tol,
                                      monkeypatch):
        spec = GeneratorSpec(dim=dim, rank=rank, seed=5)
        with golden_corpus.corrupt_ep_generation() if corrupt else contextlib.nullcontext():
            default = verdict_json(theorem_id, spec, trials, tol)
            for size in (1, 3):
                monkeypatch.setattr(harness, "_lockstep_group", lambda dim: size)
                assert verdict_json(theorem_id, spec, trials, tol) == default
        if corrupt and theorem_id != "thm1.5":
            assert json.loads(default)["failures"] > 0

    @pytest.mark.parametrize("corrupt", [False, True], ids=["clean", "corrupt"])
    @pytest.mark.parametrize("dim, rank, trials", LOCKSTEP_RUNS)
    @pytest.mark.parametrize("theorem_id", THEOREM_IDS)
    def test_a_lowered_stack_cap_moves_no_byte(self, theorem_id, dim, rank, trials, corrupt,
                                               tol, monkeypatch, svd_calls):
        # One dim x dim matrix a call cuts every SVD and QR group of more,
        # and shrinks the lockstep group to one trial, since ``harness``
        # sizes it from the cap it imports.  A trial alone at dim 32 asks
        # for at most three matrices of one kind and size at once, so a cap
        # of three would cut nothing there.
        spec = GeneratorSpec(dim=dim, rank=rank, seed=5)
        with golden_corpus.corrupt_ep_generation() if corrupt else contextlib.nullcontext():
            default = verdict_json(theorem_id, spec, trials, tol)
            calls = svd_calls["svd"] + svd_calls["qr"]
            svd_calls.clear()
            for module in (core, harness):
                monkeypatch.setattr(module, "_STACK_ENTRIES", dim * dim)
            assert verdict_json(theorem_id, spec, trials, tol) == default
        assert svd_calls["svd"] + svd_calls["qr"] > calls


def assert_shared_run_equals_separate_runs(spec, trials, tol) -> list:
    """``run_theorem_checks`` over every id equals each id's ``run_theorem_check``, clock aside.

    Returns the shared run's verdicts.
    """
    shared = harness.run_theorem_checks(THEOREM_IDS, spec, trials, tol)
    assert [v.theorem_id for v in shared] == list(THEOREM_IDS)
    for verdict in shared:
        alone = run_theorem_check(verdict.theorem_id, spec, trials, tol)
        assert dataclasses.replace(verdict, elapsed_ms=0) == dataclasses.replace(
            alone, elapsed_ms=0
        )
    return shared


# (dim, rank, trials, seed) of the shared runs.  At dim 40 one thm1.5
# window holds more than ``core._STACK_ENTRIES`` entries, so the verifiers
# no longer share a group.  A suite needs 3 trials (thm2.5).
SHARED_RUNS = [(8, 6, 10, 1), (3, 1, 30, 3), (16, 14, 12, 1), (32, 30, 3, 1), (40, 38, 3, 2)]


class TestSharedRun:
    """All verifiers in one run return what each returns alone, and share its groups."""

    @pytest.mark.parametrize("dim, rank, trials, seed", SHARED_RUNS)
    def test_equals_the_separate_runs(self, dim, rank, trials, seed, tol):
        assert_shared_run_equals_separate_runs(
            GeneratorSpec(dim=dim, rank=rank, seed=seed), trials, tol
        )

    def test_a_false_counterexample_is_the_same(self):
        # The pinned false counterexample of golden case
        # suite-d8-r6-t6-s7-toleq1e-14.
        tol = epkit.ToleranceConfig(eq_atol=1e-14)
        shared = assert_shared_run_equals_separate_runs(
            GeneratorSpec(dim=8, rank=6, seed=7), 6, tol
        )
        assert any(v.failures for v in shared)

    def test_the_counterexamples_of_a_corrupted_family_are_the_same(
        self, tol, corrupt_ep_generation
    ):
        shared = assert_shared_run_equals_separate_runs(
            GeneratorSpec(dim=8, rank=6, seed=1), 10, tol
        )
        assert sum(v.failures > 0 for v in shared) >= 14

    def test_a_run_that_cannot_run_every_verifier_runs_none(self, tol, monkeypatch):
        seen = record_trials(monkeypatch, "thm2.1")
        with pytest.raises(InvalidSpec, match="thm2.12 needs rank < dim"):
            harness.run_theorem_checks(("thm2.1", "thm2.12"), spec(rank=6), 4, tol)
        assert seen == []

    @staticmethod
    def record_calls(monkeypatch) -> list:
        """Each ``harness._lockstep`` call of trials, as its list of (theorem id, t) pairs."""
        calls = []
        real = harness._lockstep

        def recording(steps, *args, **kwargs):
            steps = list(steps)
            trials = [step.gi_frame.f_locals for step in steps
                      if step.gi_code is harness._trial.__code__]
            if trials:
                calls.append([(THEOREM_IDS[f["salt"]], f["t"]) for f in trials])
            return real(steps, *args, **kwargs)

        monkeypatch.setattr(harness, "_lockstep", recording)
        return calls

    def test_at_dim_8_one_call_holds_every_verifier_trial(self, tol, monkeypatch):
        calls = self.record_calls(monkeypatch)
        harness.run_theorem_checks(THEOREM_IDS, GeneratorSpec(dim=8, rank=6, seed=1), 10, tol)
        assert calls == [[(tid, t) for tid in THEOREM_IDS for t in range(10)]]

    def test_at_dim_40_each_call_holds_one_trial_of_one_verifier(self, tol, monkeypatch):
        calls = self.record_calls(monkeypatch)
        harness.run_theorem_checks(THEOREM_IDS, GeneratorSpec(dim=40, rank=38, seed=2), 3, tol)
        assert calls == [[(tid, t)] for tid in THEOREM_IDS for t in range(3)]

    def test_each_verdict_is_timed_by_its_own_trials(self, tol, monkeypatch):
        # A clock that advances one second per reading: every verdict gets
        # time, and the verdicts' times never overlap.
        ticks = itertools.count()
        monkeypatch.setattr(core.time, "perf_counter", lambda: float(next(ticks)))
        verdicts = harness.run_theorem_checks(THEOREM_IDS, spec(seed=1), 3, tol)
        assert all(v.elapsed_ms > 0 for v in verdicts)
        assert sum(v.elapsed_ms for v in verdicts) < 1000 * next(ticks)


# The fault kind of ``golden_corpus.graded_ep_fault`` each verifier must
# catch.  thm2.7's conclusion holds at every index-1 matrix, so only an
# index-2 fault can break it.  thm2.12's even trials hold for any pair, so
# only a fault of its aligned pair can break it.
POWER_PIN = {
    **{tid: "range" for tid in THEOREM_IDS if tid not in ("thm1.5", "thm2.7", "thm2.12")},
    "thm2.7": "index2",
    "thm2.12": "pair",
}
# Verifiers that catch no fault kind yet, and why.
NOT_YET_PINNED = {
    "thm1.5": "no window moves a range, so a faulted limit is no counterexample",
}


class TestPower:
    """Each verifier fails on ep draws moved off the EP class by 100 eq_atol.

    The fault is relative: eps = 1e-6 times sigma_1, at the default eq_atol
    of 1e-8.  A verifier whose threshold goes blind to it fails this pin.
    """

    def test_every_verifier_is_pinned_or_named(self):
        assert POWER_PIN.keys() | NOT_YET_PINNED.keys() == set(THEOREM_IDS)
        assert not POWER_PIN.keys() & NOT_YET_PINNED.keys()

    @pytest.mark.parametrize("theorem_id", list(POWER_PIN))
    def test_graded_fault_reaches_the_verdict(self, theorem_id, tol):
        with golden_corpus.graded_ep_fault(1e-6, POWER_PIN[theorem_id]):
            verdict = run_theorem_check(
                theorem_id, GeneratorSpec(dim=8, rank=6, seed=1), 20, tol
            )
        assert verdict.failures >= 1

    def test_unknown_fault_kind_is_rejected(self):
        with pytest.raises(ValueError, match="fault kind"):
            with golden_corpus.graded_ep_fault(1e-6, "nilpotent"):
                pass


# One thm1.5 run, as the JSON of its verdict with the timing zeroed.
_THM1_5_REPORT = """
import dataclasses, json
from epkit import GeneratorSpec, run_theorem_check
from epkit.serialize import report_payload
spec = GeneratorSpec(dim=DIM, rank=DIM - 2, condition_bound=50.0, seed=5)
verdict = run_theorem_check("thm1.5", spec, 4)
report = json.dumps(report_payload(dataclasses.replace(verdict, elapsed_ms=0)))
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
        expected = json.dumps(report_payload(dataclasses.replace(verdict, elapsed_ms=0)))
        verdict.details["negative_example"].clear()
        assert _thm1_5_report(8) == expected


def window_conditions_loop(terms, limit, tol):
    """The window diagnostics with every pseudoinverse formed and every norm by np.linalg.norm."""
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


def fixed_range_window(length, seed=4):
    """thm1.5's accepting window: T_k = (1 + 1/k) T for an ep draw T, k = 1..length."""
    limit = gen_matrix("ep", GeneratorSpec(dim=8, rank=6, seed=seed))
    return tuple((1.0 + 1.0 / k) * limit for k in range(1, length + 1)), limit


def harmonic_window(length):
    ambient = max(length + 1, 16)
    terms = tuple(harmonic_truncation(k, ambient) for k in range(1, length + 1))
    return terms, harmonic_truncation(ambient, ambient)


# Read as 1 / gamma(T_k), a pseudoinverse norm may differ from the norm of
# the formed pseudoinverse in its last bits.
NORM_FIELDS = ("sup_pinv_norm", "pinv_norm_growth_ratio")


class TestThm15Window:
    # Lengths around the six-term tail of successive differences, the one-
    # and two-term windows whose two ends coincide or touch, and the
    # verifier's own window.
    @pytest.mark.parametrize("length", [1, 2, 5, 6, 7, harness.SEQUENCE_LENGTH])
    @pytest.mark.parametrize("window", [fixed_range_window, harmonic_window])
    def test_matches_the_window_with_every_pseudoinverse_formed(self, tol, window, length):
        terms, limit = window(length)
        conds, diag = _lockstep([harness._window_steps(terms, limit, tol)], tol)[0]
        ref_conds, ref_diag = window_conditions_loop(terms, limit, tol)
        assert conds == ref_conds
        assert list(diag) == list(ref_diag)
        for key in NORM_FIELDS:
            assert diag[key] == pytest.approx(ref_diag[key], rel=1e-13)
        assert {k: v for k, v in diag.items() if k not in NORM_FIELDS} == {
            k: v for k, v in ref_diag.items() if k not in NORM_FIELDS
        }

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_pinv_norms_of_a_scaled_sequence_are_exact(self, tol, seed):
        # ||T_k+|| = k / ((k + 1) gamma(T)) for T_k = (1 + 1/k) T, k = 1..50.
        terms, limit = fixed_range_window(harness.SEQUENCE_LENGTH, seed)
        conds, diag = _lockstep([harness._window_steps(terms, limit, tol)], tol)[0]
        assert conds == (True, True, True)
        assert diag["pinv_norm_growth_ratio"] == pytest.approx(100 / 51, rel=1e-14)
        gamma = reduced_min_modulus(limit, tol)
        assert diag["sup_pinv_norm"] == pytest.approx(50 / (51 * gamma), rel=1e-13)

    def test_each_term_is_factored_once(self, svd_calls, tol):
        terms, limit = fixed_range_window(harness.SEQUENCE_LENGTH)
        _lockstep([harness._window_steps(terms, limit, tol)], tol)
        # The limit, the first term and the last six; the 43 terms between
        # them, plus the two gaps at each end and the five successive ones.
        assert svd_calls["full"] == 1 + 7
        assert svd_calls["values"] == 43 + 4 + 5
