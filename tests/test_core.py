import numpy as np
import pytest

import oracles
from epkit import (
    ConvergenceFailure,
    DimensionMismatch,
    InvalidDimension,
    InvalidSpec,
    NotHermitian,
    NotSquare,
    ToleranceConfig,
    adjoint,
    as_matrix,
    classify,
    direct_sum,
    eigenvalues,
    hermitian_eig,
    is_ep,
    multiply,
    operator_norm,
    polar_decomposition,
    pseudoinverse,
    reduced_min_modulus,
    svd,
)
from epkit import core
from epkit.core import norm2, norm2_at_most, singular_values


class TestAdjoint:
    def test_conjugates_single_entry(self):
        np.testing.assert_array_equal(adjoint([[1j]]), np.array([[-1j]]))

    def test_real_transpose(self):
        np.testing.assert_array_equal(
            adjoint([[1, 2], [3, 4]]), np.array([[1, 3], [2, 4]], dtype=complex)
        )

    def test_matches_entrywise_oracle(self, rng):
        m = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        np.testing.assert_array_equal(adjoint(m), oracles.entrywise_adjoint(m))

    def test_involution_is_exact(self, rng):
        m = rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2))
        np.testing.assert_array_equal(adjoint(adjoint(m)), m)


class TestMultiply:
    def test_identity(self, rng):
        m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        np.testing.assert_array_equal(multiply(np.eye(3), m), m)

    def test_nilpotent_squares_to_zero(self):
        cell = [[0, 1], [0, 0]]
        np.testing.assert_array_equal(multiply(cell, cell), np.zeros((2, 2)))

    def test_matches_naive_oracle(self, rng):
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        np.testing.assert_allclose(multiply(a, b), oracles.naive_matmul(a, b), atol=1e-13)

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(DimensionMismatch):
            multiply(np.ones((2, 3)), np.ones((2, 3)))


class TestSvd:
    def test_diagonal(self, tol):
        fact = svd(np.diag([3.0, 1.0, 0.0]), tol)
        np.testing.assert_allclose(fact.singular_values, [3.0, 1.0, 0.0], atol=1e-15)
        assert fact.numerical_rank == 2

    def test_nilpotent_cell(self, tol):
        fact = svd([[0, 1], [0, 0]], tol)
        np.testing.assert_allclose(fact.singular_values, [1.0, 0.0], atol=1e-15)
        assert fact.numerical_rank == 1

    def test_reconstruction_and_orthonormality(self, rng, tol):
        m = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
        fact = svd(m, tol)
        sigma = np.zeros((5, 3))
        np.fill_diagonal(sigma, fact.singular_values)
        recon = fact.left_vectors @ sigma @ fact.right_vectors.conj().T
        bound = 1e-10 * (1.0 + operator_norm(m))
        assert np.linalg.norm(recon - m, 2) <= bound
        assert np.linalg.norm(fact.left_vectors.conj().T @ fact.left_vectors - np.eye(5), 2) <= bound
        assert np.linalg.norm(fact.right_vectors.conj().T @ fact.right_vectors - np.eye(3), 2) <= bound

    def test_zero_matrix_has_rank_zero(self, tol):
        fact = svd(np.zeros((3, 2)), tol)
        assert fact.numerical_rank == 0
        assert fact.range_vectors().shape == (3, 0)

    def test_deterministic_bit_identical(self, rng, tol):
        m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        f1 = svd(m, tol)
        f2 = svd(m, tol)
        assert np.array_equal(f1.left_vectors, f2.left_vectors)
        assert np.array_equal(f1.singular_values, f2.singular_values)
        assert np.array_equal(f1.right_vectors, f2.right_vectors)
        assert f1.numerical_rank == f2.numerical_rank

    def test_single_matrix_rank_is_an_int(self, rng):
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        assert type(svd(m).numerical_rank) is int


def one_off_diagonal(entry) -> np.ndarray:
    """diag(3, 2, 1) with entry at (2, 0), in entry's dtype."""
    m = np.diag([3.0, 2.0, 1.0]).astype(type(entry))
    m[2, 0] = entry
    return m


class TestSingularValues:
    def test_rank_is_the_svd_rank(self, rng, tol):
        a = rng.standard_normal((7, 3)) + 1j * rng.standard_normal((7, 3))
        inputs = [
            rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)),
            rng.standard_normal((5, 8)),
            a @ a.conj().T,  # rank 3 in dim 7
            np.diag([4.0, 1.0, 1e-12, 0.0]),
            np.zeros((3, 2)),
        ]
        for m in inputs:
            s, rank = singular_values(m, tol)
            fact = svd(m, tol)
            assert rank == fact.numerical_rank
            np.testing.assert_allclose(s, fact.singular_values, rtol=1e-12, atol=1e-12)
        assert [singular_values(m, tol)[1] for m in inputs[2:]] == [3, 2, 0]

    def test_real_input_stays_real(self, tol):
        s, rank = singular_values([[3, 0], [0, -1]], tol)
        assert s.dtype == np.float64
        assert s.tolist() == [3.0, 1.0] and rank == 2

    def test_rejects_non_finite_entries(self, tol):
        with pytest.raises(ValueError, match="finite"):
            singular_values([[np.nan, 0.0], [0.0, 1.0]], tol)

    def test_lapack_failure_is_a_convergence_failure(self, monkeypatch, tol):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", fail)
        with pytest.raises(ConvergenceFailure, match="did not converge"):
            # Not diagonal, so it reaches LAPACK.
            singular_values([[1.0, 1.0], [0.0, 1.0]], tol)

    @pytest.mark.parametrize(
        "m",
        [
            np.diag([-3.0, 0.0, 2.0, -2.0, 0.5, 0.0]),  # signs, zeros and ties
            np.diag([3 - 4j, -1j, 0.0, 2 + 0j, -5.0]),
            np.eye(4, 6) * [1.0, -7.0, 0.0, 2.0, 0.0, 0.0],  # 4 x 6
            np.eye(5, 3, dtype=np.complex128) * [2j, -1.0, 1e-12],  # 5 x 3
            np.zeros((3, 4)),
            np.zeros((2, 2), dtype=np.complex128),
            [[-2.5]],
            [[0.0]],
        ],
        ids=["real", "complex", "wide", "tall_complex", "zero", "zero_complex",
             "one_by_one", "zero_one_by_one"],
    )
    def test_diagonal_gives_its_sorted_moduli_without_lapack(self, svd_calls, tol, m):
        s, rank = singular_values(m, tol)
        assert svd_calls["full"] == svd_calls["values"] == 0
        expected = np.sort(np.abs(np.diagonal(np.asarray(m))))[::-1]
        assert s.dtype == np.float64
        assert s.tolist() == expected.tolist()
        assert rank == svd(m, tol).numerical_rank

    def test_diagonal_agrees_with_lapack_within_two_ulps(self, tol):
        rng = np.random.default_rng(20)
        eps = np.finfo(np.float64).eps
        for _ in range(300):
            n = int(rng.integers(1, 17))
            d = rng.standard_normal(n) * np.exp(rng.uniform(-20.0, 20.0, n))
            for m in (np.diag(d), np.diag(d + 1j * rng.standard_normal(n))):
                s, _ = singular_values(m, tol)
                reference = np.linalg.svd(m, compute_uv=False)
                assert np.all(np.abs(s - reference) <= 2.0 * eps * reference)

    @pytest.mark.parametrize("entry", [1e-3, 5e-324, 1j * 5e-324])
    def test_one_off_diagonal_entry_reaches_lapack(self, svd_calls, tol, entry):
        singular_values(one_off_diagonal(entry), tol)
        assert svd_calls["values"] == 1


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def mixed_stack(rng, dim, count, dtype):
    """``count`` matrices of one shape and dtype: dense ones, with every third diagonal."""
    out = []
    for i in range(count):
        m = rng.standard_normal((dim, dim))
        if dtype is complex:
            m = m + 1j * rng.standard_normal((dim, dim))
        out.append(np.diag(np.diagonal(m)) if i % 3 == 1 else m)
    return out


def request_steps(requests):
    """A step generator that yields each ``(kind, matrices)`` of ``requests``; returns what it got."""
    received = []
    for request in requests:
        received.append((yield request))
    return received


def single_call(kind, m):
    """The single-matrix call a request kind stands for."""
    return {"svd": core.svd, "values": singular_values, "norm": norm2}[kind](m)


def same_result(a, b) -> bool:
    if isinstance(a, core.SvdFactorization):
        return (same_bits(a.left_vectors, b.left_vectors)
                and same_bits(a.singular_values, b.singular_values)
                and same_bits(a.right_vectors, b.right_vectors)
                and type(a.numerical_rank) is int and a.numerical_rank == b.numerical_rank)
    if isinstance(a, tuple):
        return same_bits(a[0], b[0]) and type(a[1]) is int and a[1] == b[1]
    return type(a) is float and a == b


class TestLockstep:
    """``core._lockstep`` answers a round with one stacked call per kind, shape and dtype.

    LAPACK factors each matrix of a stack alone, so stacking moves no bit:
    every result has the bits of its single-matrix call.
    """

    def test_every_result_has_the_bits_of_its_single_call(self, rng, svd_calls):
        def square(dim, count, dtype):
            return tuple(mixed_stack(rng, dim, count, dtype))

        plans = [
            [("svd", square(4, 2, complex) + square(3, 1, float)), ("values", square(4, 3, complex))],
            [("norm", square(4, 2, complex) + square(4, 1, float))],
            [("svd", square(4, 2, complex) + square(3, 1, float)), ("values", square(4, 3, complex))],
        ]
        svd_calls.clear()
        received = core._lockstep([request_steps(plan) for plan in plans])
        # First round: full SVDs at 4 x 4 complex and 3 x 3 real, norms at
        # 4 x 4 complex and 4 x 4 real; second round: one call for the six
        # values-only SVDs, of which mixed_stack made two diagonal.
        assert svd_calls["svd"] == 5
        assert svd_calls["full"] == 6 and svd_calls["values"] == 3 + 4
        for plan, answers in zip(plans, received, strict=True):
            for (kind, matrices), results in zip(plan, answers, strict=True):
                for m, result in zip(matrices, results, strict=True):
                    assert same_result(result, single_call(kind, m))

    def test_generators_end_at_their_own_rounds(self):
        eye = np.eye(2)
        plans = [[], [("norm", (eye,))] * 3, [("norm", (2.0 * eye,)), ("norm", ())]]
        returns = core._lockstep([request_steps(plan) for plan in plans])
        assert returns == [[], [[1.0]] * 3, [[2.0], []]]

    def test_one_generator_alone_makes_one_call_per_request(self, rng, svd_calls):
        ms = mixed_stack(rng, 8, 4, complex)
        svd_calls.clear()
        ((facts, norms),) = core._lockstep([request_steps([("svd", ms), ("norm", ms)])])
        assert svd_calls["svd"] == 2
        assert all(same_result(f, core.svd(m)) for f, m in zip(facts, ms))
        assert norms == [norm2(m) for m in ms]

    @pytest.mark.parametrize("dim", [1, 2, 8, 33])
    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("cap", [4, None])
    def test_a_request_cut_at_the_cap_keeps_the_bits_of_each_single_call(
        self, rng, svd_calls, monkeypatch, dim, dtype, cap
    ):
        # A group that crosses the cap of one call is split into calls of at
        # most max(1, _STACK_ENTRIES // (rows * cols)) matrices; the cap is
        # lowered here so that every dim crosses it cheaply, and kept at dim 33.
        if cap is not None:
            monkeypatch.setattr(core, "_STACK_ENTRIES", cap * dim * dim)
        per_call = max(1, core._STACK_ENTRIES // dim**2)
        count = 10 if cap is not None else (per_call + 1 if dim == 33 else 7)
        ms = tuple(mixed_stack(rng, dim, count, dtype))
        svd_calls.clear()
        ((facts, pairs, norms),) = core._lockstep(
            [request_steps([("svd", ms), ("values", ms), ("norm", ms)])]
        )
        calls = -(-count // per_call)
        dense = sum(not core._is_diagonal(m) for m in ms)  # none at dim 1
        assert svd_calls["full"] == count and svd_calls["values"] == count + dense
        assert svd_calls["svd"] <= 3 * calls
        for m, fact, pair, norm in zip(ms, facts, pairs, norms, strict=True):
            assert same_result(fact, core.svd(m))
            assert same_result(pair, singular_values(m))
            assert same_result(norm, norm2(m)) and norm == np.linalg.norm(m, 2)

    def test_a_request_past_the_default_cap_is_split(self, rng, svd_calls):
        # 2^16 // 33^2 = 60 matrices a call.
        ms = tuple(mixed_stack(rng, 33, 121, complex))
        svd_calls.clear()
        ((norms,),) = core._lockstep([request_steps([("norm", ms)])])
        assert len(norms) == 121
        assert svd_calls["svd"] == 3 and svd_calls["values"] == 121

    def test_at_dim_256_each_lapack_call_gets_one_matrix(self, rng, svd_calls):
        ms = tuple(rng.standard_normal((256, 256)) for _ in range(2))
        svd_calls.clear()
        core._lockstep([request_steps([("svd", ms)])])
        assert svd_calls["svd"] == svd_calls["full"] == 2
        svd_calls.clear()
        core._lockstep([request_steps([("norm", ms)])])
        assert svd_calls["svd"] == svd_calls["values"] == 2

    def test_a_group_is_split_at_the_stack_cap(self, rng, svd_calls, monkeypatch):
        monkeypatch.setattr(core, "_STACK_ENTRIES", 3 * 4 * 4)
        ms = mixed_stack(rng, 4, 4, complex)
        svd_calls.clear()
        core._lockstep([request_steps([("norm", ms[:2])]), request_steps([("norm", ms[2:])])])
        assert svd_calls["svd"] == 2 and svd_calls["values"] == 4

    def test_a_nan_matrix_in_a_norm_request_is_a_convergence_failure(self):
        ms = (np.eye(3), np.full((3, 3), np.nan), 2.0 * np.eye(3))
        with pytest.raises(ConvergenceFailure):
            core._lockstep([request_steps([("norm", ms)])])

    @pytest.mark.parametrize("kind", ["svd", "values"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_a_non_finite_entry_raises_as_in_as_matrix(self, kind, bad):
        # Checked once per call, with as_matrix's error; a diagonal one too.
        with pytest.raises(ValueError, match="finite"):
            core._lockstep([request_steps([(kind, (np.eye(2), np.diag([bad, 1.0])))])])

    def test_an_unknown_request_kind_raises(self):
        with pytest.raises(ValueError, match="unknown request kind 'qr'"):
            core._lockstep([request_steps([("norm", (np.eye(2),))]),
                            request_steps([("qr", (np.eye(2),))])])

    def test_a_non_finite_matrix_raises(self):
        steps = [request_steps([("norm", (np.eye(2),))]),
                 request_steps([("svd", (np.full((2, 2), np.nan),))])]
        with pytest.raises(ValueError, match="finite"):
            core._lockstep(steps)

    def test_an_error_in_a_generator_reaches_the_caller(self):
        def failing():
            yield "norm", (np.eye(2),)
            raise NotSquare("from a step")

        with pytest.raises(NotSquare, match="from a step"):
            core._lockstep([request_steps([("norm", (np.eye(3),))] * 3), failing()])


class TestSvdRetry:
    """A stack LAPACK's SVD does not converge on is factored again, one matrix at a time.

    A matrix it still does not converge on is factored through its adjoint.
    """

    @pytest.mark.parametrize("shape", [(6, 6), (5, 3)])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_only_the_failing_matrix_is_factored_through_its_adjoint(
        self, rng, tol, monkeypatch, shape, dtype
    ):
        rows, cols = shape

        def product(rank):
            a, b = rng.standard_normal((rows, rank)), rng.standard_normal((rank, cols))
            if dtype is complex:
                a = a + 1j * rng.standard_normal((rows, rank))
            return a @ b

        ms = [product(cols) for _ in range(4)]
        marked = ms[2] = product(cols - 2)
        expected = [core.svd(m, tol) for m in ms]
        real_svd = np.linalg.svd

        def svd(a, *args, **kwargs):
            if any(same_bits(m, marked) for m in np.reshape(a, (-1, *np.shape(a)[-2:]))):
                raise np.linalg.LinAlgError("SVD did not converge")
            return real_svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", svd)
        ((facts,),) = core._lockstep([request_steps([("svd", tuple(ms))])], tol)
        for i in (0, 1, 3):
            assert same_result(facts[i], expected[i])
        fact = facts[2]
        assert type(fact.numerical_rank) is int
        assert fact.numerical_rank == expected[2].numerical_rank == cols - 2
        np.testing.assert_allclose(fact.singular_values, expected[2].singular_values,
                                   rtol=1e-13, atol=1e-13 * expected[2].singular_values[0])
        u, v = fact.left_vectors, fact.right_vectors
        recon = (u[:, :cols] * fact.singular_values) @ v.conj().T
        scale = np.linalg.norm(marked)  # Frobenius: no SVD
        assert np.linalg.norm(recon - marked) <= 1e-13 * scale
        assert np.linalg.norm(u.conj().T @ u - np.eye(rows)) <= 1e-13
        assert np.linalg.norm(v.conj().T @ v - np.eye(cols)) <= 1e-13

    def test_a_matrix_whose_adjoint_fails_too_is_a_convergence_failure(self, monkeypatch, tol):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", fail)
        ms = (np.eye(3), np.diag([2.0, 1.0, 0.0]))
        with pytest.raises(ConvergenceFailure, match="did not converge"):
            core._lockstep([request_steps([("svd", ms)])], tol)
        with pytest.raises(ConvergenceFailure, match="did not converge"):
            core.svd(np.eye(3), tol)


class TestHermitianEig:
    def test_diagonal(self, tol):
        w, q = hermitian_eig(np.diag([2.0, -1.0]), tol)
        np.testing.assert_allclose(w, [2.0, -1.0], atol=1e-14)
        np.testing.assert_allclose(np.abs(q), np.eye(2), atol=1e-14)

    def test_symmetric_swap(self, tol):
        w, _ = hermitian_eig([[0, 1], [1, 0]], tol)
        np.testing.assert_allclose(w, [1.0, -1.0], atol=1e-14)

    def test_matches_charpoly_oracle(self, tol):
        rng = np.random.default_rng(7)
        a = oracles.snapped_complex_matrix(rng, 6, denominator=32)
        h = a + a.conj().T
        # entries of h are exact multiples of 1/32, so the oracle is exact
        w, q = hermitian_eig(h, tol)
        expected = np.sort_complex(oracles.charpoly_roots(h, denominator=32))
        assert np.max(np.abs(expected.imag)) < 1e-12
        np.testing.assert_allclose(np.sort(w), np.sort(expected.real), atol=1e-8)
        recon = (q * w) @ q.conj().T
        assert np.linalg.norm(recon - h, 2) <= 1e-12 * (1.0 + np.linalg.norm(h, 2))

    def test_rejects_non_hermitian(self, tol):
        with pytest.raises(NotHermitian):
            hermitian_eig([[0, 1], [0, 0]], tol)
        with pytest.raises(NotHermitian):
            hermitian_eig(np.ones((2, 3)), tol)

    def test_a_failed_iteration_raises_convergence_failure(self, monkeypatch, tol):
        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(ConvergenceFailure) as err:
            hermitian_eig(np.eye(3), tol)
        assert str(err.value) == "Hermitian eigendecomposition did not converge for shape (3, 3)"
        assert isinstance(err.value.__cause__, np.linalg.LinAlgError)


class TestHermitianValuesAndInverse:
    def test_same_bits_as_numpy(self, rng):
        g = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        h = (g + g.conj().T) / 2.0
        assert same_bits(core._hermitian_eigenvalues(g), np.linalg.eigvalsh(h))
        assert same_bits(core._inverse(g), np.linalg.inv(g))

    def test_a_singular_matrix_raises_convergence_failure(self):
        with pytest.raises(ConvergenceFailure, match="singular"):
            core._inverse(np.zeros((3, 3)))

    def test_a_failed_iteration_raises_convergence_failure(self, monkeypatch):
        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        with pytest.raises(ConvergenceFailure, match="did not converge"):
            core._hermitian_eigenvalues(np.eye(3))


class TestEigenvalues:
    def test_nilpotent(self):
        np.testing.assert_allclose(eigenvalues([[0, 1], [0, 0]]), [0, 0], atol=1e-14)

    def test_diagonal_multiset(self):
        vals = eigenvalues(np.diag([2.0, -3.0, 1j]))
        assert oracles.multiset_gap(vals, np.array([2.0, -3.0, 1j])) < 1e-14

    def test_matches_quartic_charpoly_oracle(self):
        rng = np.random.default_rng(11)
        m = oracles.snapped_complex_matrix(rng, 4)
        vals = eigenvalues(m)
        roots = oracles.charpoly_roots(m)
        assert oracles.multiset_gap(vals, roots) <= 1e-8

    def test_rejects_non_square(self):
        with pytest.raises(NotSquare):
            eigenvalues(np.ones((2, 3)))

    def test_adjoint_conjugate_multiset(self, rng):
        for _ in range(5):
            m = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
            gap = oracles.multiset_gap(eigenvalues(adjoint(m)), eigenvalues(m).conj())
            assert gap <= 1e-8

    def test_one_call_makes_one_lapack_eigvals_call(self, svd_calls):
        eigenvalues([[1.0, 2.0j], [3.0, 4.0]])
        assert svd_calls["eigvals"] == 1

    def test_lapack_failure_is_a_convergence_failure(self, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvals", fail)
        with pytest.raises(ConvergenceFailure, match="did not converge"):
            eigenvalues([[1.0, 1.0], [0.0, 1.0]])


class TestOperatorNorm:
    def test_zero(self):
        assert operator_norm(np.zeros((2, 2))) == 0.0

    def test_diagonal(self):
        assert operator_norm(np.diag([2.0, 5.0])) == pytest.approx(5.0, abs=1e-14)

    def test_matches_hermitian_eig_oracle(self, rng, tol):
        m = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
        w, _ = hermitian_eig(adjoint(m) @ m, tol)
        assert operator_norm(m) == pytest.approx(np.sqrt(max(w[0], 0.0)), rel=1e-12)


class TestNorm2:
    @pytest.mark.parametrize("shape", [(1, 1), (8, 8), (32, 32), (5, 3), (3, 7)])
    def test_matches_numpy_two_norm_bit_for_bit(self, rng, shape):
        m = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        got = norm2(m)
        assert type(got) is float
        assert got == np.linalg.norm(m, 2)

    def test_zero_matrix(self):
        z = np.zeros((4, 6), dtype=np.complex128)
        assert norm2(z) == np.linalg.norm(z, 2) == 0.0

    def test_real_input(self, rng):
        m = rng.standard_normal((6, 6))
        assert norm2(m) == np.linalg.norm(m, 2)

    def test_nan_is_a_convergence_failure(self):
        for m in (np.array([[np.nan, 0.0], [0.0, 1.0]]), np.full((3, 2), np.nan + 0j)):
            with pytest.raises(ConvergenceFailure, match="did not converge"):
                norm2(m)

    INFINITE = [
        np.array([[1.0, np.inf], [0.0, 1.0]]),
        np.array([[np.inf + 0j, 0.0], [0.0, 1.0]]),
        np.array([[1.0, -np.inf]]),
        # Finite entries whose norm overflows.
        np.full((2, 2), 1e308),
    ]

    @pytest.mark.parametrize("m", INFINITE)
    def test_non_finite_norm_is_a_convergence_failure(self, m):
        with pytest.raises(ConvergenceFailure, match="non-finite"):
            norm2(m)

    @pytest.mark.parametrize("m", INFINITE)
    def test_threshold_check_of_a_non_finite_norm_raises(self, m):
        with pytest.raises(ConvergenceFailure):
            norm2_at_most(m, 5.0)


# Finite matrices whose sigma_1 overflows: a rank cutoff of rank_rtol * inf
# would count nothing and read each as the zero operator.
OVERFLOWING = {
    "dense": 1.5e308 * np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0], [1.0, 0.0, 1.0]]),
    "complex_diagonal": np.diag([1.5e308 + 1.5e308j, 1.0]),
}


class TestOverflowingSigma1:
    @pytest.mark.parametrize(
        "call", [svd, singular_values, pseudoinverse, reduced_min_modulus, is_ep, classify],
        ids=lambda f: f.__name__,
    )
    @pytest.mark.parametrize("name", list(OVERFLOWING))
    def test_is_a_convergence_failure(self, call, name):
        assert np.isfinite(OVERFLOWING[name]).all()
        with pytest.raises(ConvergenceFailure, match="non-finite sigma_1"):
            call(OVERFLOWING[name])

    @pytest.mark.parametrize("kind", ["svd", "values"])
    def test_lockstep_request_is_a_convergence_failure(self, kind):
        ok = np.eye(3)
        with pytest.raises(ConvergenceFailure, match="non-finite sigma_1"):
            core._lockstep([request_steps([(kind, (ok, OVERFLOWING["dense"]))])])

    def test_largest_finite_sigma_1_keeps_its_rank(self):
        m = np.diag([1.7976931348623157e308, 1.0, 0.0])
        assert svd(m).numerical_rank == singular_values(m)[1] == 1


class TestNormSubmultiplicativity:
    def test_on_random_pairs(self, rng):
        for _ in range(20):
            a = rng.standard_normal((5, 4)) + 1j * rng.standard_normal((5, 4))
            b = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
            lhs = operator_norm(a @ b)
            rhs = operator_norm(a) * operator_norm(b)
            assert lhs <= rhs * (1.0 + 1e-12)


REAL_INPUTS = [
    np.array([[2.0, 1.0], [0.0, 3.0]]),
    [[2, 1], [0, 3]],
    np.array([[1, 0], [1, 1]], dtype=np.int32),
    [[True, False], [True, True]],
]
COMPLEX_INPUTS = [
    np.array([[2.0, 1j], [0.0, 3.0]]),
    # The rule reads the dtype, not the values: zero imaginary parts stay complex.
    np.array([[2.0, 1.0], [0.0, 3.0]], dtype=np.complex128),
    np.array([[2, 1], [0, 3]], dtype=object),
]


class TestDtypeContract:
    """Real, integer and bool input stays real (float64); the rest is complex128."""

    @pytest.mark.parametrize(
        "values,dtype",
        [(v, np.float64) for v in REAL_INPUTS] + [(v, np.complex128) for v in COMPLEX_INPUTS],
    )
    def test_kernels_keep_the_input_dtype(self, tol, values, dtype):
        assert as_matrix(values).dtype == dtype
        fact = svd(values, tol)
        assert fact.left_vectors.dtype == fact.right_vectors.dtype == dtype
        assert pseudoinverse(values, tol).dtype == dtype
        polar = polar_decomposition(values, tol)
        assert polar.isometry_part.dtype == polar.modulus_part.dtype == dtype
        assert eigenvalues(values).dtype == np.complex128

    def test_a_direct_sum_of_real_blocks_stays_real(self, tol):
        d = direct_sum(np.eye(2), np.diag([2.0]))
        assert d.dtype == np.float64
        assert pseudoinverse(d, tol).dtype == np.float64
        np.testing.assert_array_equal(d, np.diag([1.0, 1.0, 2.0]))
        # One complex block makes the sum complex.
        assert direct_sum(np.eye(2), np.diag([2j])).dtype == np.complex128
        assert direct_sum(np.eye(2, dtype=complex), np.diag([2.0])).dtype == np.complex128

    def test_real_eigenvalues_of_a_rotation_are_complex(self):
        vals = eigenvalues([[0.0, -1.0], [1.0, 0.0]])
        assert vals.dtype == np.complex128
        np.testing.assert_allclose(vals, [1j, -1j], atol=1e-15)

    def test_a_fresh_array(self):
        m = np.eye(2)
        out = as_matrix(m)
        out[0, 0] = 5.0
        assert m[0, 0] == 1.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_real_non_finite_entries_raise(self, bad):
        with pytest.raises(ValueError, match="finite"):
            as_matrix(np.array([[bad, 0.0], [0.0, 1.0]]))
        with pytest.raises(ValueError, match="finite"):
            svd(np.array([[bad, 0.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("shape", [(257, 2), (2, 257)])
    def test_real_shapes_past_the_cap_raise(self, shape):
        with pytest.raises(InvalidDimension, match="exceeds the 256x256 cap"):
            svd(np.zeros(shape))

    @pytest.mark.parametrize(
        "kernel",
        [svd, pseudoinverse, singular_values, operator_norm, eigenvalues, polar_decomposition,
         classify],
    )
    def test_a_stack_raises(self, kernel):
        with pytest.raises(InvalidDimension, match="expected a 2-D matrix, got ndim=3"):
            kernel(np.zeros((2, 3, 3)))


class TestValidation:
    def test_tolerance_config_bounds(self):
        with pytest.raises(InvalidSpec):
            ToleranceConfig(rank_rtol=0.0)
        with pytest.raises(InvalidSpec):
            ToleranceConfig(eq_atol=1.5)
        for field in ("rank_rtol", "eq_atol"):
            for value in (0, 1, -1e-8, 1.0, float("nan"), float("inf")):
                with pytest.raises(InvalidSpec, match=rf"{field} must lie in \(0, 1\)"):
                    ToleranceConfig(**{field: value})

    @pytest.mark.parametrize("field", ["rank_rtol", "eq_atol"])
    @pytest.mark.parametrize("value", ["1e-8", None, True, False, 1e-8j, [1e-8]])
    def test_tolerance_config_rejects_what_is_not_a_real_number(self, field, value):
        with pytest.raises(InvalidSpec, match=f"{field} must be a real number"):
            ToleranceConfig(**{field: value})

    @pytest.mark.parametrize("value", [1e-6, np.float64(1e-6), np.float32(1e-6)])
    def test_tolerance_config_accepts_python_and_numpy_reals(self, value):
        assert ToleranceConfig(rank_rtol=value, eq_atol=value).eq_atol == value

    def test_rejects_non_finite_entries(self):
        with pytest.raises(ValueError):
            as_matrix([[np.nan, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError):
            as_matrix([[np.inf]])

    def test_rejects_non_2d(self):
        with pytest.raises(InvalidDimension):
            as_matrix([1.0, 2.0])

    def test_rejects_an_empty_axis(self):
        with pytest.raises(InvalidDimension) as err:
            as_matrix(np.zeros((0, 3)))
        assert str(err.value) == "matrix axes must be positive, got (0, 3)"

    def test_rejects_oversized(self):
        with pytest.raises(InvalidDimension):
            as_matrix(np.zeros((257, 1)))

    def test_convergence_failure_is_importable(self):
        # The LAPACK backends essentially never fail on valid input; the
        # contract is that failures surface as this type, not silently.
        assert issubclass(ConvergenceFailure, Exception)
