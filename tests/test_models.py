import tracemalloc

import numpy as np
import pytest

import oracles
from epkit import (
    DEFAULT_TOL,
    FAMILIES,
    InvalidDimension,
    InvalidSpec,
    MAX_DIM,
    classify,
    eigenvalues,
    harmonic_truncation,
    is_normal,
    limit_study,
    realize,
    spectral_radius,
    svd,
)
from epkit import models
from epkit.classify import range_corange_test
from epkit.core import ToleranceConfig, singular_values
from epkit.models import diagonal_entries


class TestRealize:
    def test_diag_n_values(self, tol):
        m = realize("diag_n", 3)
        assert m.dtype == np.float64
        np.testing.assert_array_equal(m, np.diag([1.0, 2.0, 3.0]))
        rep = classify(m, tol)
        assert rep.is_ep and rep.gamma == pytest.approx(1.0)
        assert rep.spectral_radius == pytest.approx(3.0)

    def test_harmonic_truncated_embedded(self, tol):
        m = harmonic_truncation(4, 6)
        np.testing.assert_allclose(
            np.diagonal(m).real, [1.0, 0.5, 1.0 / 3.0, 0.25, 0.0, 0.0]
        )
        rep = classify(m, tol)
        assert rep.is_ep
        assert rep.gamma == pytest.approx(0.25)

    def test_mult_inv_sqrt_midpoints(self):
        m = realize("mult_inv_sqrt", 2)
        np.testing.assert_allclose(np.diagonal(m).real, [2.0, 2.0 / np.sqrt(3.0)])
        for n in (1, 3, 10, 30):
            entries = np.diagonal(realize("mult_inv_sqrt", n)).real
            assert np.all(entries >= 1.0)

    def test_alternating_entries(self):
        entries = np.diagonal(realize("diag_alternating", 6)).real
        np.testing.assert_allclose(entries, [1.0, 2.0, 1.0 / 3.0, 4.0, 0.2, 6.0])

    def test_rejects_bad_truncation(self):
        with pytest.raises(InvalidDimension):
            realize("diag_n", 0)

    def test_rejects_unknown_family(self):
        with pytest.raises(InvalidSpec):
            realize("bogus", 3)

    @pytest.mark.parametrize("call", [
        lambda n: realize("diag_n", n),
        lambda n: limit_study("diag_n", n),
        lambda n: harmonic_truncation(n, 8),
        lambda n: harmonic_truncation(2, n),
    ])
    @pytest.mark.parametrize("n", [2.5, 5.0, True, "5", None])
    def test_counts_must_be_integers(self, call, n):
        with pytest.raises(InvalidSpec, match="must be an integer"):
            call(n)

    def test_numpy_integer_counts_give_the_same_bits(self, tol):
        n = np.int64(5)
        assert np.array_equal(realize("diag_n", n), realize("diag_n", 5))
        assert np.array_equal(harmonic_truncation(np.int32(3), n), harmonic_truncation(3, 5))
        assert limit_study("diag_harmonic_truncated", n, tol) == limit_study(
            "diag_harmonic_truncated", 5, tol
        )

    def test_family_list(self):
        assert set(FAMILIES) == {
            "mult_inv_sqrt",
            "diag_n",
            "diag_alternating",
            "diag_harmonic_truncated",
        }


class TestLimitStudy:
    def test_harmonic_gamma_column(self, tol):
        rows = limit_study("diag_harmonic_truncated", 10, tol)
        assert [row["n"] for row in rows] == list(range(1, 11))
        for row in rows:
            assert row["is_ep"]
            assert row["gamma"] == pytest.approx(1.0 / row["n"], abs=1e-14)
            assert row["pinv_norm"] == pytest.approx(float(row["n"]), abs=1e-12)

    def test_diag_n_columns(self, tol):
        rows = limit_study("diag_n", 10, tol)
        for row in rows:
            assert row["gamma"] == pytest.approx(1.0, abs=1e-14)
            assert row["spectral_radius"] == pytest.approx(float(row["n"]), abs=1e-12)
            assert row["is_ep"]

    def test_alternating_gamma_is_min_entry(self, tol):
        rows = limit_study("diag_alternating", 10, tol)
        for row in rows:
            n = row["n"]
            entries = [k if k % 2 == 0 else 1.0 / k for k in range(1, n + 1)]
            entries[0] = 1.0
            assert row["gamma"] == pytest.approx(min(entries), abs=1e-14)

    def test_rejects_small_window(self, tol):
        with pytest.raises(InvalidDimension):
            limit_study("diag_n", 1, tol)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_peak_memory_stays_below_one_megabyte(self, family):
        # Blocks of 32 truncations peak near 0.3 MB of arrays, a loop of
        # single rows near 0.06 MB, and one block of all 256 rows near 1.6 MB.
        tracemalloc.start()
        try:
            limit_study(family, MAX_DIM)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    @pytest.mark.parametrize(
        "family,n_max,message",
        [
            ("diag_n", 300, "truncation of dimension 257 exceeds the 256 cap"),
            ("mult_inv_sqrt", 257, "truncation of dimension 257 exceeds the 256 cap"),
        ],
    )
    def test_rejects_a_bad_truncation_before_the_first_svd(
        self, svd_calls, tol, family, n_max, message
    ):
        # The error of the first truncation past the limit, raised before
        # the loop factors any of the valid ones.
        with pytest.raises(InvalidDimension) as exc:
            limit_study(family, n_max, tol)
        assert str(exc.value) == message
        assert svd_calls["full"] == svd_calls["values"] == 0

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_a_non_finite_entry_as_the_dense_route_does(self, monkeypatch, tol, bad):
        monkeypatch.setitem(models._DIAGONALS, "diag_n", lambda k, n: np.where(k == 3, bad, k))
        message = "matrix entries must be finite"
        with pytest.raises(ValueError, match=message):
            singular_values(realize("diag_n", 3), tol)
        with pytest.raises(ValueError, match=message):
            limit_study("diag_n", 4, tol)

    @pytest.mark.parametrize("family,n_max", [("bogus", 8), ("diag_n", 8.0)])
    def test_rejects_a_bad_spec_before_the_first_svd(self, svd_calls, tol, family, n_max):
        with pytest.raises(InvalidSpec):
            limit_study(family, n_max, tol)
        assert svd_calls["full"] == svd_calls["values"] == 0


class TestFamilyInvariants:
    def test_all_families_normal_hence_ep(self, tol):
        for family in FAMILIES:
            m = realize(family, 7)
            assert is_normal(m, tol)
            assert classify(m, tol).is_ep

    def test_gamma_equals_min_nonzero_diagonal(self, tol):
        for family in FAMILIES:
            for n in (2, 5, 11):
                m = realize(family, n)
                entries = np.abs(np.diagonal(m))
                expected = entries[entries > 0].min()
                assert classify(m, tol).gamma == pytest.approx(expected, abs=1e-14)

    def test_harmonic_pinv_norm_feeds_divergence_study(self, tol):
        from epkit import operator_norm, pseudoinverse

        for n in (3, 10, 25):
            m = harmonic_truncation(n, n + 2)
            assert operator_norm(pseudoinverse(m, tol)) == pytest.approx(float(n), abs=1e-12)


def harmonic_truncation_reference(n, ambient_dim):
    m = np.zeros((ambient_dim, ambient_dim), dtype=np.float64)
    for k in range(1, n + 1):
        m[k - 1, k - 1] = 1.0 / k
    return m


class TestHarmonicTruncation:
    @pytest.mark.parametrize("n,ambient_dim", [(1, 1), (4, 6), (12, 20), (31, 256)])
    def test_matches_reference_bit_for_bit(self, n, ambient_dim):
        m = harmonic_truncation(n, ambient_dim)
        expected = harmonic_truncation_reference(n, ambient_dim)
        assert m.dtype == expected.dtype and m.shape == expected.shape
        assert m.tobytes() == expected.tobytes()

    def test_rejects_an_ambient_dimension_below_the_truncation(self):
        with pytest.raises(InvalidDimension, match="ambient dimension 3 is smaller than truncation 5"):
            harmonic_truncation(5, 3)

    def test_rejects_an_ambient_dimension_past_the_cap(self):
        with pytest.raises(InvalidDimension, match="exceeds the 256 cap"):
            harmonic_truncation(4, MAX_DIM + 1)


def classify_reference(family, n_max, tol):
    """Each truncation's full classification."""
    return [classify(realize(family, n), tol) for n in range(1, n_max + 1)]


class TestLimitStudySharesOneFactorization:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_rows_match_reference_bit_for_bit(self, tol, family):
        rows = limit_study(family, 256, tol)
        for row in rows:
            gamma = float(np.min(np.abs(diagonal_entries(family, row["n"]))))
            assert row["gamma"] == gamma
            assert row["pinv_norm"] == 1.0 / gamma
        # A classification per truncation costs about 2 s at n_max 256.
        reference = classify_reference(family, 40, tol)
        assert [(row["is_ep"], row["spectral_radius"]) for row in rows[:40]] == [
            (report.is_ep, report.spectral_radius) for report in reference
        ]

    @pytest.mark.parametrize("family", FAMILIES)
    def test_row_values_equal_lapack_bit_for_bit(self, tol, family):
        # A diagonal's values never reach LAPACK (``core.singular_values``);
        # LAPACK's own values-only SVD, real and complex, stays the reference.
        for n in range(1, MAX_DIM + 1):
            m = realize(family, n)
            s = singular_values(m, tol)[0]
            assert s.tobytes() == np.linalg.svd(m, compute_uv=False).tobytes()
            if n <= 64:
                reference = np.linalg.svd(m.astype(np.complex128), compute_uv=False)
                assert s.tobytes() == reference.tobytes()

    @pytest.mark.parametrize("family", FAMILIES)
    def test_eigenvalues_equal_lapack_bit_for_bit(self, family):
        # LAPACK's general eigensolver returns a diagonal's entries, from
        # the real kernel and the complex one alike, so the spectral radius
        # of a row is its largest singular value.
        for n in range(1, MAX_DIM + 1):
            m = realize(family, n)
            vals = eigenvalues(m)
            assert vals.tobytes() == oracles.lapack_eigenvalues(m).tobytes()
            if n <= 64:
                reference = oracles.lapack_eigenvalues(m.astype(np.complex128))
                assert vals.tobytes() == reference.tobytes()


def dense_route_rows(family, n_max, tol, dtype=np.float64):
    """The rows of each truncation built as a dense n x n matrix, cast to dtype.

    ``core.singular_values`` gives the rank and gamma at every rank, and
    ``pinv.spectral_radius`` reads the eigenvalues: the reference for the
    values ``limit_study`` reads from the diagonal vector.  Every row is EP;
    ``TestEveryRowIsEp`` checks that verdict against the range comparison.
    """
    rows = []
    for n in range(1, n_max + 1):
        m = realize(family, n).astype(dtype)
        s, r = singular_values(m, tol)
        gamma = float(s[r - 1]) if r else 0.0
        rows.append(
            {
                "n": n,
                "gamma": gamma,
                "spectral_radius": spectral_radius(m),
                "is_ep": True,
                "pinv_norm": 1.0 / gamma if r else 0.0,
            }
        )
    return rows


# The default cutoff, at which every truncation has full rank, and two
# coarse ones that leave ranks strictly between 0 and n.
RANK_RTOLS = [DEFAULT_TOL.rank_rtol, 1e-3, 1e-2]


def row_bits(rows):
    """Each row's fields as (type, value) with floats in hex, so -0.0 differs from 0.0."""
    return [
        {k: (type(v), v.hex() if isinstance(v, float) else v) for k, v in row.items()}
        for row in rows
    ]


class TestDiagonalRowsEqualTheDenseRoute:
    # limit_study reads 32 truncations a block: n_max 2 and 31 fill part of
    # one block, 33 and 65 leave a last block of one row, and MAX_DIM fills
    # eight blocks.
    @pytest.mark.parametrize("n_max", [2, 31, 33, 65, MAX_DIM])
    @pytest.mark.parametrize("rank_rtol", RANK_RTOLS)
    @pytest.mark.parametrize("family", FAMILIES)
    def test_rows_equal_bit_for_bit(self, family, rank_rtol, n_max):
        # At rank_rtol 1e-3 the alternating truncations from n = 33 on are
        # rank-deficient, and at 1e-2 every family but mult_inv_sqrt is by
        # n = 100.
        tol = ToleranceConfig(rank_rtol=rank_rtol)
        rows = limit_study(family, n_max, tol)
        assert row_bits(rows) == row_bits(dense_route_rows(family, n_max, tol))


class TestEveryRowIsEp:
    @pytest.mark.parametrize("rank_rtol", RANK_RTOLS)
    @pytest.mark.parametrize("family", FAMILIES)
    def test_verdict_equals_the_range_comparison(self, family, rank_rtol):
        # A row's is_ep is a constant; the full SVD and range comparison of
        # the dense truncation must reach it at every cutoff.
        tol = ToleranceConfig(rank_rtol=rank_rtol)
        for row in limit_study(family, 64, tol):
            fact = svd(realize(family, row["n"]), tol)
            assert row["is_ep"] == range_corange_test(fact, tol)


class TestRealKernelsGiveTheComplexRows:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_rows_equal_field_by_field(self, tol, family):
        # Real truncations stay float64; a row must not depend on the
        # dtype.  No fingerprint condition: every machine checks it.
        assert limit_study(family, 64, tol) == dense_route_rows(family, 64, tol, np.complex128)
